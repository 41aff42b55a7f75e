// Simulator fingerprint: one FNV-1a digest per machine configuration over
// every built-in suite's totals, instruction count, cycle bits and sampled
// series bits. Any change to what the simulator computes — an RNG draw
// moved, a victim picked differently, a sample boundary shifted — changes
// a digest, so performance work on the simulator can prove it is
// bit-exact by leaving these constants alone.
//
// The four machine configurations together cover every replacement policy
// (LRU, tree-PLRU, Random), every prefetcher (None, NextLine, Stride) and
// every branch predictor (Gshare, Bimodal, AlwaysTaken); the tiny machine's
// small sets fill and evict constantly. The co-located digest runs
// cores behind a shared LLC in quanta that do not divide the sampling
// interval, so sample boundaries fall inside step() calls.
//
// The digests depend on libstdc++'s std::hash<std::string>: per-workload
// seeds hash the workload name (sim::simulate's workload_seed), as the
// golden tests' fixed-seed runs already do. Refresh the constants only for
// an intentional model change, and bump serve::kCodeVersion with it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/multicore.hpp"
#include "sim/simulator.hpp"
#include "suites/suite_factory.hpp"

namespace perspector::sim {
namespace {

constexpr const char* kBuiltinSuites[] = {
    "spec17",   "parsec",    "ligra", "lmbench", "nbench",
    "sgxgauge", "riotbench", "sebs",  "comb",    "splash2"};

// Small enough to run in seconds under ASan; large enough that every
// phase of every workload runs and the tiny machine's caches evict.
constexpr std::uint64_t kInstructions = 20'000;
constexpr std::uint64_t kSampleInterval = 2'000;

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_result(const SimResult& r, Fnv1a& h) {
  for (std::uint64_t v : r.totals.values) h.add(v);
  h.add(r.instructions);
  h.add(r.cycles);
  h.add(static_cast<std::uint64_t>(r.series.size()));
  for (const auto& series : r.series) {
    h.add(static_cast<std::uint64_t>(series.size()));
    for (double v : series) h.add(v);
  }
}

std::uint64_t suites_digest(const MachineConfig& machine) {
  suites::SuiteBuildOptions build;
  build.instructions_per_workload = kInstructions;
  SimOptions options;
  options.sample_interval = kSampleInterval;
  Fnv1a h;
  for (const char* name : kBuiltinSuites) {
    const SuiteSpec suite = suites::suite_by_name(name, build);
    for (const SimResult& r : simulate_suite(suite, machine, options)) {
      digest_result(r, h);
    }
  }
  return h.value();
}

TEST(SimFingerprint, DefaultMachine) {
  EXPECT_EQ(suites_digest(MachineConfig::xeon_e2186g()),
            0x7128226d1eb4edaeull);
}

TEST(SimFingerprint, PlruL2RandomLlcStrideBimodal) {
  MachineConfig machine = MachineConfig::xeon_e2186g();
  machine.l2.replacement = ReplacementPolicy::Plru;
  machine.llc.replacement = ReplacementPolicy::Random;
  machine.prefetcher = MachineConfig::Prefetcher::Stride;
  machine.predictor = MachineConfig::Predictor::Bimodal;
  EXPECT_EQ(suites_digest(machine), 0x09adf48d222bc9f7ull);
}

TEST(SimFingerprint, RandomL1NextLineAlwaysTaken) {
  MachineConfig machine = MachineConfig::xeon_e2186g();
  machine.l1d.replacement = ReplacementPolicy::Random;
  machine.prefetcher = MachineConfig::Prefetcher::NextLine;
  machine.predictor = MachineConfig::Predictor::AlwaysTaken;
  EXPECT_EQ(suites_digest(machine), 0x6e8db94f1ad803aeull);
}

TEST(SimFingerprint, TinyMachine) {
  EXPECT_EQ(suites_digest(MachineConfig::tiny()), 0xf9f35aa29867e0c9ull);
}

TEST(SimFingerprint, ColocatedSharedLlc) {
  suites::SuiteBuildOptions build;
  build.instructions_per_workload = kInstructions;
  const SuiteSpec suite = suites::suite_by_name("parsec", build);
  MulticoreOptions options;
  options.quantum = 1'300;
  options.sample_interval = kSampleInterval;
  Fnv1a h;
  for (const SimResult& r : simulate_colocated(
           suite.workloads, MachineConfig::xeon_e2186g(), options)) {
    digest_result(r, h);
  }
  EXPECT_EQ(h.value(), 0xb851b19ae7439bc0ull);
}

}  // namespace
}  // namespace perspector::sim
