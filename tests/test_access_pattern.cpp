#include "sim/access_pattern.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

namespace perspector::sim {
namespace {

constexpr std::uint64_t kBase = 1ull << 30;

AccessPatternGen make(AccessPatternKind kind, std::uint64_t ws,
                      std::uint64_t stride = 8) {
  AccessPatternParams params;
  params.kind = kind;
  params.working_set_bytes = ws;
  params.stride_bytes = stride;
  return AccessPatternGen(params, kBase, stats::Rng(7));
}

TEST(AccessPattern, ValidatesParams) {
  AccessPatternParams params;
  params.working_set_bytes = 4;
  EXPECT_THROW(AccessPatternGen(params, 0, stats::Rng(1)),
               std::invalid_argument);
  params.working_set_bytes = 1024;
  params.stride_bytes = 0;
  EXPECT_THROW(AccessPatternGen(params, 0, stats::Rng(1)),
               std::invalid_argument);
}

TEST(AccessPattern, SequentialAdvancesByStrideAndWraps) {
  auto gen = make(AccessPatternKind::Sequential, 32, 8);
  EXPECT_EQ(gen.next(), kBase + 0);
  EXPECT_EQ(gen.next(), kBase + 8);
  EXPECT_EQ(gen.next(), kBase + 16);
  EXPECT_EQ(gen.next(), kBase + 24);
  EXPECT_EQ(gen.next(), kBase + 0);  // wrap
}

TEST(AccessPattern, StridedLargeStride) {
  auto gen = make(AccessPatternKind::Strided, 16384, 4096);
  EXPECT_EQ(gen.next(), kBase + 0);
  EXPECT_EQ(gen.next(), kBase + 4096);
  EXPECT_EQ(gen.next(), kBase + 8192);
}

TEST(AccessPattern, AllAddressesWithinWorkingSet) {
  for (auto kind :
       {AccessPatternKind::Sequential, AccessPatternKind::RandomUniform,
        AccessPatternKind::PointerChase, AccessPatternKind::Zipf,
        AccessPatternKind::GraphTraversal}) {
    auto gen = make(kind, 64 * 1024);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t addr = gen.next();
      EXPECT_GE(addr, kBase) << to_string(kind);
      EXPECT_LT(addr, kBase + 64 * 1024) << to_string(kind);
    }
  }
}

TEST(AccessPattern, PointerChaseIsAHamiltonianCycle) {
  // Working set of 16 slots (1 KiB / 64B): the chase must visit every slot
  // exactly once before repeating.
  auto gen = make(AccessPatternKind::PointerChase, 1024);
  std::set<std::uint64_t> first_cycle;
  for (int i = 0; i < 16; ++i) first_cycle.insert(gen.next());
  EXPECT_EQ(first_cycle.size(), 16u);
  // Second cycle revisits the same slots.
  std::set<std::uint64_t> second_cycle;
  for (int i = 0; i < 16; ++i) second_cycle.insert(gen.next());
  EXPECT_EQ(first_cycle, second_cycle);
}

TEST(AccessPattern, PointerChaseWalksRngPermutation) {
  // The cycle is perm[0] -> perm[1] -> ... -> perm[n-1] -> perm[0] for the
  // permutation the generator's RNG draws, entered after perm[0].
  const stats::Rng rng(99);
  AccessPatternGen gen({.kind = AccessPatternKind::PointerChase,
                        .working_set_bytes = 640 * 64},
                       kBase, rng);
  stats::Rng same = rng;
  const auto perm = same.permutation(640);
  for (std::size_t i = 1; i <= 2 * perm.size(); ++i) {
    ASSERT_EQ(gen.next(), kBase + perm[i % perm.size()] * 64) << i;
  }
}

TEST(AccessPattern, ZipfSkewsTowardHotSlots) {
  auto gen = make(AccessPatternKind::Zipf, 64 * 1024);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[gen.next()];
  // The hottest address should absorb far more than the uniform share
  // (uniform share over 1024 slots would be ~20).
  int hottest = 0;
  for (const auto& [addr, count] : counts) hottest = std::max(hottest, count);
  EXPECT_GT(hottest, 500);
}

TEST(AccessPattern, RandomUniformCoversSpaceEvenly) {
  auto gen = make(AccessPatternKind::RandomUniform, 4096);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 51200; ++i) ++counts[gen.next()];
  // 512 distinct 8-byte slots; each expected ~100 draws.
  EXPECT_GT(counts.size(), 500u);
  for (const auto& [addr, count] : counts) {
    EXPECT_LT(count, 200);  // no hotspot
  }
}

TEST(AccessPattern, GraphTraversalMixesRunsAndJumps) {
  AccessPatternParams params;
  params.kind = AccessPatternKind::GraphTraversal;
  params.working_set_bytes = 1024 * 1024;
  params.stride_bytes = 8;
  params.jump_prob = 0.3;
  AccessPatternGen gen(params, kBase, stats::Rng(9));
  int sequential_steps = 0, jumps = 0;
  std::uint64_t prev = gen.next();
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t cur = gen.next();
    if (cur == prev + 8 || (cur == kBase && prev != kBase)) {
      ++sequential_steps;
    } else {
      ++jumps;
    }
    prev = cur;
  }
  EXPECT_NEAR(static_cast<double>(jumps) / 10000.0, 0.3, 0.05);
  EXPECT_GT(sequential_steps, 6000);
}

TEST(AccessPattern, DeterministicForSeed) {
  AccessPatternParams params;
  params.kind = AccessPatternKind::RandomUniform;
  params.working_set_bytes = 8192;
  AccessPatternGen a(params, kBase, stats::Rng(5));
  AccessPatternGen b(params, kBase, stats::Rng(5));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(AccessPattern, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(AccessPatternKind::Sequential), "sequential");
  EXPECT_STREQ(to_string(AccessPatternKind::Strided), "strided");
  EXPECT_STREQ(to_string(AccessPatternKind::RandomUniform), "random-uniform");
  EXPECT_STREQ(to_string(AccessPatternKind::PointerChase), "pointer-chase");
  EXPECT_STREQ(to_string(AccessPatternKind::Zipf), "zipf");
  EXPECT_STREQ(to_string(AccessPatternKind::GraphTraversal),
               "graph-traversal");
}

}  // namespace
}  // namespace perspector::sim
