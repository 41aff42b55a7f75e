// Ingest throughput bench: MB/s of the aggregate-CSV file reader over a
// large synthetic counter file.
//
//   bench_ingest_throughput [--mb N] [--out <path>]
//
// The input is generated deterministically into the system temp
// directory (deleted on exit): one row per synthetic workload, the 14
// Table-IV counter columns, formulaic values — so two runs on the same
// flags parse byte-identical files. One untimed warm-up pass checks the
// parsed shape, then the best of three timed passes is reported; CI
// diffs two runs of this bench with perf_check, so the committed number
// must be the repeatable one.
//
// The one metric, ingest_mbps, uses the `_mbps` suffix (higher is better
// under perf_check).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/io.hpp"
#include "sim/pmu.hpp"

namespace {

using namespace perspector;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRepeats = 3;

struct Generated {
  std::uint64_t bytes = 0;
  std::uint64_t rows = 0;
};

/// Writes ~`target_bytes` of aggregate CSV (header + whole rows, so the
/// file is always well-formed) and returns the exact size and row count.
Generated generate_csv(const std::string& path, std::uint64_t target_bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot open '" << path << "' for writing\n";
    std::exit(1);
  }
  const std::vector<std::string> counter_names = sim::pmu_event_names();
  std::string header = "workload";
  for (const auto& counter : counter_names) {
    header += ',';
    header += counter;
  }
  header += '\n';
  out << header;
  std::uint64_t written = header.size();
  std::uint64_t rows = 0;

  const std::size_t counters = counter_names.size();
  std::string buffer;
  buffer.reserve(1 << 20);
  char cell[64];
  for (; written < target_bytes; ++rows) {
    const std::uint64_t w = rows;
    std::snprintf(cell, sizeof cell, "workload-%08llu",
                  static_cast<unsigned long long>(w));
    buffer += cell;
    for (std::size_t c = 0; c < counters; ++c) {
      // Formulaic, deterministic, varied in magnitude and fraction —
      // exercises the full float-parse path without any RNG state.
      const std::uint64_t mix =
          (w * 1315423911ull + c * 2654435761ull) % 999999937ull;
      std::snprintf(cell, sizeof cell, ",%llu.%03llu",
                    static_cast<unsigned long long>(mix),
                    static_cast<unsigned long long>((w * 7 + c * 13) % 1000));
      buffer += cell;
    }
    buffer += '\n';
    if (buffer.size() >= (1 << 20)) {
      out << buffer;
      written += buffer.size();
      buffer.clear();
    }
  }
  out << buffer;
  written += buffer.size();
  out.flush();
  if (!out) {
    std::cerr << "write failed for '" << path << "'\n";
    std::exit(1);
  }
  return {written, rows};
}

/// One warm-up pass (shape-checked, then freed so the timed passes see a
/// clean allocator) + the best of kRepeats timed passes, in MB/s.
double measure_mbps(const std::string& path, const Generated& input,
                    std::size_t counters) {
  const auto read = [&path] {
    return core::read_aggregates_csv("bench", path);
  };
  {
    const core::CounterMatrix data = read();
    if (data.num_workloads() != input.rows ||
        data.num_counters() != counters) {
      std::cerr << "parsed " << data.num_workloads() << " x "
                << data.num_counters() << ", expected " << input.rows
                << " x " << counters << "\n";
      std::exit(1);
    }
  }
  double best_ms = 0.0;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    const core::CounterMatrix data = read();
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return static_cast<double>(input.bytes) / 1e6 / (best_ms / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t megabytes = 256;
  std::string out_path = "results/bench_ingest.json";
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mb" && i + 1 < argc) {
      megabytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (megabytes == 0) megabytes = 1;
  const auto config = bench::parse_args(static_cast<int>(positional.size()),
                                        positional.data());

  const std::string path =
      (std::filesystem::temp_directory_path() / "perspector_bench_ingest.csv")
          .string();
  std::cerr << "generating " << megabytes << " MB synthetic aggregate CSV at "
            << path << "...\n";
  const Generated input = generate_csv(path, megabytes << 20);
  std::cerr << "  " << input.bytes << " bytes written\n";
  const double mbps =
      measure_mbps(path, input, sim::pmu_event_names().size());
  std::filesystem::remove(path);

  std::cout << "Aggregate-CSV ingest throughput (" << megabytes
            << " MB, best of " << kRepeats
            << "): " << core::format_double(mbps, 1) << " MB/s\n";

  bench::BenchReport report("ingest_throughput", config);
  report.add_metric("ingest_mbps", mbps);
  report.write(out_path);
  return 0;
}
