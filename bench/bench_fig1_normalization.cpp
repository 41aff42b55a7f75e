// Regenerates paper Fig. 1: normalization of the LLC-miss trend for five
// workloads (PageRank, HashJoin, BFS, BTree, OpenSSL).
//
// Shows why normalization is needed: the raw series differ by orders of
// magnitude in level and by 4x in length; after normalization every series
// lives on a common percentile grid with y bounded to [0, 100].
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/counter_matrix.hpp"
#include "dtw/dtw.hpp"
#include "dtw/trend_normalize.hpp"
#include "sim/pmu.hpp"
#include "stats/descriptive.hpp"

int main(int argc, char** argv) {
  using namespace perspector;
  const auto config = bench::parse_args(argc, argv);
  const auto machine = sim::MachineConfig::xeon_e2186g();

  const auto data = core::collect_counters(
      suites::demo_five(bench::build_options(config)), machine,
      bench::sim_options(config));
  const std::size_t llc_misses = data.counter_index("LLC-load-misses");

  std::cout << "Fig. 1 — LLC-miss trend normalization for five workloads\n\n";
  std::printf("%-10s %8s %14s %14s %14s\n", "workload", "samples", "mean/intv",
              "max/intv", "total");
  std::vector<std::vector<double>> raw;
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    const auto& series = data.series(w, llc_misses);
    raw.push_back(series);
    const auto s = stats::summarize(series);
    std::printf("%-10s %8zu %14.1f %14.1f %14.0f\n",
                data.workload_names()[w].c_str(), series.size(), s.mean, s.max,
                s.mean * static_cast<double>(series.size()));
  }

  std::cout << "\nNormalized curves (y: bounded [0,100]; x: 21 execution-time "
               "percentile points):\n";
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    const auto curve = dtw::normalize_trend(raw[w], 21);
    std::printf("%-10s:", data.workload_names()[w].c_str());
    for (double v : curve) std::printf(" %5.1f", v);
    std::printf("\n");
  }

  std::cout << "\nPairwise DTW distances, raw vs normalized (the raw column "
               "is dominated\nby whichever workload has the largest absolute "
               "counts — the Fig. 1 problem):\n";
  std::printf("%-22s %14s %14s\n", "pair", "raw-DTW", "normalized-DTW");
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (std::size_t j = i + 1; j < raw.size(); ++j) {
      const double d_raw = dtw::dtw_distance(raw[i], raw[j]);
      const double d_norm = dtw::dtw_distance(dtw::normalize_trend(raw[i]),
                                              dtw::normalize_trend(raw[j]));
      const std::string pair =
          data.workload_names()[i] + "-" + data.workload_names()[j];
      std::printf("%-22s %14.0f %14.1f\n", pair.c_str(), d_raw, d_norm);
    }
  }
  return 0;
}
