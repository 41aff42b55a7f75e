// Computational-cost characterization of the Perspector metrics themselves
// (google-benchmark): how each score scales with workload count n, counter
// count m, and series length. Not a paper figure — this is the tool-cost
// table an adopter would want.
//
// Two extra modes beyond the google-benchmark sweep:
//   --kernels [out.json]  before/after timing of the hot-kernel rewrite
//                         (full-table vs batched DTW, per-k vs hoisted
//                         silhouette distances, direct vs cached subset
//                         re-scoring), written as machine-readable JSON
//                         (default results/bench_kernels.json);
//   --smoke               CI guard: scores synthetic SPEC'17 and exits
//                         non-zero if the distance-only flow ever built a
//                         full DTW table or the trend cache never hit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/silhouette.hpp"
#include "core/cluster_score.hpp"
#include "core/coverage_score.hpp"
#include "core/perspector.hpp"
#include "core/scoring_workspace.hpp"
#include "core/spread_score.hpp"
#include "core/trend_score.hpp"
#include "dtw/dtw.hpp"
#include "dtw/trend_normalize.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "sampling/latin_hypercube.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "suites/suite_factory.hpp"

namespace {

using namespace perspector;

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  stats::Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform();
  }
  return m;
}

std::vector<double> random_series(std::size_t length, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> s(length);
  for (double& v : s) v = rng.uniform(0.0, 1000.0);
  return s;
}

void BM_ClusterScore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix data = random_matrix(n, 14, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cluster_score_from_normalized(data));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClusterScore)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_CoverageScore(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const la::Matrix data = random_matrix(32, m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::coverage_score(data));
  }
}
BENCHMARK(BM_CoverageScore)->Arg(4)->Arg(8)->Arg(14)->Arg(28);

void BM_SpreadScore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix data = random_matrix(n, 14, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::spread_score(data));
  }
}
BENCHMARK(BM_SpreadScore)->Arg(8)->Arg(32)->Arg(128);

void BM_DtwDistance(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto a = random_series(len, 4);
  const auto b = random_series(len, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distance(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DtwDistance)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_DtwBanded(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto a = random_series(len, 6);
  const auto b = random_series(len, 7);
  dtw::DtwOptions options;
  options.band_fraction = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distance(a, b, options));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(100)->Arg(400);

// One full batch of the batched kernel: kBatchLanes pairs of 101-point
// series (the default trend grid), one SIMD lane per pair. BM_DtwDistance
// runs one pair through the same kernel with the other lanes padding, so
// its /100 row is about one batch's time and the per-pair cost here is
// that divided by kBatchLanes.
void BM_DtwBatch(benchmark::State& state) {
  std::vector<std::vector<double>> series;
  for (std::size_t s = 0; s <= dtw::kBatchLanes; ++s) {
    series.push_back(random_series(101, 20 + s));
  }
  std::vector<dtw::SeriesPair> pairs;
  for (std::size_t p = 0; p < dtw::kBatchLanes; ++p) {
    pairs.push_back({series[p], series[p + 1]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distances(pairs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_DtwBatch);

void BM_TrendNormalize(benchmark::State& state) {
  const auto series = random_series(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::normalize_trend(series));
  }
}
BENCHMARK(BM_TrendNormalize)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LatinHypercube(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampling::latin_hypercube(samples, 14));
  }
}
BENCHMARK(BM_LatinHypercube)->Arg(8)->Arg(64)->Arg(512);

// ---------------------------------------------------------------------------
// --kernels: before/after timing of the hot-kernel rewrite.
// ---------------------------------------------------------------------------

// Median-of-repeats wall time of `body`, in microseconds. Each repeat runs
// `body` enough times to amortize clock noise on these sub-millisecond
// kernels.
template <typename F>
double time_us(F&& body, std::size_t inner = 3, std::size_t repeats = 7) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < inner; ++i) body();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count() /
        static_cast<double>(inner));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Synthetic suite with phase-structured series — the shape the TrendScore
// is designed for, so timings reflect realistic DTW inputs.
core::CounterMatrix kernel_suite(std::size_t workloads, std::size_t counters,
                                 std::size_t series_length) {
  stats::Rng rng(777);
  std::vector<std::string> names;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < workloads; ++w) {
    names.push_back(std::string("w").append(std::to_string(w)));
    std::vector<std::vector<double>> per_counter;
    std::vector<double> totals;
    for (std::size_t c = 0; c < counters; ++c) {
      std::vector<double> s(series_length);
      const std::size_t step =
          series_length / 8 + (w * 13 + c * 7) % (series_length / 2);
      for (std::size_t t = 0; t < series_length; ++t) {
        s[t] = (t < step ? 10.0 : 200.0) + rng.uniform(-1.0, 1.0);
      }
      double total = 0.0;
      for (double v : s) total += v;
      totals.push_back(total);
      per_counter.push_back(std::move(s));
    }
    values.append_row(totals);
    series.push_back(std::move(per_counter));
  }
  return core::CounterMatrix("kernel-sweep", names,
                             [&] {
                               std::vector<std::string> cs;
                               for (std::size_t c = 0; c < counters; ++c) {
                                 cs.push_back(std::string("c").append(
                                     std::to_string(c)));
                               }
                               return cs;
                             }(),
                             values, series);
}

// The pre-rewrite TrendScore: identical structure to core::trend_score but
// every pair runs the full-table dtw_with_path kernel — the code path
// distance-only DTW used before the rolling and batched kernels.
double trend_score_full_table(const core::CounterMatrix& suite,
                              const core::TrendScoreOptions& options) {
  dtw::DtwOptions dtw_options;
  dtw_options.band_fraction = options.dtw_band_fraction;
  double total = 0.0;
  for (std::size_t c = 0; c < suite.num_counters(); ++c) {
    std::vector<std::vector<double>> normalized;
    for (std::size_t w = 0; w < suite.num_workloads(); ++w) {
      normalized.push_back(dtw::normalize_trend(
          suite.series(w, c), options.grid_points, options.normalization));
    }
    const std::size_t n = normalized.size();
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++pairs) {
        sum += dtw::dtw_with_path(normalized[i], normalized[j], dtw_options)
                   .distance;
      }
    }
    total += sum / static_cast<double>(pairs);
  }
  return total / static_cast<double>(suite.num_counters());
}

int run_kernels(const std::string& out_path) {
  // Single-thread timings: the speedups claimed here are kernel-level, not
  // parallel-scaling, numbers.
  par::set_thread_count(1);
  const std::size_t counters = 4;
  const std::size_t series_length = 400;
  const core::TrendScoreOptions trend_options;

  std::ostringstream json;
  json.precision(3);
  json << std::fixed;
  json << "{\n  \"config\": {\"counters\": " << counters
       << ", \"series_length\": " << series_length
       << ", \"grid_points\": " << trend_options.grid_points
       << ", \"threads\": 1},\n  \"sweep\": [\n";

  // Suite sizes bracketing real suites (SPEC CPU2017 has 43 workloads).
  const std::vector<std::size_t> sizes{24, 32, 48};
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::size_t n = sizes[s];
    const core::CounterMatrix suite = kernel_suite(n, counters, series_length);
    std::cerr << "kernel sweep: n=" << n << "\n";

    // TrendScore: full-table kernel vs batched kernel vs cache lookup.
    const double trend_full = time_us(
        [&] { benchmark::DoNotOptimize(trend_score_full_table(suite, trend_options)); },
        1);
    const double trend_fast = time_us(
        [&] { benchmark::DoNotOptimize(core::trend_score(suite, trend_options)); }, 1);
    core::ScoringWorkspace workspace;
    workspace.prime_trend(suite, trend_options);
    const double trend_cached = time_us([&] {
      std::vector<std::size_t> rows;
      workspace.map_rows(suite, trend_options, rows);
      benchmark::DoNotOptimize(workspace.trend_score_from_cache(rows));
    });

    // Subset re-scoring: direct trend_score on the sub-suite vs slicing the
    // primed full-suite cache.
    std::vector<std::size_t> pick;
    for (std::size_t i = 0; i < n; i += 2) pick.push_back(i);
    const core::CounterMatrix subset = suite.select_workloads(pick);
    const double subset_direct = time_us(
        [&] { benchmark::DoNotOptimize(core::trend_score(subset, trend_options)); }, 1);
    const double subset_cached = time_us([&] {
      std::vector<std::size_t> rows;
      workspace.map_rows(subset, trend_options, rows);
      benchmark::DoNotOptimize(workspace.trend_score_from_cache(rows));
    });

    // ClusterScore k-sweep: per-k silhouette distance rebuilds vs one
    // hoisted pairwise-distance matrix shared across the sweep. The
    // k-means labelings are precomputed — identical work in both paths.
    const la::Matrix points = random_matrix(n, 14, 99);
    std::vector<std::vector<std::size_t>> labelings;
    for (std::size_t k = 2; k + 2 <= n; ++k) {
      cluster::KMeansConfig config;
      config.k = k;
      labelings.push_back(cluster::kmeans(points, config).labels);
    }
    // These loops are far cheaper than the trend timings, so extra repeats
    // are nearly free and squeeze out scheduler noise.
    const double sweep_per_k = time_us(
        [&] {
          for (std::size_t k = 2; k + 2 <= n; ++k) {
            benchmark::DoNotOptimize(
                cluster::silhouette_score(points, labelings[k - 2], k));
          }
        },
        5, 15);
    const double sweep_hoisted = time_us(
        [&] {
          const la::Matrix dist = la::pairwise_distances(points);
          for (std::size_t k = 2; k + 2 <= n; ++k) {
            benchmark::DoNotOptimize(cluster::silhouette_score_from_distances(
                dist, labelings[k - 2], k));
          }
        },
        5, 15);

    json << "    {\"workloads\": " << n << ",\n"
         << "     \"trend\": {\"full_table_us\": " << trend_full
         << ", \"fast_us\": " << trend_fast
         << ", \"cached_us\": " << trend_cached
         << ", \"fast_speedup\": " << trend_full / trend_fast
         << ", \"cached_speedup\": " << trend_full / trend_cached << "},\n"
         << "     \"cluster_sweep\": {\"per_k_us\": " << sweep_per_k
         << ", \"hoisted_us\": " << sweep_hoisted
         << ", \"speedup\": " << sweep_per_k / sweep_hoisted << "},\n"
         << "     \"subset_rescore\": {\"direct_us\": " << subset_direct
         << ", \"cached_us\": " << subset_cached
         << ", \"speedup\": " << subset_direct / subset_cached << "}}"
         << (s + 1 < sizes.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << json.str();
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --smoke: CI guard over the obs counters of a real scoring run.
// ---------------------------------------------------------------------------

int run_smoke() {
  const auto machine = sim::MachineConfig::xeon_e2186g();
  suites::SuiteBuildOptions build;
  build.instructions_per_workload = 200'000;
  sim::SimOptions sim_opts;
  sim_opts.sample_interval = 2'000;
  const core::CounterMatrix spec17 =
      core::collect_counters(suites::spec17(build), machine, sim_opts);

  obs::Counter& full_calls = obs::counter("dtw.full_table.calls");
  obs::Counter& dtw_calls = obs::counter("dtw.calls");
  obs::Counter& hits = obs::counter("cache.hits");
  const std::uint64_t full_before = full_calls.value();
  const std::uint64_t calls_before = dtw_calls.value();
  const std::uint64_t hits_before = hits.value();

  // Score the suite and a subset together — the distance-only flow plus
  // one guaranteed cache slice.
  core::Perspector engine{core::PerspectorOptions{}};
  core::ScoringWorkspace workspace;
  std::vector<std::size_t> half;
  for (std::size_t i = 0; i < spec17.num_workloads(); i += 2) half.push_back(i);
  const auto scores = engine.score_suites(
      {spec17, spec17.select_workloads(half)}, workspace);

  int failures = 0;
  if (scores.front().trend <= 0.0) {
    std::cerr << "SMOKE FAIL: SPEC'17 trend score not positive\n";
    ++failures;
  }
  if (dtw_calls.value() == calls_before) {
    std::cerr << "SMOKE FAIL: scoring made no DTW calls (dtw.calls)\n";
    ++failures;
  }
  if (full_calls.value() != full_before) {
    std::cerr << "SMOKE FAIL: distance-only scoring built "
              << (full_calls.value() - full_before)
              << " full DTW tables (dtw.full_table.calls)\n";
    ++failures;
  }
  if (hits.value() != hits_before + 2) {
    std::cerr << "SMOKE FAIL: expected 2 trend cache hits (full + subset), "
              << "got " << (hits.value() - hits_before) << "\n";
    ++failures;
  }
  if (failures == 0) {
    std::cout << "smoke OK: dtw.calls +"
              << (dtw_calls.value() - calls_before)
              << ", dtw.full_table.calls +0, cache.hits +2\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels") {
      const std::string out =
          i + 1 < argc ? argv[i + 1] : "results/bench_kernels.json";
      return run_kernels(out);
    }
    if (arg == "--smoke") return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
