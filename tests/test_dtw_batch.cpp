// The batched DTW kernel (dtw_distances: one SIMD lane per pair) promises
// distances BIT-identical to the full-table kernel dtw_with_path, whatever
// the batch size, band, shape, lane position or neighbours. Every
// comparison is on the exact bit pattern (std::bit_cast), not an epsilon.
// The portable body is tested directly through dtw::detail, so hosts that
// dispatch to the AVX2 body cover both.
//
// The workspace test drives prime + append/add/drop through the batched
// path at the serving benchmark's live-suite shape and holds every cached
// distance to a cold prime and to dtw_with_path, at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/scoring_workspace.hpp"
#include "core/trend_score.hpp"
#include "dtw/dtw.hpp"
#include "dtw/trend_normalize.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "stats/rng.hpp"

namespace perspector::dtw {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<double> random_series(std::uint64_t seed, std::size_t n) {
  stats::Rng rng(seed);
  std::vector<double> s(n);
  for (double& v : s) v = rng.uniform(-5.0, 5.0);
  return s;
}

DtwOptions banded(std::optional<double> fraction) {
  DtwOptions options;
  options.band_fraction = fraction;
  return options;
}

const std::vector<std::optional<double>> kBands = {std::nullopt, 0.05, 0.1,
                                                   0.3, 1.0};

// Runs `pairs` through the dispatched kernel and, in batches of at most
// kBatchLanes consecutive same-shape pairs, through the scalar body; both
// must equal dtw_with_path bit for bit.
void expect_batch_matches_full_table(const std::vector<SeriesPair>& pairs,
                                     const DtwOptions& options) {
  const std::vector<double> fast = dtw_distances(pairs, options);
  ASSERT_EQ(fast.size(), pairs.size());
  std::vector<double> scalar(pairs.size());
  for (std::size_t start = 0; start < pairs.size();) {
    std::size_t end = start + 1;
    while (end < pairs.size() && end - start < kBatchLanes &&
           pairs[end].a.size() == pairs[start].a.size() &&
           pairs[end].b.size() == pairs[start].b.size()) {
      ++end;
    }
    detail::dtw_batch_scalar(
        std::span<const SeriesPair>(pairs).subspan(start, end - start),
        options, scalar.data() + start);
    start = end;
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const double full = dtw_with_path(pairs[p].a, pairs[p].b, options).distance;
    EXPECT_EQ(bits(fast[p]), bits(full)) << "pair " << p;
    EXPECT_EQ(bits(scalar[p]), bits(full)) << "pair " << p << " (scalar)";
  }
}

TEST(DtwBatch, EveryBatchSizeAndBandMatchesFullTableBitwise) {
  std::vector<std::vector<double>> series;
  for (std::uint64_t s = 0; s < 48; ++s) {
    series.push_back(random_series(100 + s, 101));
  }
  for (std::size_t count : {1u, 3u, 4u, 5u, 15u, 16u, 17u, 47u}) {
    std::vector<SeriesPair> pairs;
    for (std::size_t p = 0; p < count; ++p) {
      pairs.push_back({series[p], series[(p * 7 + 1) % series.size()]});
    }
    for (const auto& band : kBands) {
      SCOPED_TRACE(testing::Message() << count << " pairs, band "
                                      << band.value_or(-1.0));
      expect_batch_matches_full_table(pairs, banded(band));
    }
  }
}

TEST(DtwBatch, UnequalLengthsAndMixedShapesMatchBitwise) {
  const auto a = random_series(31, 73);
  const auto b = random_series(32, 19);
  const auto c = random_series(33, 40);
  // Shapes change between consecutive pairs, so batches end early.
  const std::vector<SeriesPair> pairs = {{a, b}, {b, a}, {a, b}, {c, b},
                                         {c, b}, {a, c}, {b, b}, {a, b}};
  for (const auto& band : kBands) {
    SCOPED_TRACE(testing::Message() << "band " << band.value_or(-1.0));
    // 0.05 and 0.1 are narrower than the length differences: the band
    // widens to reach the corner, as in dtw_with_path.
    expect_batch_matches_full_table(pairs, banded(band));
  }
}

TEST(DtwBatch, OneElementSeriesMatchBitwise) {
  const std::vector<double> one{2.5};
  const std::vector<double> other{-1.25};
  const auto many = random_series(41, 17);
  for (const auto& band : kBands) {
    expect_batch_matches_full_table(
        {{one, many}, {many, one}, {one, one}, {one, other}}, banded(band));
  }
}

TEST(DtwBatch, ConstantSeriesAllTiesMatchBitwise) {
  // Constant series make every cell's local cost equal, so up, left and
  // diag tie all over the table.
  const std::vector<double> zeros(101, 0.0);
  const std::vector<double> threes(101, 3.0);
  const std::vector<double> short_threes(64, 3.0);
  const auto noise = random_series(42, 101);
  for (const auto& band : kBands) {
    expect_batch_matches_full_table({{zeros, zeros},
                                     {threes, threes},
                                     {zeros, threes},
                                     {threes, noise},
                                     {noise, zeros}},
                                    banded(band));
    expect_batch_matches_full_table({{short_threes, threes}}, banded(band));
  }
  EXPECT_EQ(bits(dtw_distances(std::vector<SeriesPair>{{zeros, zeros}})[0]),
            bits(0.0));
}

TEST(DtwBatch, LaneIndependence) {
  // A pair's bits do not depend on its lane or on its neighbours: alone,
  // then in every lane of a full batch among two different neighbour sets
  // (random, and constant series of large magnitude).
  const auto x = random_series(51, 101);
  const auto y = random_series(52, 101);
  std::vector<std::vector<double>> noisy;
  std::vector<std::vector<double>> flat;
  for (std::uint64_t s = 0; s < 2 * kBatchLanes; ++s) {
    noisy.push_back(random_series(200 + s, 101));
    flat.push_back(std::vector<double>(101, 1e6 * static_cast<double>(s)));
  }
  for (const auto& band : kBands) {
    const DtwOptions options = banded(band);
    const std::vector<SeriesPair> alone = {{x, y}};
    double scalar_alone = 0.0;
    detail::dtw_batch_scalar(alone, options, &scalar_alone);
    const double fast_alone = dtw_distances(alone, options)[0];
    EXPECT_EQ(bits(fast_alone), bits(scalar_alone));
    for (const auto* neighbours : {&noisy, &flat}) {
      for (std::size_t lane = 0; lane < kBatchLanes; ++lane) {
        std::vector<SeriesPair> batch;
        for (std::size_t l = 0; l < kBatchLanes; ++l) {
          batch.push_back(l == lane ? SeriesPair{x, y}
                                    : SeriesPair{(*neighbours)[2 * l],
                                                 (*neighbours)[2 * l + 1]});
        }
        std::vector<double> scalar(kBatchLanes);
        detail::dtw_batch_scalar(batch, options, scalar.data());
        EXPECT_EQ(bits(dtw_distances(batch, options)[lane]), bits(fast_alone))
            << "lane " << lane;
        EXPECT_EQ(bits(scalar[lane]), bits(fast_alone)) << "lane " << lane;
      }
    }
  }
}

TEST(DtwBatch, CountsRealPairsAndTheirBandCells) {
  obs::Counter& calls = obs::counter("dtw.calls");
  obs::Counter& cells = obs::counter("dtw.cells");
  obs::Counter& full_calls = obs::counter("dtw.full_table.calls");
  obs::Counter& full_cells = obs::counter("dtw.full_table.cells");
  std::vector<std::vector<double>> series;
  for (std::uint64_t s = 0; s < 6; ++s) series.push_back(random_series(s, 50));
  std::vector<SeriesPair> pairs;  // 17 pairs: one full batch and one lane
  for (std::size_t p = 0; p < 17; ++p) {
    pairs.push_back({series[p % 6], series[(p + 1) % 6]});
  }
  const DtwOptions options = banded(0.1);

  const std::uint64_t full_cells_before = full_cells.value();
  for (const SeriesPair& pair : pairs) (void)dtw_with_path(pair.a, pair.b, options);
  const std::uint64_t expected_cells = full_cells.value() - full_cells_before;

  const std::uint64_t calls_before = calls.value();
  const std::uint64_t cells_before = cells.value();
  const std::uint64_t full_calls_before = full_calls.value();
  (void)dtw_distances(pairs, options);
  EXPECT_EQ(calls.value() - calls_before, pairs.size());
  EXPECT_EQ(cells.value() - cells_before, expected_cells);
  EXPECT_EQ(full_calls.value(), full_calls_before);
}

TEST(DtwBatch, ErrorsMatchOnePairKernel) {
  const std::vector<double> empty;
  const auto a = random_series(71, 10);
  EXPECT_THROW((void)dtw_distances(std::vector<SeriesPair>{{a, empty}}),
               std::invalid_argument);
  EXPECT_THROW((void)dtw_distances(std::vector<SeriesPair>{{a, a}},
                                   banded(1.5)),
               std::invalid_argument);
  EXPECT_TRUE(dtw_distances({}).empty());
}

}  // namespace
}  // namespace perspector::dtw

namespace perspector::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

constexpr std::size_t kCounters = 14;

// Series of workload `w` (named "w<w>"), `samples` long: a seeded
// cumulative count per counter whose rate changes every few samples, so
// every workload-counter trend differs. A longer series extends the
// shorter one, as append_samples does.
std::vector<std::vector<double>> workload_series(std::size_t w,
                                                 std::size_t samples) {
  std::vector<std::vector<double>> per_counter;
  for (std::size_t c = 0; c < kCounters; ++c) {
    stats::Rng rng(1000 + w * kCounters + c);
    std::vector<double> s(samples);
    double level = 0.0;
    double rate = 1.0;
    for (std::size_t t = 0; t < samples; ++t) {
      if (t % 7 == 0) rate = rng.uniform(1.0, 100.0);
      level += rate * rng.uniform(0.5, 1.5);
      s[t] = level;
    }
    per_counter.push_back(std::move(s));
  }
  return per_counter;
}

CounterMatrix live_suite(const std::vector<std::size_t>& workloads,
                         std::size_t appended_to, std::size_t extra) {
  std::vector<std::string> names;
  std::vector<std::string> counters;
  for (std::size_t c = 0; c < kCounters; ++c) {
    counters.push_back(std::string("c").append(std::to_string(c)));
  }
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w : workloads) {
    names.push_back(std::string("w").append(std::to_string(w)));
    auto s = workload_series(w, w == appended_to ? 50 + extra : 50);
    std::vector<double> totals;
    for (const auto& counter : s) {
      double total = 0.0;
      for (double v : counter) total += v;
      totals.push_back(total);
    }
    values.append_row(totals);
    series.push_back(std::move(s));
  }
  return CounterMatrix("live", names, counters, values, series);
}

TEST(DtwBatchWorkspace, DeltaOpsAtLiveSuiteShapeMatchColdPrimeAndFullTable) {
  ThreadCountGuard guard;
  const TrendScoreOptions options;  // 101-point trends, no band
  std::vector<std::size_t> initial(48);
  for (std::size_t w = 0; w < initial.size(); ++w) initial[w] = w;
  // After the deltas: w5 got 5 more samples, w48 was added, w0 dropped.
  std::vector<std::size_t> final_rows(initial.begin() + 1, initial.end());
  final_rows.push_back(48);
  const CounterMatrix before = live_suite(initial, 48, 0);
  const CounterMatrix appended = live_suite(initial, 5, 5);
  std::vector<std::size_t> grown = initial;
  grown.push_back(48);
  const CounterMatrix added = live_suite(grown, 5, 5);
  const CounterMatrix after = live_suite(final_rows, 5, 5);

  // The oracle: every pair's full-table distance, independent of the
  // batched kernel. A two-row view's per-counter TrendScore is exactly
  // that one distance.
  const std::size_t n = after.num_workloads();
  std::vector<std::vector<double>> trends(n * kCounters);
  for (std::size_t t = 0; t < trends.size(); ++t) {
    trends[t] = dtw::normalize_trend(after.series(t / kCounters, t % kCounters),
                                     options.grid_points, options.normalization);
  }
  std::vector<double> oracle;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t c = 0; c < kCounters; ++c) {
        oracle.push_back(dtw::dtw_with_path(trends[i * kCounters + c],
                                            trends[j * kCounters + c])
                             .distance);
      }
    }
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    par::set_thread_count(threads);
    ScoringWorkspace warm;
    warm.prime_trend(before, options);
    ASSERT_TRUE(warm.trend_usable());
    ASSERT_TRUE(warm.upsert_row(appended, 5, options));  // strip of 47
    ASSERT_TRUE(warm.upsert_row(added, 48, options));    // strip of 48
    ASSERT_TRUE(warm.remove_row("w0"));
    ScoringWorkspace cold;
    cold.prime_trend(after, options);

    std::vector<std::size_t> warm_rows, cold_rows;
    ASSERT_TRUE(warm.map_rows(after, options, warm_rows));
    ASSERT_TRUE(cold.map_rows(after, options, cold_rows));
    const TrendScoreResult warm_score = warm.trend_score_from_cache(warm_rows);
    const TrendScoreResult cold_score = cold.trend_score_from_cache(cold_rows);
    EXPECT_EQ(bits(warm_score.score), bits(cold_score.score));
    EXPECT_EQ(bits(warm_score.score), bits(trend_score(after, options).score));

    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const std::vector<std::size_t> warm_pair{warm_rows[i], warm_rows[j]};
        const std::vector<std::size_t> cold_pair{cold_rows[i], cold_rows[j]};
        const auto w = warm.trend_score_from_cache(warm_pair).per_event;
        const auto c = cold.trend_score_from_cache(cold_pair).per_event;
        for (std::size_t k = 0; k < kCounters; ++k, ++p) {
          ASSERT_EQ(bits(w[k]), bits(oracle[p]))
              << "warm (" << i << ", " << j << ") counter " << k;
          ASSERT_EQ(bits(c[k]), bits(oracle[p]))
              << "cold (" << i << ", " << j << ") counter " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace perspector::core
