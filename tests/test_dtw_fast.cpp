// The one-pair dtw_distance (a batch of one through the batched kernel)
// and the ScoringWorkspace cache both promise *bit-identical* results to
// the paths they replace. These tests
// hold them to it: every comparison is on the exact bit pattern
// (std::bit_cast), not an epsilon.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/scoring_workspace.hpp"
#include "core/trend_score.hpp"
#include "dtw/dtw.hpp"
#include "obs/metrics.hpp"
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

// The one-pair call must reproduce the full-table kernel's distance
// exactly, for every band width and length combination.
void expect_bitwise_match(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const DtwOptions& options) {
  const double fast = dtw_distance(a, b, options);
  const DtwPathResult full = dtw_with_path(a, b, options);
  EXPECT_EQ(bits(fast), bits(full.distance))
      << "distance differs: fast=" << fast << " full=" << full.distance;
}

TEST(DtwFast, UnbandedMatchesFullTableBitwise) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    expect_bitwise_match(random_series(seed, 64),
                         random_series(seed + 100, 64), {});
  }
}

TEST(DtwFast, BandedMatchesFullTableBitwise) {
  for (double fraction : {0.05, 0.1, 0.3, 1.0}) {
    DtwOptions options;
    options.band_fraction = fraction;
    for (std::uint64_t seed : {21u, 22u, 23u}) {
      expect_bitwise_match(random_series(seed, 80),
                           random_series(seed + 100, 80), options);
    }
  }
}

TEST(DtwFast, UnequalLengthsMatchBitwise) {
  const auto a = random_series(31, 73);
  const auto b = random_series(32, 19);
  expect_bitwise_match(a, b, {});
  expect_bitwise_match(b, a, {});
  DtwOptions banded;
  banded.band_fraction = 0.1;  // narrower than the length difference
  expect_bitwise_match(a, b, banded);
  expect_bitwise_match(b, a, banded);
}

TEST(DtwFast, SingleElementSeriesMatchBitwise) {
  const std::vector<double> one{2.5};
  const auto many = random_series(41, 17);
  expect_bitwise_match(one, many, {});
  expect_bitwise_match(many, one, {});
  expect_bitwise_match(one, one, {});
}

TEST(DtwFast, DistanceOnlyCallNeverBuildsFullTable) {
  obs::Counter& full_calls = obs::counter("dtw.full_table.calls");
  obs::Counter& calls = obs::counter("dtw.calls");
  const auto a = random_series(61, 30);
  const auto b = random_series(62, 30);

  const std::uint64_t full_before = full_calls.value();
  const std::uint64_t calls_before = calls.value();
  (void)dtw_distance(a, b);
  EXPECT_EQ(full_calls.value(), full_before);
  EXPECT_EQ(calls.value(), calls_before + 1);

  (void)dtw_with_path(a, b);
  EXPECT_EQ(full_calls.value(), full_before + 1);
}

}  // namespace
}  // namespace perspector::dtw

namespace perspector::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Suite with two counters whose series have per-workload phase structure.
CounterMatrix phased_suite(std::size_t workloads) {
  stats::Rng rng(901);
  std::vector<std::string> names;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < workloads; ++w) {
    names.push_back(std::string("w").append(std::to_string(w)));
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < 2; ++c) {
      std::vector<double> s(48, 1.0);
      const std::size_t step = 4 + (w * 5 + c * 3) % 40;
      for (std::size_t t = step; t < s.size(); ++t) {
        s[t] = 50.0 + rng.uniform(0.0, 1.0);
      }
      per_counter.push_back(std::move(s));
    }
    double t0 = 0.0, t1 = 0.0;
    for (double v : per_counter[0]) t0 += v;
    for (double v : per_counter[1]) t1 += v;
    values.append_row(std::vector<double>{t0, t1});
    series.push_back(std::move(per_counter));
  }
  return CounterMatrix("phased", names, {"c0", "c1"}, values, series);
}

void expect_trend_bitwise_equal(const TrendScoreResult& cached,
                                const TrendScoreResult& direct) {
  EXPECT_EQ(bits(cached.score), bits(direct.score));
  ASSERT_EQ(cached.per_event.size(), direct.per_event.size());
  for (std::size_t c = 0; c < cached.per_event.size(); ++c) {
    EXPECT_EQ(bits(cached.per_event[c]), bits(direct.per_event[c]));
  }
}

TEST(ScoringWorkspaceCache, FullSuiteLookupMatchesDirectBitwise) {
  const CounterMatrix suite = phased_suite(8);
  const TrendScoreOptions options;
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, options);
  ASSERT_TRUE(workspace.trend_primed());

  std::vector<std::size_t> rows;
  ASSERT_TRUE(workspace.map_rows(suite, options, rows));
  expect_trend_bitwise_equal(workspace.trend_score_from_cache(rows),
                             trend_score(suite, options));
}

TEST(ScoringWorkspaceCache, SubsetSliceMatchesDirectBitwise) {
  const CounterMatrix suite = phased_suite(10);
  TrendScoreOptions options;
  options.dtw_band_fraction = 0.2;
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, options);

  const std::vector<std::size_t> pick{0, 2, 5, 6, 9};
  const CounterMatrix subset = suite.select_workloads(pick);
  std::vector<std::size_t> rows;
  ASSERT_TRUE(workspace.map_rows(subset, options, rows));
  EXPECT_EQ(rows, pick);
  expect_trend_bitwise_equal(workspace.trend_score_from_cache(rows),
                             trend_score(subset, options));
}

TEST(ScoringWorkspaceCache, BootstrapResampleWithRepeatsMatchesBitwise) {
  const CounterMatrix suite = phased_suite(8);
  const TrendScoreOptions options;
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, options);

  // Unsorted, with repeats — the shape every bootstrap resample has.
  const std::vector<std::size_t> picks{5, 1, 5, 7, 0, 1, 3, 5};
  const CounterMatrix resampled = suite.select_workloads(picks);
  std::vector<std::size_t> rows;
  ASSERT_TRUE(workspace.map_rows(resampled, options, rows));
  expect_trend_bitwise_equal(workspace.trend_score_from_cache(rows),
                             trend_score(resampled, options));
}

TEST(ScoringWorkspaceCache, DifferentOptionsMiss) {
  const CounterMatrix suite = phased_suite(6);
  TrendScoreOptions primed;
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, primed);

  TrendScoreOptions banded;
  banded.dtw_band_fraction = 0.1;
  std::vector<std::size_t> rows;
  EXPECT_FALSE(workspace.map_rows(suite, banded, rows));

  TrendScoreOptions coarse;
  coarse.grid_points = 21;
  EXPECT_FALSE(workspace.map_rows(suite, coarse, rows));
}

TEST(ScoringWorkspaceCache, ForeignSeriesMiss) {
  const CounterMatrix suite = phased_suite(6);
  const TrendScoreOptions options;
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, options);

  // Same workload names and counters, different series content: the
  // element-wise trend verification must reject the lookup.
  CounterMatrix other = phased_suite(6);
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < other.num_workloads(); ++w) {
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < other.num_counters(); ++c) {
      auto s = other.series(w, c);
      s[3] += 17.0;
      per_counter.push_back(std::move(s));
    }
    series.push_back(std::move(per_counter));
  }
  const CounterMatrix tampered("phased", other.workload_names(),
                               other.counter_names(), other.values(), series);
  std::vector<std::size_t> rows;
  EXPECT_FALSE(workspace.map_rows(tampered, options, rows));
}

TEST(ScoringWorkspaceCache, CountsHitsAndPrimes) {
  obs::Counter& primes = obs::counter("cache.primes");
  const std::uint64_t primes_before = primes.value();
  const CounterMatrix suite = phased_suite(6);
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, {});
  workspace.prime_trend(suite, {});  // write-once: second call is a no-op
  EXPECT_EQ(primes.value(), primes_before + 1);
}

}  // namespace
}  // namespace perspector::core
