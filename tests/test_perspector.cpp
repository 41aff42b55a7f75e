#include "core/perspector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/rng.hpp"

namespace perspector::core {
namespace {

// Builds a synthetic suite with n workloads, m counters, random values and
// simple series.
CounterMatrix synthetic_suite(const std::string& name, std::size_t n,
                              std::uint64_t seed, double scale = 1.0) {
  stats::Rng rng(seed);
  std::vector<std::string> workloads, counters;
  la::Matrix values(n, 6);
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t c = 0; c < 6; ++c) {
    counters.push_back(std::string("c").append(std::to_string(c)));
  }
  for (std::size_t w = 0; w < n; ++w) {
    workloads.push_back(std::string("w").append(std::to_string(w)));
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < 6; ++c) {
      values(w, c) = scale * rng.uniform();
      std::vector<double> s(20);
      for (double& v : s) v = rng.uniform(0.0, 10.0);
      per_counter.push_back(s);
    }
    series.push_back(per_counter);
  }
  return CounterMatrix(name, workloads, counters, values, series);
}

TEST(Perspector, RejectsEmptySuiteList) {
  EXPECT_THROW(Perspector().score_suites({}), std::invalid_argument);
}

TEST(Perspector, ScoresAllFourMetrics) {
  const auto suite = synthetic_suite("s", 8, 1);
  const SuiteScores scores = Perspector().score_suite(suite);
  EXPECT_EQ(scores.suite, "s");
  EXPECT_NE(scores.cluster, 0.0);
  EXPECT_GT(scores.trend, 0.0);
  EXPECT_GT(scores.coverage, 0.0);
  EXPECT_GT(scores.spread, 0.0);
  EXPECT_EQ(scores.cluster_detail.per_k.size(), 6u);  // k = 2..7
  EXPECT_EQ(scores.trend_detail.per_event.size(), 6u);
}

TEST(Perspector, TrendSkippableViaOptions) {
  PerspectorOptions options;
  options.compute_trend = false;
  const auto scores =
      Perspector(options).score_suite(synthetic_suite("s", 6, 2));
  EXPECT_DOUBLE_EQ(scores.trend, 0.0);
  EXPECT_TRUE(scores.trend_detail.per_event.empty());
}

TEST(Perspector, TrendSkippedWhenNoSeries) {
  stats::Rng rng(3);
  la::Matrix values(6, 4);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 4; ++c) values(r, c) = rng.uniform();
  }
  const CounterMatrix bare("bare", {"a", "b", "c", "d", "e", "f"},
                           {"c0", "c1", "c2", "c3"}, values);
  const auto scores = Perspector().score_suite(bare);
  EXPECT_DOUBLE_EQ(scores.trend, 0.0);
  EXPECT_GT(scores.coverage, 0.0);
}

TEST(Perspector, JointNormalizationCouplesSuites) {
  // A small-magnitude suite scored alone vs scored next to a huge-magnitude
  // suite: its coverage shrinks because the shared range expands.
  const auto small = synthetic_suite("small", 8, 4, 1.0);
  const auto big = synthetic_suite("big", 8, 5, 1000.0);
  const Perspector engine;
  const double alone = engine.score_suite(small).coverage;
  const double together = engine.score_suites({small, big})[0].coverage;
  EXPECT_LT(together, alone / 10.0);
}

TEST(Perspector, ClusterAndTrendUnaffectedByCompanions) {
  // Cluster and trend are intrinsic to a suite; scoring next to another
  // suite must not change them.
  const auto a = synthetic_suite("a", 8, 6);
  const auto b = synthetic_suite("b", 8, 7);
  const Perspector engine;
  const auto alone = engine.score_suite(a);
  const auto together = engine.score_suites({a, b})[0];
  EXPECT_DOUBLE_EQ(alone.cluster, together.cluster);
  EXPECT_DOUBLE_EQ(alone.trend, together.trend);
}

TEST(Perspector, FocusedScoringRestrictsCounters) {
  const auto suite = synthetic_suite("s", 8, 8);
  PerspectorOptions options;
  options.events = EventGroup::custom("two", {"c0", "c5"});
  const auto scores = Perspector(options).score_suite(suite);
  EXPECT_EQ(scores.trend_detail.per_event.size(), 2u);
}

TEST(Perspector, FocusedScoringUnknownCountersThrow) {
  const auto suite = synthetic_suite("s", 8, 9);
  PerspectorOptions options;
  options.events = EventGroup::custom("nope", {"missing-counter"});
  EXPECT_THROW(Perspector(options).score_suite(suite),
               std::invalid_argument);
}

TEST(Perspector, ResultOrderMatchesInput) {
  const auto a = synthetic_suite("first", 6, 10);
  const auto b = synthetic_suite("second", 7, 11);
  const auto scores = Perspector().score_suites({a, b});
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].suite, "first");
  EXPECT_EQ(scores[1].suite, "second");
}

TEST(Perspector, Deterministic) {
  const auto suite = synthetic_suite("s", 8, 12);
  const Perspector engine;
  const auto a = engine.score_suite(suite);
  const auto b = engine.score_suite(suite);
  EXPECT_DOUBLE_EQ(a.cluster, b.cluster);
  EXPECT_DOUBLE_EQ(a.trend, b.trend);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_DOUBLE_EQ(a.spread, b.spread);
}

}  // namespace
}  // namespace perspector::core
