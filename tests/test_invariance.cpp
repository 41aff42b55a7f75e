// Metric invariance properties — things the math guarantees regardless of
// data, checked on randomized suites:
//   * permuting counter columns never changes any score;
//   * permuting workload rows never changes coverage, spread, or trend
//     (cluster uses seeded k-means++, which draws candidates by row index,
//     so only its invariance-to-columns is guaranteed);
//   * rescaling one counter by a positive constant never changes any score
//     (per-column min-max and mean-relative normalization are scale-free).
#include <gtest/gtest.h>

#include <numeric>

#include "core/counter_matrix.hpp"
#include "core/perspector.hpp"
#include "stats/rng.hpp"

namespace perspector::core {
namespace {

CounterMatrix random_suite(std::uint64_t seed, std::size_t n = 9,
                           std::size_t m = 6) {
  stats::Rng rng(seed);
  std::vector<std::string> workloads, counters;
  la::Matrix values(n, m);
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t c = 0; c < m; ++c) {
    counters.push_back(std::string("c").append(std::to_string(c)));
  }
  for (std::size_t w = 0; w < n; ++w) {
    workloads.push_back(std::string("w").append(std::to_string(w)));
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < m; ++c) {
      values(w, c) = rng.uniform(0.0, 1e6);
      std::vector<double> s(24);
      for (double& v : s) v = rng.uniform(0.0, 100.0);
      per_counter.push_back(s);
    }
    series.push_back(per_counter);
  }
  return CounterMatrix("inv", workloads, counters, values, series);
}

class Invariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Invariance, CounterPermutationChangesNothing) {
  const auto suite = random_suite(GetParam());
  std::vector<std::size_t> perm(suite.num_counters());
  std::iota(perm.begin(), perm.end(), 0);
  stats::Rng rng(GetParam() + 1);
  const auto shuffled_order = rng.permutation(perm.size());

  const auto permuted = suite.select_counters(
      std::vector<std::size_t>(shuffled_order.begin(), shuffled_order.end()));
  const Perspector engine;
  const auto a = engine.score_suite(suite);
  const auto b = engine.score_suite(permuted);
  EXPECT_NEAR(a.cluster, b.cluster, 1e-9);
  EXPECT_NEAR(a.trend, b.trend, 1e-9);
  EXPECT_NEAR(a.coverage, b.coverage, 1e-9);
  EXPECT_NEAR(a.spread, b.spread, 1e-9);
}

TEST_P(Invariance, WorkloadPermutationPreservesRowwiseScores) {
  const auto suite = random_suite(GetParam() + 100);
  stats::Rng rng(GetParam() + 2);
  const auto order = rng.permutation(suite.num_workloads());
  const auto permuted = suite.select_workloads(
      std::vector<std::size_t>(order.begin(), order.end()));
  const Perspector engine;
  const auto a = engine.score_suite(suite);
  const auto b = engine.score_suite(permuted);
  EXPECT_NEAR(a.coverage, b.coverage, 1e-9);
  EXPECT_NEAR(a.spread, b.spread, 1e-9);
  EXPECT_NEAR(a.trend, b.trend, 1e-9);
}

TEST_P(Invariance, CounterRescalingChangesNothing) {
  const auto suite = random_suite(GetParam() + 200);
  // Scale counter 2's aggregates and series by 1e4.
  la::Matrix values = suite.values();
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < suite.num_workloads(); ++w) {
    values(w, 2) *= 1e4;
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < suite.num_counters(); ++c) {
      auto s = suite.series(w, c);
      if (c == 2) {
        for (double& v : s) v *= 1e4;
      }
      per_counter.push_back(std::move(s));
    }
    series.push_back(std::move(per_counter));
  }
  const CounterMatrix scaled("inv", suite.workload_names(),
                             suite.counter_names(), values, series);
  const Perspector engine;
  const auto a = engine.score_suite(suite);
  const auto b = engine.score_suite(scaled);
  EXPECT_NEAR(a.cluster, b.cluster, 1e-9);
  EXPECT_NEAR(a.trend, b.trend, 1e-6);
  EXPECT_NEAR(a.coverage, b.coverage, 1e-9);
  EXPECT_NEAR(a.spread, b.spread, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Invariance,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace perspector::core
