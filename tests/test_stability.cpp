#include "core/stability.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/rng.hpp"

namespace perspector::core {
namespace {

CounterMatrix synthetic_suite(std::size_t n, std::uint64_t seed,
                              bool with_outlier = false) {
  stats::Rng rng(seed);
  std::vector<std::string> workloads, counters;
  la::Matrix values(n, 5);
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t c = 0; c < 5; ++c) {
    counters.push_back(std::string("c").append(std::to_string(c)));
  }
  for (std::size_t w = 0; w < n; ++w) {
    workloads.push_back(std::string("w").append(std::to_string(w)));
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < 5; ++c) {
      values(w, c) = (with_outlier && w == 0) ? 100.0 : rng.uniform();
      std::vector<double> s(10);
      for (double& v : s) v = rng.uniform(1.0, 5.0);
      per_counter.push_back(s);
    }
    series.push_back(per_counter);
  }
  return CounterMatrix("stab", workloads, counters, values, series);
}

TEST(Bootstrap, ValidatesInput) {
  EXPECT_THROW(bootstrap_scores(synthetic_suite(3, 1)),
               std::invalid_argument);
  StabilityOptions zero;
  zero.resamples = 0;
  EXPECT_THROW(bootstrap_scores(synthetic_suite(8, 1), zero),
               std::invalid_argument);
}

TEST(Bootstrap, ReportShape) {
  StabilityOptions options;
  options.resamples = 20;
  options.include_trend = false;
  const auto report = bootstrap_scores(synthetic_suite(10, 2), options);
  EXPECT_EQ(report.resamples, 20u);
  // Point estimates match a direct evaluation.
  PerspectorOptions scoring;
  scoring.compute_trend = false;
  const auto direct = Perspector(scoring).score_suite(synthetic_suite(10, 2));
  EXPECT_DOUBLE_EQ(report.cluster.point, direct.cluster);
  EXPECT_DOUBLE_EQ(report.coverage.point, direct.coverage);
  // Percentile band is ordered.
  EXPECT_LE(report.coverage.p05, report.coverage.p95);
  EXPECT_GE(report.coverage.stddev, 0.0);
}

TEST(Bootstrap, Deterministic) {
  StabilityOptions options;
  options.resamples = 10;
  options.include_trend = false;
  options.seed = 7;
  const auto a = bootstrap_scores(synthetic_suite(8, 3), options);
  const auto b = bootstrap_scores(synthetic_suite(8, 3), options);
  EXPECT_DOUBLE_EQ(a.coverage.mean, b.coverage.mean);
  EXPECT_DOUBLE_EQ(a.cluster.stddev, b.cluster.stddev);
}

TEST(Bootstrap, IncludesTrendWhenAsked) {
  StabilityOptions options;
  options.resamples = 5;
  options.include_trend = true;
  const auto report = bootstrap_scores(synthetic_suite(6, 4), options);
  EXPECT_GT(report.trend.point, 0.0);
  EXPECT_GE(report.trend.p95, report.trend.p05);
}

TEST(Bootstrap, OutlierSuiteIsLessStable) {
  // A suite whose coverage hinges on one extreme workload shows a much
  // wider coverage distribution than a homogeneous one.
  StabilityOptions options;
  options.resamples = 60;
  options.include_trend = false;
  const auto stable = bootstrap_scores(synthetic_suite(12, 5, false), options);
  const auto fragile = bootstrap_scores(synthetic_suite(12, 5, true), options);
  EXPECT_GT(fragile.coverage.stddev / std::max(fragile.coverage.mean, 1e-12),
            stable.coverage.stddev / std::max(stable.coverage.mean, 1e-12));
}

TEST(Jackknife, ValidatesInput) {
  EXPECT_THROW(jackknife_scores(synthetic_suite(4, 6)),
               std::invalid_argument);
}

TEST(Jackknife, ReportShape) {
  const auto suite = synthetic_suite(8, 7);
  const auto report = jackknife_scores(suite, {}, /*include_trend=*/false);
  EXPECT_EQ(report.workloads.size(), 8u);
  EXPECT_EQ(report.influence.size(), 8u);
  EXPECT_THROW(report.most_influential(4), std::invalid_argument);
  EXPECT_LT(report.most_influential(2), 8u);
}

TEST(Jackknife, OutlierIsMostInfluentialOnCoverage) {
  const auto suite = synthetic_suite(10, 8, /*with_outlier=*/true);
  const auto report = jackknife_scores(suite, {}, /*include_trend=*/false);
  // Removing w0 (the 100x outlier) changes coverage the most.
  EXPECT_EQ(report.most_influential(2), 0u);
  // And removing it *reduces* coverage.
  EXPECT_LT(report.influence[0][2], 0.0);
}

}  // namespace
}  // namespace perspector::core
