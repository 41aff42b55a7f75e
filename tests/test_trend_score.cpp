#include "core/trend_score.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/rng.hpp"

namespace perspector::core {
namespace {

// Builds a suite whose single counter has the given per-workload series.
CounterMatrix suite_with_series(
    const std::vector<std::vector<double>>& series_per_workload) {
  std::vector<std::string> workloads;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < series_per_workload.size(); ++w) {
    workloads.push_back(std::string("w").append(std::to_string(w)));
    double total = 0.0;
    for (double v : series_per_workload[w]) total += v;
    values.append_row(std::vector<double>{total});
    series.push_back({series_per_workload[w]});
  }
  return CounterMatrix("suite", workloads, {"c0"}, values, series);
}

std::vector<double> phase_series(std::size_t length, std::size_t step_at,
                                 double low, double high) {
  std::vector<double> s(length, low);
  for (std::size_t i = step_at; i < length; ++i) s[i] = high;
  return s;
}

TEST(TrendScore, RequiresSeries) {
  la::Matrix values(2, 1, 1.0);
  const CounterMatrix no_series("s", {"a", "b"}, {"c"}, values);
  EXPECT_THROW(trend_score(no_series), std::logic_error);
}

TEST(TrendScore, RequiresTwoWorkloads) {
  const auto suite = suite_with_series({{1.0, 2.0}});
  EXPECT_THROW(trend_score(suite), std::invalid_argument);
}

TEST(TrendScore, IdenticalSeriesScoreZero) {
  const std::vector<double> s(40, 3.0);
  const auto result = trend_score(suite_with_series({s, s, s}));
  EXPECT_DOUBLE_EQ(result.score, 0.0);
}

TEST(TrendScore, FlatSeriesAtDifferentLevelsScoreZero) {
  // Trend measures shape, not level.
  const std::vector<double> low(40, 1.0);
  const std::vector<double> high(40, 1000.0);
  const auto result = trend_score(suite_with_series({low, high}));
  EXPECT_DOUBLE_EQ(result.score, 0.0);
}

TEST(TrendScore, DifferentPhasePositionsScorePositive) {
  const auto early = phase_series(60, 10, 1.0, 100.0);
  const auto late = phase_series(60, 50, 1.0, 100.0);
  const auto result = trend_score(suite_with_series({early, late}));
  EXPECT_GT(result.score, 100.0);
}

TEST(TrendScore, PhasedBeatsSteadySuite) {
  stats::Rng rng(91);
  // Steady suite: flat series with small noise.
  std::vector<std::vector<double>> steady;
  for (int w = 0; w < 4; ++w) {
    std::vector<double> s(50);
    for (double& v : s) v = 100.0 + rng.uniform(-5.0, 5.0);
    steady.push_back(s);
  }
  // Phased suite: steps at different positions.
  std::vector<std::vector<double>> phased;
  for (int w = 0; w < 4; ++w) {
    phased.push_back(
        phase_series(50, 10 + static_cast<std::size_t>(w) * 10, 10.0, 200.0));
  }
  const double steady_score = trend_score(suite_with_series(steady)).score;
  const double phased_score = trend_score(suite_with_series(phased)).score;
  EXPECT_GT(phased_score, 5.0 * steady_score);
}

TEST(TrendScore, PerEventAveraging) {
  // Two counters: one identical everywhere (TScore 0), one phased.
  const auto flat = std::vector<double>(30, 5.0);
  const auto stepped = phase_series(30, 15, 1.0, 50.0);

  la::Matrix values{{150.0, 400.0}, {150.0, 400.0}};
  std::vector<std::vector<std::vector<double>>> series{
      {flat, stepped}, {flat, phase_series(30, 5, 1.0, 50.0)}};
  const CounterMatrix suite("s", {"a", "b"}, {"flat", "stepped"}, values,
                            series);
  const auto result = trend_score(suite);
  ASSERT_EQ(result.per_event.size(), 2u);
  EXPECT_DOUBLE_EQ(result.per_event[0], 0.0);
  EXPECT_GT(result.per_event[1], 0.0);
  // Eq. 8: mean of per-event scores.
  EXPECT_NEAR(result.score, (result.per_event[0] + result.per_event[1]) / 2.0,
              1e-9);
}

TEST(TrendScore, GridPointsControlResolution) {
  const auto early = phase_series(60, 10, 1.0, 100.0);
  const auto late = phase_series(60, 50, 1.0, 100.0);
  const auto suite = suite_with_series({early, late});
  TrendScoreOptions coarse, fine;
  coarse.grid_points = 11;
  fine.grid_points = 201;
  // Scores scale roughly with grid length (sum over path).
  const double c = trend_score(suite, coarse).score;
  const double f = trend_score(suite, fine).score;
  EXPECT_GT(f, 5.0 * c);
}

TEST(TrendScore, BandedDtwUpperBoundsFull) {
  const auto early = phase_series(60, 10, 1.0, 100.0);
  const auto late = phase_series(60, 50, 1.0, 100.0);
  const auto suite = suite_with_series({early, late});
  TrendScoreOptions banded;
  banded.dtw_band_fraction = 0.1;
  EXPECT_GE(trend_score(suite, banded).score,
            trend_score(suite).score - 1e-9);
}

TEST(TrendScore, NormalizationModeSelectable) {
  const auto early = phase_series(60, 10, 1.0, 100.0);
  const auto late = phase_series(60, 50, 1.0, 100.0);
  const auto suite = suite_with_series({early, late});
  for (auto mode : {dtw::TrendNormalization::MeanRelative,
                    dtw::TrendNormalization::RankPercentile,
                    dtw::TrendNormalization::CumulativeShare}) {
    TrendScoreOptions options;
    options.normalization = mode;
    EXPECT_GE(trend_score(suite, options).score, 0.0);
  }
}

}  // namespace
}  // namespace perspector::core
