#include "dtw/trend_normalize.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dtw/dtw.hpp"
#include "stats/rng.hpp"

namespace perspector::dtw {
namespace {

TEST(Resample, ValidatesInput) {
  EXPECT_THROW(resample_to_percentile_grid(std::vector<double>{}, 10),
               std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(resample_to_percentile_grid(one, 1), std::invalid_argument);
}

TEST(Resample, SingleValueReplicates) {
  const std::vector<double> one{7.0};
  const auto out = resample_to_percentile_grid(one, 5);
  ASSERT_EQ(out.size(), 5u);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(Resample, PreservesEndpoints) {
  const std::vector<double> xs{1.0, 5.0, 2.0, 9.0};
  const auto out = resample_to_percentile_grid(xs, 7);
  EXPECT_DOUBLE_EQ(out.front(), 1.0);
  EXPECT_DOUBLE_EQ(out.back(), 9.0);
}

TEST(Resample, LinearInterpolation) {
  const std::vector<double> xs{0.0, 10.0};
  const auto out = resample_to_percentile_grid(xs, 5);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 2.5);
  EXPECT_DOUBLE_EQ(out[2], 5.0);
  EXPECT_DOUBLE_EQ(out[4], 10.0);
}

TEST(Resample, IdentityWhenGridMatches) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0};
  const auto out = resample_to_percentile_grid(xs, 5);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(out[i], xs[i]);
}

TEST(NormalizeTrend, RejectsNegativeDeltas) {
  const std::vector<double> xs{1.0, -2.0, 3.0};
  EXPECT_THROW(normalize_trend(xs), std::invalid_argument);
  EXPECT_THROW(
      normalize_trend(xs, 101, TrendNormalization::CumulativeShare),
      std::invalid_argument);
}

TEST(NormalizeTrend, MeanRelativeFlatSeriesIsFifty) {
  const std::vector<double> flat(50, 42.0);
  for (double v : normalize_trend(flat, 21)) EXPECT_DOUBLE_EQ(v, 50.0);
}

TEST(NormalizeTrend, MeanRelativeZeroSeriesIsFifty) {
  const std::vector<double> zeros(50, 0.0);
  for (double v : normalize_trend(zeros, 21)) EXPECT_DOUBLE_EQ(v, 50.0);
}

TEST(NormalizeTrend, MeanRelativeBurstBendsCurve) {
  std::vector<double> xs(10, 1.0);
  xs[0] = 100.0;  // startup burst
  const auto out = normalize_trend(xs, 10);
  EXPECT_GT(out.front(), 85.0);  // burst saturates toward 100
  EXPECT_LT(out.back(), 50.0);   // steady tail is below its inflated mean
}

TEST(NormalizeTrend, MeanRelativeBounded) {
  stats::Rng rng(71);
  std::vector<double> xs(80);
  for (double& v : xs) v = rng.uniform(0.0, 1e9);
  for (double v : normalize_trend(xs)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 100.0);
  }
}

TEST(NormalizeTrend, TwoFlatSeriesAtDifferentLevelsAreEquivalent) {
  // Trend is about shape, not level: steady-low and steady-high workloads
  // must have zero trend distance.
  const std::vector<double> low(40, 5.0);
  const std::vector<double> high(40, 5000.0);
  const auto a = normalize_trend(low);
  const auto b = normalize_trend(high);
  EXPECT_DOUBLE_EQ(dtw::dtw_distance(a, b), 0.0);
}

TEST(NormalizeTrend, CumulativeShareIsMonotone) {
  stats::Rng rng(72);
  std::vector<double> xs(60);
  for (double& v : xs) v = rng.uniform(0.0, 10.0);
  const auto out =
      normalize_trend(xs, 101, TrendNormalization::CumulativeShare);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i], out[i - 1] - 1e-9);
  }
  EXPECT_NEAR(out.back(), 100.0, 1e-9);
}

TEST(NormalizeTrend, CumulativeShareZeroTotalIsDiagonal) {
  const std::vector<double> zeros(10, 0.0);
  const auto out =
      normalize_trend(zeros, 11, TrendNormalization::CumulativeShare);
  EXPECT_NEAR(out.front(), 10.0, 1.0);  // first sample's share
  EXPECT_NEAR(out.back(), 100.0, 1e-9);
}

TEST(NormalizeTrend, RankPercentileUsesOwnEcdf) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const auto out =
      normalize_trend(xs, 4, TrendNormalization::RankPercentile);
  EXPECT_DOUBLE_EQ(out[0], 25.0);
  EXPECT_DOUBLE_EQ(out[3], 100.0);
}

TEST(NormalizeTrend, GridLengthIndependentOfInputLength) {
  const std::vector<double> short_series{1.0, 2.0, 3.0};
  std::vector<double> long_series(1000, 1.0);
  EXPECT_EQ(normalize_trend(short_series, 101).size(), 101u);
  EXPECT_EQ(normalize_trend(long_series, 101).size(), 101u);
}

TEST(NormalizeTrends, BatchMatchesSingle) {
  const std::vector<std::vector<double>> series{{1.0, 2.0}, {5.0, 5.0}};
  const auto batch = normalize_trends(series, 11);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], normalize_trend(series[0], 11));
  EXPECT_EQ(batch[1], normalize_trend(series[1], 11));
}

TEST(TrendNormalizationNames, AllDistinct) {
  EXPECT_STREQ(to_string(TrendNormalization::MeanRelative), "mean-relative");
  EXPECT_STREQ(to_string(TrendNormalization::RankPercentile),
               "rank-percentile");
  EXPECT_STREQ(to_string(TrendNormalization::CumulativeShare),
               "cumulative-share");
}

// Property: all three modes keep output in [0, 100] for random inputs.
class TrendModeBounds
    : public ::testing::TestWithParam<TrendNormalization> {};

TEST_P(TrendModeBounds, OutputBounded) {
  stats::Rng rng(73);
  for (int round = 0; round < 5; ++round) {
    std::vector<double> xs(37);
    for (double& v : xs) v = rng.uniform(0.0, 1e6);
    for (double v : normalize_trend(xs, 51, GetParam())) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 100.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, TrendModeBounds,
                         ::testing::Values(TrendNormalization::MeanRelative,
                                           TrendNormalization::RankPercentile,
                                           TrendNormalization::CumulativeShare));

}  // namespace
}  // namespace perspector::dtw
