#include "dtw/dtw.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats/rng.hpp"

namespace perspector::dtw {
namespace {

TEST(Dtw, RejectsEmptySeries) {
  const std::vector<double> a{1.0};
  EXPECT_THROW(dtw_distance(std::vector<double>{}, a), std::invalid_argument);
  EXPECT_THROW(dtw_distance(a, std::vector<double>{}), std::invalid_argument);
}

TEST(Dtw, IdenticalSeriesZeroDistance) {
  const std::vector<double> a{1.0, 2.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(dtw_distance(a, a), 0.0);
  // The optimal path of a series against itself is the diagonal.
  EXPECT_EQ(dtw_with_path(a, a).path.size(), a.size());
}

TEST(Dtw, SingleElementSeries) {
  const std::vector<double> a{3.0};
  const std::vector<double> b{1.0, 2.0, 5.0};
  // Every element of b matches the single element of a.
  EXPECT_DOUBLE_EQ(dtw_distance(a, b), 2.0 + 1.0 + 2.0);
}

TEST(Dtw, KnownSmallCase) {
  // a = [0, 0, 1], b = [0, 1, 1]: warping aligns the step, cost 0.
  const std::vector<double> a{0.0, 0.0, 1.0};
  const std::vector<double> b{0.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(dtw_distance(a, b), 0.0);
}

TEST(Dtw, ShiftedStepAlignsCheaply) {
  // A step at position 2 vs position 7 of an otherwise identical series:
  // DTW absorbs the shift, Euclidean-style matching would not.
  std::vector<double> a(10, 0.0), b(10, 0.0);
  for (std::size_t i = 2; i < 10; ++i) a[i] = 1.0;
  for (std::size_t i = 7; i < 10; ++i) b[i] = 1.0;
  double pointwise = 0.0;
  for (std::size_t i = 0; i < 10; ++i) pointwise += std::abs(a[i] - b[i]);
  const double warped = dtw_distance(a, b);
  EXPECT_LT(warped, pointwise);
}

TEST(Dtw, SymmetricDistance) {
  const std::vector<double> a{1.0, 3.0, 2.0, 5.0};
  const std::vector<double> b{2.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(dtw_distance(a, b),
                   dtw_distance(b, a));
}

TEST(Dtw, PathEndpointsAndMonotonicity) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{1.0, 3.0, 4.0};
  const DtwPathResult r = dtw_with_path(a, b);
  ASSERT_FALSE(r.path.empty());
  EXPECT_EQ(r.path.front(), (std::pair<std::size_t, std::size_t>{0, 0}));
  EXPECT_EQ(r.path.back(), (std::pair<std::size_t, std::size_t>{3, 2}));
  for (std::size_t s = 1; s < r.path.size(); ++s) {
    const auto [pi, pj] = r.path[s - 1];
    const auto [ci, cj] = r.path[s];
    EXPECT_GE(ci, pi);
    EXPECT_GE(cj, pj);
    EXPECT_LE(ci - pi, 1u);
    EXPECT_LE(cj - pj, 1u);
    EXPECT_TRUE(ci > pi || cj > pj);
  }
}

TEST(Dtw, PathCostMatchesDistance) {
  const std::vector<double> a{0.0, 5.0, 2.0, 8.0, 1.0};
  const std::vector<double> b{1.0, 4.0, 4.0, 7.0};
  const DtwPathResult r = dtw_with_path(a, b);
  double cost = 0.0;
  for (const auto& [i, j] : r.path) cost += std::abs(a[i] - b[j]);
  EXPECT_NEAR(cost, r.distance, 1e-12);
}

TEST(Dtw, BandedMatchesFullWhenWide) {
  stats::Rng rng(61);
  std::vector<double> a(40), b(40);
  for (double& v : a) v = rng.uniform();
  for (double& v : b) v = rng.uniform();
  DtwOptions wide;
  wide.band_fraction = 1.0;
  EXPECT_DOUBLE_EQ(dtw_distance(a, b),
                   dtw_distance(a, b, wide));
}

TEST(Dtw, BandedIsUpperBoundedByFull) {
  stats::Rng rng(62);
  std::vector<double> a(50), b(50);
  for (double& v : a) v = rng.uniform();
  for (double& v : b) v = rng.uniform();
  DtwOptions narrow;
  narrow.band_fraction = 0.05;
  // Constraining the warp can only increase the cost.
  EXPECT_GE(dtw_distance(a, b, narrow),
            dtw_distance(a, b) - 1e-12);
}

TEST(Dtw, BandCoversLengthDifference) {
  // Band narrower than the length difference must still connect corners.
  const std::vector<double> a(20, 1.0);
  const std::vector<double> b(5, 1.0);
  DtwOptions narrow;
  narrow.band_fraction = 0.01;
  EXPECT_NO_THROW(dtw_distance(a, b, narrow));
}

TEST(Dtw, InvalidBandFractionThrows) {
  const std::vector<double> a{1.0, 2.0};
  DtwOptions bad;
  bad.band_fraction = 1.5;
  EXPECT_THROW(dtw_distance(a, a, bad), std::invalid_argument);
}

TEST(MeanPairwiseDtw, RequiresTwoSeries) {
  EXPECT_THROW(mean_pairwise_dtw({{1.0, 2.0}}), std::invalid_argument);
}

TEST(MeanPairwiseDtw, KnownAverage) {
  // Three constant series at 0, 1, 3 (length 2 each): pair distances are
  // 2*1, 2*3, 2*2 -> mean 4.
  const std::vector<std::vector<double>> series{
      {0.0, 0.0}, {1.0, 1.0}, {3.0, 3.0}};
  EXPECT_DOUBLE_EQ(mean_pairwise_dtw(series), 4.0);
}

// Property: DTW distance is always <= the pointwise L1 distance for
// equal-length series (the identity alignment is one admissible path).
class DtwUpperBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DtwUpperBound, NeverExceedsPointwiseL1) {
  stats::Rng rng(GetParam());
  std::vector<double> a(30), b(30);
  for (double& v : a) v = rng.uniform(0.0, 10.0);
  for (double& v : b) v = rng.uniform(0.0, 10.0);
  double l1 = 0.0;
  for (std::size_t i = 0; i < 30; ++i) l1 += std::abs(a[i] - b[i]);
  EXPECT_LE(dtw_distance(a, b), l1 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtwUpperBound,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace perspector::dtw
