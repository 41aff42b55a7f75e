#include "core/cluster_score.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/rng.hpp"

namespace perspector::core {
namespace {

CounterMatrix make_suite(const la::Matrix& values) {
  std::vector<std::string> workloads, counters;
  for (std::size_t w = 0; w < values.rows(); ++w) {
    workloads.push_back(std::string("w").append(std::to_string(w)));
  }
  for (std::size_t c = 0; c < values.cols(); ++c) {
    counters.push_back(std::string("c").append(std::to_string(c)));
  }
  return CounterMatrix("suite", workloads, counters, values);
}

la::Matrix blobs(std::size_t per_blob, double separation,
                 std::uint64_t seed) {
  stats::Rng rng(seed);
  la::Matrix m(2 * per_blob, 3);
  for (std::size_t i = 0; i < per_blob; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      m(i, c) = rng.normal(0.0, 0.3);
      m(per_blob + i, c) = rng.normal(separation, 0.3);
    }
  }
  return m;
}

TEST(ClusterScore, RequiresFourWorkloads) {
  EXPECT_THROW(cluster_score(make_suite(la::Matrix(3, 2, 1.0))),
               std::invalid_argument);
  EXPECT_NO_THROW(cluster_score(make_suite(blobs(2, 5.0, 1))));
}

TEST(ClusterScore, PerKSweepShape) {
  const auto result = cluster_score(make_suite(blobs(5, 5.0, 2)));
  // k runs 2..n-1 = 2..9: eight entries.
  EXPECT_EQ(result.per_k.size(), 8u);
  EXPECT_EQ(result.k_min, 2u);
  // Eq. 6: score is the mean of per_k.
  double total = 0.0;
  for (double s : result.per_k) total += s;
  EXPECT_NEAR(result.score, total / 8.0, 1e-12);
}

TEST(ClusterScore, ClusteredSuiteScoresWorse) {
  // Two tight, well-separated blobs cluster beautifully (bad suite);
  // a uniform cloud resists clustering (good suite).
  const auto clustered = cluster_score(make_suite(blobs(6, 20.0, 3)));

  stats::Rng rng(4);
  la::Matrix uniform(12, 3);
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 3; ++c) uniform(r, c) = rng.uniform();
  }
  const auto spread = cluster_score(make_suite(uniform));

  EXPECT_GT(clustered.score, spread.score + 0.1);
}

TEST(ClusterScore, NormalizationMakesCountersScaleFree) {
  // Scaling one counter by 1e6 must not change the score (per-column
  // min-max normalization).
  const la::Matrix base = blobs(5, 5.0, 5);
  la::Matrix scaled = base;
  for (std::size_t r = 0; r < scaled.rows(); ++r) scaled(r, 0) *= 1e6;
  const auto a = cluster_score(make_suite(base));
  const auto b = cluster_score(make_suite(scaled));
  EXPECT_NEAR(a.score, b.score, 1e-9);
}

TEST(ClusterScore, DeterministicForSeed) {
  const auto suite = make_suite(blobs(5, 3.0, 6));
  ClusterScoreOptions options;
  options.seed = 42;
  EXPECT_DOUBLE_EQ(cluster_score(suite, options).score,
                   cluster_score(suite, options).score);
}

TEST(ClusterScore, FromNormalizedSkipsRenormalization) {
  stats::Rng rng(7);
  la::Matrix normalized(8, 2);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 2; ++c) normalized(r, c) = rng.uniform();
  }
  EXPECT_NO_THROW(cluster_score_from_normalized(normalized));
}

TEST(ClusterScore, BoundedBySilhouetteRange) {
  const auto result = cluster_score(make_suite(blobs(6, 2.0, 8)));
  EXPECT_GE(result.score, -1.0);
  EXPECT_LE(result.score, 1.0);
  for (double s : result.per_k) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

// Property: more blob separation -> higher (worse) ClusterScore,
// monotonically across a sweep.
class SeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(SeparationSweep, TighterClustersScoreHigher) {
  const double separation = GetParam();
  const auto wide = cluster_score(make_suite(blobs(5, separation, 9)));
  const auto narrow = cluster_score(make_suite(blobs(5, separation / 4.0, 9)));
  EXPECT_GE(wide.score, narrow.score - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Separations, SeparationSweep,
                         ::testing::Values(4.0, 8.0, 16.0));

}  // namespace
}  // namespace perspector::core
