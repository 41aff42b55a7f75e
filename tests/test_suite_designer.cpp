#include "core/suite_designer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/subset.hpp"
#include "stats/rng.hpp"

namespace perspector::core {
namespace {

// A pool with structure: a redundant cluster of near-clones plus a spread
// of distinct workloads — the designer should prefer the distinct ones.
CounterMatrix structured_pool(std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<std::string> workloads, counters;
  la::Matrix values;
  for (std::size_t c = 0; c < 6; ++c) {
    counters.push_back(std::string("c").append(std::to_string(c)));
  }
  // 8 near-clones huddled at 0.5.
  for (std::size_t w = 0; w < 8; ++w) {
    workloads.push_back(std::string("clone").append(std::to_string(w)));
    std::vector<double> row(6);
    for (double& v : row) v = 0.5 + rng.uniform(-0.01, 0.01);
    values.append_row(row);
  }
  // 12 spread workloads.
  for (std::size_t w = 0; w < 12; ++w) {
    workloads.push_back(std::string("spread").append(std::to_string(w)));
    std::vector<double> row(6);
    for (double& v : row) v = rng.uniform();
    values.append_row(row);
  }
  return CounterMatrix("pool", workloads, counters, values);
}

TEST(SuiteDesigner, ValidatesOptions) {
  const auto pool = structured_pool(1);
  DesignerOptions tiny;
  tiny.target_size = 3;
  EXPECT_THROW(design_suite(pool, tiny), std::invalid_argument);
  DesignerOptions huge;
  huge.target_size = 20;
  EXPECT_THROW(design_suite(pool, huge), std::invalid_argument);
}

TEST(SuiteDesigner, UtilityDirections) {
  DesignerOptions options;
  SuiteScores good, bad;
  good.cluster = 0.1;
  good.coverage = 0.3;
  good.spread = 0.3;
  bad.cluster = 0.5;
  bad.coverage = 0.1;
  bad.spread = 0.7;
  EXPECT_GT(design_utility(good, options), design_utility(bad, options));
}

TEST(SuiteDesigner, UtilityWeightsRespected) {
  SuiteScores scores;
  scores.cluster = 0.4;
  scores.trend = 2000.0;
  scores.coverage = 0.2;
  scores.spread = 0.5;
  DesignerOptions options;
  options.cluster_weight = 0.0;
  options.trend_weight = 0.0;
  options.spread_weight = 0.0;
  options.coverage_weight = 2.0;
  EXPECT_DOUBLE_EQ(design_utility(scores, options), 0.4);
}

TEST(SuiteDesigner, ResultShape) {
  const auto pool = structured_pool(2);
  DesignerOptions options;
  options.target_size = 8;
  options.max_iterations = 10;
  const auto result = design_suite(pool, options);
  EXPECT_EQ(result.indices.size(), 8u);
  EXPECT_EQ(result.names.size(), 8u);
  const std::set<std::size_t> distinct(result.indices.begin(),
                                       result.indices.end());
  EXPECT_EQ(distinct.size(), 8u);
  EXPECT_EQ(result.utility_history.size(), result.swaps + 1);
  EXPECT_DOUBLE_EQ(result.utility_history.back(), result.utility);
}

TEST(SuiteDesigner, UtilityMonotonicallyImproves) {
  const auto pool = structured_pool(3);
  DesignerOptions options;
  options.target_size = 6;
  const auto result = design_suite(pool, options);
  for (std::size_t i = 1; i < result.utility_history.size(); ++i) {
    EXPECT_GT(result.utility_history[i], result.utility_history[i - 1]);
  }
}

TEST(SuiteDesigner, BeatsTheLhsSeed) {
  const auto pool = structured_pool(4);
  DesignerOptions options;
  options.target_size = 8;
  const auto result = design_suite(pool, options);
  // The search starts from the LHS subset; the final utility can only be
  // >= the seed's (strictly greater when any swap happened).
  EXPECT_GE(result.utility, result.utility_history.front());
}

TEST(SuiteDesigner, BeatsRandomSubsets) {
  const auto pool = structured_pool(5);
  DesignerOptions options;
  options.target_size = 8;
  options.max_iterations = 30;
  const auto result = design_suite(pool, options);

  // The designed suite's utility must beat every one of a batch of random
  // subsets (the search had the chance to reach any of them via swaps).
  stats::Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const auto picks =
        rng.sample_without_replacement(pool.num_workloads(), 8);
    PerspectorOptions scoring;
    scoring.compute_trend = false;
    const auto scores =
        Perspector(scoring).score_suite(pool.select_workloads(picks));
    EXPECT_GE(result.utility, design_utility(scores, options) - 1e-9);
  }
}

TEST(SuiteDesigner, DeterministicForSeed) {
  const auto pool = structured_pool(6);
  DesignerOptions options;
  options.target_size = 6;
  options.seed = 99;
  const auto a = design_suite(pool, options);
  const auto b = design_suite(pool, options);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_DOUBLE_EQ(a.utility, b.utility);
}

TEST(SuiteDesigner, ZeroIterationsReturnsSeed) {
  const auto pool = structured_pool(7);
  DesignerOptions options;
  options.target_size = 6;
  options.max_iterations = 0;
  const auto result = design_suite(pool, options);
  EXPECT_EQ(result.swaps, 0u);
  SubsetOptions seed_options;
  seed_options.target_size = 6;
  seed_options.seed = options.seed;
  auto seed_picks = select_subset(pool, seed_options);
  std::sort(seed_picks.begin(), seed_picks.end());
  EXPECT_EQ(result.indices, seed_picks);
}

}  // namespace
}  // namespace perspector::core
