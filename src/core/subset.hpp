// Benchmark-suite subset generation (paper Section IV-C).
//
// The LHS method: draw k Latin-hypercube points in the normalized
// counter space and pick the nearest distinct workload for each — the
// subset inherits the space-filling property of the sample. The paper
// reduces SPEC'17 from 43 to 8 workloads this way with a ~6.53% score
// deviation. Baselines: uniform-random selection and the prior-work
// recipe (PCA + hierarchical clustering, one pick per cluster).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/perspector.hpp"

namespace perspector::core {

/// Subset selection strategy.
enum class SubsetMethod : std::uint8_t {
  Lhs,               // paper's proposal (Section IV-C)
  Random,            // uniform random baseline
  HierarchicalPrior  // prior-work: PCA + hierarchical clusters, 1 pick each
};

const char* to_string(SubsetMethod method);

/// Knobs for subset generation.
struct SubsetOptions {
  std::size_t target_size = 8;
  SubsetMethod method = SubsetMethod::Lhs;
  std::uint64_t seed = 1234;
  /// LHS refinement: number of maximin candidates.
  std::size_t lhs_candidates = 16;
  /// HierarchicalPrior: PCA variance retained before clustering.
  double prior_pca_variance = 0.98;
  /// When true, the ClusterScore deviation compares full suite and subset
  /// over the *common* k range (k = 2..target_size-1) instead of each
  /// suite's own Eq. 6 sweep (2..n-1). Off by default — an ablation knob
  /// for studying the metric's n-sensitivity.
  bool cluster_common_k_range = false;
};

/// A generated subset plus its fidelity evaluation.
struct SubsetResult {
  std::vector<std::size_t> indices;   // rows of the source CounterMatrix
  std::vector<std::string> names;     // corresponding workload names
  SuiteScores full_scores;            // the complete suite
  SuiteScores subset_scores;          // the selected subset
  /// Mean relative deviation over the four scores, in percent:
  /// 100/4 * sum |subset - full| / |full| (scores at 0 are skipped).
  double mean_deviation_pct = 0.0;
  /// Per-score relative deviations (cluster, trend, coverage, spread), %.
  std::vector<double> per_score_deviation_pct;
};

/// How far a subset's scores sit from the full suite's.
struct ScoreDeviation {
  /// Per-score relative deviations (cluster, trend, coverage, spread), %:
  /// 100 * |subset - full| / |full|, or 0 where the full score is 0.
  std::vector<double> per_score_pct;
  /// Mean over the scores whose full value is non-zero (a score at 0 was
  /// skipped, e.g. trend without series); 0 when none is.
  double mean_pct = 0.0;
};

ScoreDeviation score_deviation(const SuiteScores& full,
                               const SuiteScores& subset);

/// Selects the subset workload indices only (no scoring).
std::vector<std::size_t> select_subset(const CounterMatrix& suite,
                                       const SubsetOptions& options);

/// Full pipeline: select a subset, score both full suite and subset with
/// `scoring`, and report the deviation. Requires target_size >= 4 (the
/// ClusterScore needs it) and strictly fewer than the suite size.
SubsetResult generate_subset(const CounterMatrix& suite,
                             const SubsetOptions& options,
                             const PerspectorOptions& scoring = {});

}  // namespace perspector::core
