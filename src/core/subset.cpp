#include "core/subset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cluster/hierarchical.hpp"
#include "core/scoring_workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "pca/pca.hpp"
#include "sampling/latin_hypercube.hpp"
#include "sampling/representative.hpp"
#include "stats/ecdf.hpp"
#include "stats/normalize.hpp"
#include "stats/rng.hpp"

namespace perspector::core {

const char* to_string(SubsetMethod method) {
  switch (method) {
    case SubsetMethod::Lhs:
      return "lhs";
    case SubsetMethod::Random:
      return "random";
    case SubsetMethod::HierarchicalPrior:
      return "hierarchical-prior";
  }
  return "unknown";
}

namespace {

std::vector<std::size_t> select_lhs(const la::Matrix& normalized,
                                    const SubsetOptions& options) {
  sampling::LhsOptions lhs_options;
  lhs_options.seed = options.seed;
  la::Matrix targets = sampling::maximin_latin_hypercube(
      options.target_size, normalized.cols(), options.lhs_candidates,
      lhs_options);

  // LHS samples a *probability distribution* (Section IV-C): map each
  // unit-cube coordinate through the per-counter empirical quantile
  // function of the suite, so strata are equal-probability regions of the
  // suite's own distribution. Dense regions of the suite then receive
  // proportionally many sample points — the subset preserves the suite's
  // density structure instead of flattening it.
  // Column tasks build independent ECDFs and write only their own column.
  par::parallel_for(normalized.cols(), [&](std::size_t c) {
    const stats::Ecdf cdf(normalized.col_copy(c));
    for (std::size_t t = 0; t < targets.rows(); ++t) {
      targets(t, c) = cdf.quantile(targets(t, c));
    }
  });
  return sampling::match_nearest_distinct(targets, normalized);
}

std::vector<std::size_t> select_random(std::size_t n,
                                       const SubsetOptions& options) {
  stats::Rng rng(options.seed);
  return rng.sample_without_replacement(n, options.target_size);
}

// Prior-work recipe (Section II): PCA-reduce, hierarchically cluster into
// target_size clusters, take the workload nearest each cluster centroid.
// Two passes over the points — accumulate all centroids, then pick each
// cluster's nearest member — instead of rescanning every label once per
// cluster (O(k*n*d) -> O(n*d + k*d)).
std::vector<std::size_t> select_hierarchical(const la::Matrix& normalized,
                                             const SubsetOptions& options) {
  const pca::PcaResult fitted =
      pca::fit_pca(normalized, options.prior_pca_variance);
  const la::Matrix& reduced = fitted.transformed;

  const auto tree = cluster::agglomerate(reduced, cluster::Linkage::Ward);
  const auto labels = tree.cut(options.target_size);
  const std::size_t k = options.target_size;
  const std::size_t dims = reduced.cols();

  // Pass 1: per-cluster centroid sums in point-index order (the same
  // accumulation order the per-cluster rescan used, so the same doubles).
  la::Matrix centroids(k, dims, 0.0);
  std::vector<std::size_t> members(k, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto row = reduced.row(i);
    auto dst = centroids.row(labels[i]);
    for (std::size_t d = 0; d < dims; ++d) dst[d] += row[d];
    ++members[labels[i]];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (members[c] == 0) continue;  // cut() never produces empty clusters
    auto dst = centroids.row(c);
    for (double& v : dst) v /= static_cast<double>(members[c]);
  }

  // Pass 2: nearest member per cluster, strict '<' keeping the first
  // minimum in point-index order — identical picks to the rescan.
  std::vector<double> best(k, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> best_i(k, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::size_t c = labels[i];
    const double d = la::euclidean_distance(reduced.row(i), centroids.row(c));
    if (d < best[c]) {
      best[c] = d;
      best_i[c] = i;
    }
  }

  std::vector<std::size_t> picks;
  for (std::size_t c = 0; c < k; ++c) {
    if (members[c] == 0) continue;
    picks.push_back(best_i[c]);
  }
  std::sort(picks.begin(), picks.end());
  return picks;
}

}  // namespace

ScoreDeviation score_deviation(const SuiteScores& full,
                               const SuiteScores& subset) {
  const double fulls[] = {full.cluster, full.trend, full.coverage,
                          full.spread};
  const double subsets[] = {subset.cluster, subset.trend, subset.coverage,
                            subset.spread};
  ScoreDeviation deviation;
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (fulls[i] == 0.0) {  // metric skipped (e.g. no series)
      deviation.per_score_pct.push_back(0.0);
      continue;
    }
    deviation.per_score_pct.push_back(100.0 * std::abs(subsets[i] - fulls[i]) /
                                      std::abs(fulls[i]));
    total += deviation.per_score_pct.back();
    ++counted;
  }
  deviation.mean_pct =
      counted == 0 ? 0.0 : total / static_cast<double>(counted);
  return deviation;
}

std::vector<std::size_t> select_subset(const CounterMatrix& suite,
                                       const SubsetOptions& options) {
  if (options.target_size >= suite.num_workloads()) {
    throw std::invalid_argument(
        "select_subset: target size must be smaller than the suite");
  }
  if (options.target_size == 0) {
    throw std::invalid_argument("select_subset: target size must be > 0");
  }
  obs::Span span("subset.select");
  static obs::Counter& selections = obs::counter("subset.selections");
  selections.increment();
  const la::Matrix normalized =
      stats::minmax_normalize_columns(suite.values());

  switch (options.method) {
    case SubsetMethod::Lhs:
      return select_lhs(normalized, options);
    case SubsetMethod::Random:
      return select_random(suite.num_workloads(), options);
    case SubsetMethod::HierarchicalPrior:
      return select_hierarchical(normalized, options);
  }
  throw std::logic_error("select_subset: unknown method");
}

SubsetResult generate_subset(const CounterMatrix& suite,
                             const SubsetOptions& options,
                             const PerspectorOptions& scoring) {
  if (options.target_size < 4) {
    throw std::invalid_argument(
        "generate_subset: target size must be >= 4 (ClusterScore needs it)");
  }
  obs::Span span("subset.generate");
  SubsetResult result;
  result.indices = select_subset(suite, options);
  std::sort(result.indices.begin(), result.indices.end());
  for (std::size_t i : result.indices) {
    result.names.push_back(suite.workload_names()[i]);
  }

  // Score full suite and subset together: coverage and spread then share
  // the joint normalization (the subset is a sample of the same data, so
  // per-counter ranges must match for the comparison to be meaningful).
  // The workspace means the full suite's pairwise DTW matrix is computed
  // once; the subset's TrendScore is then sliced from it (O(s^2) lookups,
  // zero DTW) instead of re-run on the sub-suite.
  const Perspector engine(scoring);
  ScoringWorkspace workspace;
  auto both = engine.score_suites(
      {suite, suite.select_workloads(result.indices)}, workspace);
  result.full_scores = std::move(both[0]);
  result.subset_scores = std::move(both[1]);

  if (options.cluster_common_k_range) {
    // Re-aggregate the full suite's silhouettes over the subset's k range
    // so both cluster scores measure clusterability at the same
    // granularity (see SubsetOptions::cluster_common_k_range).
    const std::size_t common = options.target_size - 2;
    const auto& per_k = result.full_scores.cluster_detail.per_k;
    double total = 0.0;
    for (std::size_t i = 0; i < common && i < per_k.size(); ++i) {
      total += per_k[i];
    }
    result.full_scores.cluster =
        total / static_cast<double>(std::min(common, per_k.size()));
  }

  ScoreDeviation deviation =
      score_deviation(result.full_scores, result.subset_scores);
  result.per_score_deviation_pct = std::move(deviation.per_score_pct);
  result.mean_deviation_pct = deviation.mean_pct;
  return result;
}

}  // namespace perspector::core
