#include "core/cluster_score.hpp"

#include <cmath>
#include <stdexcept>

#include "cluster/kmeans.hpp"
#include "cluster/silhouette.hpp"
#include "par/parallel.hpp"
#include "stats/normalize.hpp"

namespace perspector::core {

ClusterScoreResult cluster_score(const CounterMatrix& suite,
                                 const ClusterScoreOptions& options) {
  return cluster_score_from_normalized(
      stats::minmax_normalize_columns(suite.values()), options);
}

ClusterScoreResult cluster_score_from_normalized(
    const la::Matrix& normalized, const ClusterScoreOptions& options) {
  const std::size_t n = normalized.rows();
  if (n < 4) {
    throw std::invalid_argument(
        "cluster_score: need at least 4 workloads (k sweeps 2..n-1)");
  }

  ClusterScoreResult result;
  // Every k in the sweep scores the same point set, so the pairwise
  // squared distances are computed once here (itself a deterministic
  // parallel region) and shared read-only across the sweep: k-means reads
  // its seeding and first-assignment distances from them, and the
  // silhouette reads their sqrt, the bits of la::pairwise_distances.
  const la::Matrix squared = la::pairwise_squared_distances(normalized);
  la::Matrix dist = squared;
  for (double& v : dist.data()) v = std::sqrt(v);
  // The k sweep is the ClusterScore hot loop; every k is an independent
  // clustering (per-k seed below), so each task owns per_k[k-2] and the
  // Eq. 6 mean below accumulates in k order — identical for any thread
  // count. Inner parallelism (restarts, silhouette) serializes when nested.
  // Task j takes k = n-1-j: the costliest clusterings are claimed first,
  // so the cheap small k fill in behind them instead of a large k
  // finishing alone at the end.
  result.per_k.resize(n - 2);
  par::parallel_for(n - 2, [&](std::size_t j) {
    const std::size_t k = n - 1 - j;
    cluster::KMeansConfig config;
    config.k = k;
    config.restarts = options.kmeans_restarts;
    config.max_iters = options.kmeans_max_iters;
    // Stable per-k seed so adding workloads does not reshuffle smaller k.
    config.seed = options.seed + k * 1000003ull;
    const auto clustering = cluster::kmeans(normalized, squared, config);
    result.per_k[k - 2] = cluster::silhouette_score_from_distances(
        dist, clustering.labels, k);  // Eq. 5
  });
  double total = 0.0;
  for (double s : result.per_k) total += s;
  result.score = total / static_cast<double>(n - 2);  // Eq. 6
  return result;
}

}  // namespace perspector::core
