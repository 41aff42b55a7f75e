// K-means clustering with k-means++ seeding and multi-restart Lloyd
// iterations. Used by the ClusterScore (paper Section III-A).
#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "stats/rng.hpp"

namespace perspector::cluster {

/// Configuration for a k-means run.
struct KMeansConfig {
  std::size_t k = 2;            // number of clusters
  std::size_t max_iters = 100;  // Lloyd iteration cap per restart
  std::size_t restarts = 8;     // independent restarts; best inertia wins
  double tol = 1e-7;            // centroid-movement convergence threshold
  std::uint64_t seed = 42;      // RNG seed (k-means++ and restarts)
};

/// Result of a k-means run.
struct KMeansResult {
  std::vector<std::size_t> labels;  // cluster index per point (row)
  la::Matrix centroids;             // k x dims
  double inertia = 0.0;             // sum of squared distances to centroid
  std::size_t iterations = 0;       // iterations of the winning restart
  bool converged = false;           // winning restart hit tol before cap
};

/// Runs k-means on the rows of `points`. `squared` is
/// la::pairwise_squared_distances(points): k-means++ seeds are point
/// rows, so seeding and the first assignment read their distances from
/// it, and only later Lloyd passes compute distances to centroids.
///
/// Throws std::invalid_argument when k == 0, points are empty,
/// k > number of points, or `squared` is not rows x rows. Empty clusters
/// are repaired by re-seeding the empty centroid at the point farthest
/// from its current centroid.
KMeansResult kmeans(const la::Matrix& points, const la::Matrix& squared,
                    const KMeansConfig& config);

/// Same, building the squared-distance matrix of `points` itself.
KMeansResult kmeans(const la::Matrix& points, const KMeansConfig& config);

/// Number of points assigned to each cluster label.
std::vector<std::size_t> cluster_sizes(const std::vector<std::size_t>& labels,
                                       std::size_t k);

}  // namespace perspector::cluster
