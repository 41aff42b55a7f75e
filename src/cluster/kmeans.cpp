#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "mem/workspace.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"

namespace perspector::cluster {

namespace {

// k-means++ seeding: first seed uniform, each later seed drawn with
// probability proportional to the squared distance from the nearest seed
// chosen so far. Seeds are point rows, so every such distance is an entry
// of `squared`. Returns the row index of each seed.
std::vector<std::size_t> seed_rows(const la::Matrix& squared, std::size_t k,
                                   stats::Rng& rng) {
  const std::size_t n = squared.rows();
  std::vector<std::size_t> seeds(k);
  // Seeding runs once per restart; the distance buffer is scratch.
  mem::Scratch<double> d2_buf(n);
  const std::span<double> d2(d2_buf.data(), n);
  std::fill(d2.begin(), d2.end(), std::numeric_limits<double>::infinity());

  seeds[0] = rng.uniform_int(0, n - 1);
  for (std::size_t c = 1; c < k; ++c) {
    // `squared` is bitwise symmetric, so the last seed's row holds its
    // distance to every point.
    const auto from_last = squared.row(seeds[c - 1]);
    for (std::size_t i = 0; i < n; ++i) d2[i] = std::min(d2[i], from_last[i]);
    double total = 0.0;
    for (double v : d2) total += v;
    if (total <= 0.0) {
      // All points coincide with existing centroids; fall back to uniform.
      seeds[c] = rng.uniform_int(0, n - 1);
    } else {
      seeds[c] = rng.weighted_index(d2);
    }
  }
  return seeds;
}

// Assignment step: labels[i] is the first centroid in index order at the
// strictly smallest distance(i, c), and nearest[i] that distance.
template <typename Distance>
void assign(std::size_t n, std::size_t k, const Distance& distance,
            std::vector<std::size_t>& labels, std::vector<double>& nearest) {
  for (std::size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double d = distance(i, c);
      if (d < best) {
        best = d;
        best_c = c;
      }
    }
    labels[i] = best_c;
    nearest[i] = best;
  }
}

struct LloydOutcome {
  std::vector<std::size_t> labels;
  la::Matrix centroids;
  double inertia = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

LloydOutcome lloyd(const la::Matrix& points, const la::Matrix& squared,
                   const std::vector<std::size_t>& seeds,
                   const KMeansConfig& config) {
  const std::size_t n = points.rows();
  const std::size_t k = config.k;
  la::Matrix centroids(k, points.cols());
  for (std::size_t c = 0; c < k; ++c) {
    centroids.set_row(c, points.row(seeds[c]));
  }
  const auto to_seed = [&](std::size_t i, std::size_t c) {
    return squared(i, seeds[c]);
  };
  const auto to_centroid = [&](std::size_t i, std::size_t c) {
    return la::squared_distance(points.row(i), centroids.row(c));
  };
  std::vector<std::size_t> labels(n, 0);
  // Each point's squared distance to its nearest centroid, as the last
  // assignment step found it.
  std::vector<double> nearest(n, 0.0);
  // True when the last update left every centroid bit-identical, so the
  // last assignment step already is the final assignment.
  bool settled = false;

  LloydOutcome out;
  // Update-step buffers are hoisted out of the iteration loop and recycled
  // by swapping with `centroids` — Lloyd iterations allocate nothing after
  // the first.
  la::Matrix next(k, points.cols(), 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t iter = 0; iter < config.max_iters; ++iter) {
    // Until the first update the centroids are copies of the seed rows,
    // so the first assignment reads its distances from `squared`.
    if (iter == 0) {
      assign(n, k, to_seed, labels, nearest);
    } else {
      assign(n, k, to_centroid, labels, nearest);
    }

    // Update step.
    std::fill(next.data().begin(), next.data().end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = points.row(i);
      auto dst = next.row(labels[i]);
      for (std::size_t j = 0; j < row.size(); ++j) dst[j] += row[j];
      ++counts[labels[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at the point farthest from its centroid.
        double worst = -1.0;
        std::size_t worst_i = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d =
              la::squared_distance(points.row(i), centroids.row(labels[i]));
          if (d > worst) {
            worst = d;
            worst_i = i;
          }
        }
        next.set_row(c, points.row(worst_i));
        continue;
      }
      auto dst = next.row(c);
      for (double& v : dst) v /= static_cast<double>(counts[c]);
    }

    const double movement = centroids.max_abs_diff(next);
    settled = std::memcmp(centroids.data().data(), next.data().data(),
                          centroids.data().size() * sizeof(double)) == 0;
    std::swap(centroids, next);  // old centroids become next round's buffer
    out.iterations = iter + 1;
    if (movement <= config.tol) {
      out.converged = true;
      break;
    }
  }

  // Final assignment against the last centroids, unless they settled
  // bit-identically: then the last assignment step already is final.
  if (!settled) assign(n, k, to_centroid, labels, nearest);
  out.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) out.inertia += nearest[i];
  out.labels = std::move(labels);
  out.centroids = std::move(centroids);
  return out;
}

}  // namespace

KMeansResult kmeans(const la::Matrix& points, const la::Matrix& squared,
                    const KMeansConfig& config) {
  if (points.rows() == 0 || points.cols() == 0) {
    throw std::invalid_argument("kmeans: empty point set");
  }
  if (config.k == 0) throw std::invalid_argument("kmeans: k must be > 0");
  if (config.k > points.rows()) {
    throw std::invalid_argument("kmeans: k exceeds number of points");
  }
  if (config.restarts == 0) {
    throw std::invalid_argument("kmeans: restarts must be > 0");
  }
  if (squared.rows() != points.rows() || squared.cols() != points.rows()) {
    throw std::invalid_argument("kmeans: distance matrix shape mismatch");
  }

  static obs::Counter& calls = obs::counter("kmeans.calls");
  static obs::Counter& restarts = obs::counter("kmeans.restarts");
  static obs::Counter& iterations = obs::counter("kmeans.iterations");
  calls.increment();
  restarts.add(config.restarts);

  // Restart RNG streams are forked serially from the base seed — the same
  // children, in the same order, the serial loop drew — then each restart
  // runs independently. The winner scan below keeps the first strict
  // minimum in restart order, exactly like the serial `<` update, so the
  // chosen clustering never depends on completion order.
  stats::Rng rng(config.seed);
  std::vector<stats::Rng> streams;
  streams.reserve(config.restarts);
  for (std::size_t r = 0; r < config.restarts; ++r) {
    streams.push_back(rng.fork());
  }
  std::vector<LloydOutcome> outcomes(config.restarts);
  par::parallel_for(config.restarts, [&](std::size_t r) {
    outcomes[r] = lloyd(points, squared,
                        seed_rows(squared, config.k, streams[r]), config);
  });

  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (auto& outcome : outcomes) {
    iterations.add(outcome.iterations);
    if (outcome.inertia < best.inertia) {
      best.labels = std::move(outcome.labels);
      best.centroids = std::move(outcome.centroids);
      best.inertia = outcome.inertia;
      best.iterations = outcome.iterations;
      best.converged = outcome.converged;
    }
  }
  return best;
}

KMeansResult kmeans(const la::Matrix& points, const KMeansConfig& config) {
  return kmeans(points, la::pairwise_squared_distances(points), config);
}

std::vector<std::size_t> cluster_sizes(const std::vector<std::size_t>& labels,
                                       std::size_t k) {
  std::vector<std::size_t> sizes(k, 0);
  for (std::size_t label : labels) {
    if (label >= k) throw std::invalid_argument("cluster_sizes: label >= k");
    ++sizes[label];
  }
  return sizes;
}

}  // namespace perspector::cluster
