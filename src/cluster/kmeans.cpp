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

// k-means++ seeding: first centroid uniform, subsequent centroids drawn with
// probability proportional to squared distance from the nearest chosen one.
la::Matrix seed_centroids(const la::Matrix& points, std::size_t k,
                          stats::Rng& rng) {
  const std::size_t n = points.rows();
  la::Matrix centroids(k, points.cols());
  // Seeding runs once per restart; the distance buffer is scratch.
  mem::Scratch<double> d2_buf(n);
  const std::span<double> d2(d2_buf.data(), n);
  std::fill(d2.begin(), d2.end(), std::numeric_limits<double>::infinity());

  std::size_t first = rng.uniform_int(0, n - 1);
  centroids.set_row(0, points.row(first));

  for (std::size_t c = 1; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(
          d2[i], la::squared_distance(points.row(i), centroids.row(c - 1)));
    }
    double total = 0.0;
    for (double v : d2) total += v;
    std::size_t chosen;
    if (total <= 0.0) {
      // All points coincide with existing centroids; fall back to uniform.
      chosen = rng.uniform_int(0, n - 1);
    } else {
      chosen = rng.weighted_index(d2);
    }
    centroids.set_row(c, points.row(chosen));
  }
  return centroids;
}

struct LloydOutcome {
  std::vector<std::size_t> labels;
  la::Matrix centroids;
  double inertia = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

LloydOutcome lloyd(const la::Matrix& points, la::Matrix centroids,
                   const KMeansConfig& config) {
  const std::size_t n = points.rows();
  const std::size_t k = config.k;
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
    // Assignment step.
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = la::squared_distance(points.row(i), centroids.row(c));
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      labels[i] = best_c;
      nearest[i] = best;
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

  out.inertia = 0.0;
  if (settled) {
    // The final assignment would repeat the last one against the same
    // centroid bits: keep its labels and sum its distances in point order,
    // exactly as the pass below would.
    for (std::size_t i = 0; i < n; ++i) out.inertia += nearest[i];
  } else {
    // Final assignment against the settled centroids, plus inertia.
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = la::squared_distance(points.row(i), centroids.row(c));
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      labels[i] = best_c;
      out.inertia += best;
    }
  }
  out.labels = std::move(labels);
  out.centroids = std::move(centroids);
  return out;
}

}  // namespace

KMeansResult kmeans(const la::Matrix& points, const KMeansConfig& config) {
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
    outcomes[r] = lloyd(
        points, seed_centroids(points, config.k, streams[r]), config);
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
