// Clustering fingerprint: FNV-1a digests of what k-means and the
// ClusterScore (paper Eq. 1-6) compute over a fixed family of seeded
// matrices. The k-means digest covers labels, centroid bits, inertia bits,
// iteration counts and the converged flag; the ClusterScore digest covers
// the score and every per-k silhouette bit. Any change to the arithmetic,
// the RNG draws, the restart winner or the order of a reduction changes a
// digest, so performance work on k-means, the silhouette or the parallel
// layer can prove it is bit-exact by leaving these constants alone.
//
// The matrices mix uniform values, three-level ties (many exactly equal
// distances, so tie-breaking in the assignment step matters) and
// duplicated rows (coincident points, empty-cluster repair). Every digest
// is taken at 1, 2 and 8 threads and must be the same constant: the
// DESIGN.md section 8 contract makes the thread count invisible.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/cluster_score.hpp"
#include "par/thread_pool.hpp"
#include "stats/rng.hpp"

namespace perspector {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores automatic thread-count resolution when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

enum class Kind { Uniform, ThreeLevel, Duplicated };

la::Matrix make_points(Kind kind, std::size_t n, std::size_t dims,
                       std::uint64_t seed) {
  stats::Rng rng(seed);
  la::Matrix points(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    if (kind == Kind::Duplicated && i >= 2 && rng.uniform() < 0.4) {
      points.set_row(i, points.row(rng.uniform_int(0, i - 1)));
      continue;
    }
    for (std::size_t j = 0; j < dims; ++j) {
      points(i, j) = kind == Kind::ThreeLevel
                         ? 0.5 * static_cast<double>(rng.uniform_int(0, 2))
                         : rng.uniform();
    }
  }
  return points;
}

struct Case {
  Kind kind;
  std::size_t n;
  std::size_t dims;
};

constexpr Case kCases[] = {
    {Kind::Uniform, 4, 1},     {Kind::Uniform, 9, 3},
    {Kind::Uniform, 23, 14},   {Kind::Uniform, 40, 6},
    {Kind::ThreeLevel, 5, 2},  {Kind::ThreeLevel, 17, 4},
    {Kind::ThreeLevel, 31, 1}, {Kind::ThreeLevel, 36, 14},
    {Kind::Duplicated, 6, 1},  {Kind::Duplicated, 14, 3},
    {Kind::Duplicated, 27, 9}, {Kind::Duplicated, 38, 20},
};

std::uint64_t case_seed(std::size_t index) { return 7919u * (index + 1); }

void digest_kmeans(const cluster::KMeansResult& r, Fnv1a& h) {
  h.add(static_cast<std::uint64_t>(r.labels.size()));
  for (std::size_t label : r.labels) h.add(static_cast<std::uint64_t>(label));
  for (double v : r.centroids.data()) h.add(v);
  h.add(r.inertia);
  h.add(static_cast<std::uint64_t>(r.iterations));
  h.add(static_cast<std::uint64_t>(r.converged ? 1 : 0));
}

// k-means at several k per matrix, under three configurations: the
// defaults (convergence by tolerance), a loose tolerance (converges while
// centroids still move, so the final assignment can relabel), and a tight
// iteration cap (stops unconverged).
std::uint64_t kmeans_digest() {
  Fnv1a h;
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    const Case& spec = kCases[c];
    const la::Matrix points = make_points(spec.kind, spec.n, spec.dims,
                                          case_seed(c));
    const std::size_t ks[] = {1, 2, 3, spec.n / 2, spec.n - 1, spec.n};
    for (std::size_t k : ks) {
      for (int variant = 0; variant < 3; ++variant) {
        cluster::KMeansConfig config;
        config.k = k;
        config.seed = case_seed(c) + k;
        if (variant == 1) config.tol = 1e-2;
        if (variant == 2) config.max_iters = 2;
        digest_kmeans(cluster::kmeans(points, config), h);
      }
    }
  }
  return h.value();
}

std::uint64_t cluster_score_digest() {
  Fnv1a h;
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    const Case& spec = kCases[c];
    const la::Matrix points = make_points(spec.kind, spec.n, spec.dims,
                                          case_seed(c));
    core::ClusterScoreOptions options;
    options.seed = case_seed(c);
    const auto result = core::cluster_score_from_normalized(points, options);
    h.add(result.score);
    h.add(static_cast<std::uint64_t>(result.per_k.size()));
    for (double s : result.per_k) h.add(s);
  }
  return h.value();
}

// The shapes live_edit scores: a resident 48x14 suite, a 43x14 suite
// with three-level ties, and an 8x14 subset candidate with duplicated
// rows. Each contributes its ClusterScore and k-means at three k.
std::uint64_t live_edit_shapes_digest() {
  constexpr Case kShapes[] = {
      {Kind::Uniform, 48, 14},
      {Kind::ThreeLevel, 43, 14},
      {Kind::Duplicated, 8, 14},
  };
  Fnv1a h;
  for (std::size_t c = 0; c < std::size(kShapes); ++c) {
    const Case& spec = kShapes[c];
    const std::uint64_t seed = case_seed(c + std::size(kCases));
    const la::Matrix points = make_points(spec.kind, spec.n, spec.dims, seed);
    core::ClusterScoreOptions options;
    options.seed = seed;
    const auto result = core::cluster_score_from_normalized(points, options);
    h.add(result.score);
    for (double s : result.per_k) h.add(s);
    for (std::size_t k : {std::size_t{2}, spec.n / 2, spec.n - 1}) {
      cluster::KMeansConfig config;
      config.k = k;
      config.seed = seed + k;
      digest_kmeans(cluster::kmeans(points, config), h);
    }
  }
  return h.value();
}

TEST(ClusterFingerprint, KMeans) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    par::set_thread_count(threads);
    EXPECT_EQ(kmeans_digest(), 0x3ccf3ebdf4eb9b4bull)
        << "threads=" << threads;
  }
}

TEST(ClusterFingerprint, ClusterScore) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    par::set_thread_count(threads);
    EXPECT_EQ(cluster_score_digest(), 0x13cffb361f650718ull)
        << "threads=" << threads;
  }
}

TEST(ClusterFingerprint, LiveEditShapes) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    par::set_thread_count(threads);
    EXPECT_EQ(live_edit_shapes_digest(), 0x78918b54eb1cac55ull) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace perspector
