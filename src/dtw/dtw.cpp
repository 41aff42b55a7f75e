#include "dtw/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "mem/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"

// The batched kernel's AVX2 body is compiled with a per-function target
// attribute and selected at runtime, so the translation unit itself never
// needs -mavx2 (a global flag would license FMA contraction elsewhere and
// change bits).
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define PERSPECTOR_DTW_AVX2 1
#endif

namespace perspector::dtw {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t band_width(std::size_t n, std::size_t m,
                       const DtwOptions& options) {
  if (!options.band_fraction) return std::max(n, m);  // effectively unbounded
  if (*options.band_fraction < 0.0 || *options.band_fraction > 1.0) {
    throw std::invalid_argument("dtw: band_fraction must be in [0,1]");
  }
  const auto longest = static_cast<double>(std::max(n, m));
  auto w = static_cast<std::size_t>(std::ceil(*options.band_fraction * longest));
  // The band must at least cover the length difference or the corners are
  // unreachable.
  const std::size_t diff = n > m ? n - m : m - n;
  return std::max(w, diff);
}

// In-band columns of row i (1-based): j in [j_lo, j_hi], |i - j| <= w.
// band_width keeps w >= |n - m|, so the range is never empty.
inline std::size_t row_lo(std::size_t i, std::size_t w) {
  return i > w ? i - w : 1;
}
inline std::size_t row_hi(std::size_t i, std::size_t m, std::size_t w) {
  return std::min(m, i + w);
}

// ---------------------------------------------------------------------------
// Batched kernel (dtw_distances, and dtw_distance as a batch of one): one
// SIMD lane per pair.
//
// A batch holds up to kBatchLanes pairs of one shape (n, m, band w). Both
// series are transposed lane-major — a[i * L + lane] — so lane `lane` of
// every vector op belongs to one pair, and the batch runs the plain
// row-major rolling DP once for all lanes. Row-major order is latency-bound
// for one pair (cost(i, j) waits on cost(i, j-1)); with L independent lanes
// in 4-wide vectors the chains overlap instead. Padding lanes of a short
// batch repeat the last pair and are never read back.
//
// Each cell does the full table's IEEE ops on the same doubles:
// |a_i - b_j| + min{up, left, diag}. The minimum is taken as
// min(left, min(up, diag)), which keeps `left` (the loop-carried value)
// one op from the add; the order does not change bits, because a minimum
// of finite non-negative doubles, +inf included, is the same double
// whichever operand a tie picks: costs start at +0.0 and only add |x|, so
// no -0.0 arises, and finite inputs (core/io.cpp rejects non-finite cells)
// never make a NaN.
//
// Rows roll in two buffers of (m + 1) * L doubles. Row i writes columns
// [j_lo - 1, j_hi + 1] (two sentinel infinities around the band); row i + 1
// reads only [j_lo(i+1) - 1, j_hi(i+1)], inside that range, so nothing
// stale is read.
// ---------------------------------------------------------------------------

constexpr std::size_t L = kBatchLanes;

using BatchKernel = void (*)(const double* a, const double* b, std::size_t n,
                             std::size_t m, std::size_t w, double* prev,
                             double* cur, double* out);

// Row 0: cost(0, 0) = 0, cost(0, j > 0) = inf.
inline void first_row(std::size_t m, double* prev) {
  std::fill(prev, prev + L, 0.0);
  std::fill(prev + L, prev + (m + 1) * L, kInf);
}

void batch_kernel_scalar(const double* a, const double* b, std::size_t n,
                         std::size_t m, std::size_t w, double* prev,
                         double* cur, double* out) {
  first_row(m, prev);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t j_lo = row_lo(i, w);
    const std::size_t j_hi = row_hi(i, m, w);
    const double* ai = a + (i - 1) * L;
    std::fill(cur + (j_lo - 1) * L, cur + j_lo * L, kInf);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double* bj = b + (j - 1) * L;
      const double* up = prev + j * L;
      const double* diag = prev + (j - 1) * L;
      const double* left = cur + (j - 1) * L;
      double* c = cur + j * L;
      for (std::size_t l = 0; l < L; ++l) {
        c[l] = std::abs(ai[l] - bj[l]) +
               std::min(left[l], std::min(up[l], diag[l]));
      }
    }
    if (j_hi < m) std::fill(cur + (j_hi + 1) * L, cur + (j_hi + 2) * L, kInf);
    std::swap(prev, cur);
  }
  std::copy(prev + m * L, prev + (m + 1) * L, out);
}

#ifdef PERSPECTOR_DTW_AVX2
// Sixteen lanes as four independent 4-wide chains per cell, enough to
// cover the add + min latency of the loop-carried `left`. Plain arrays of
// __m256d, fully unrolled: a template over the vector type would trip
// -Wignored-attributes. Every lane op is the scalar kernel's IEEE op:
// andnot(-0.0, x) is std::abs, min_pd a minimum (see above for ties).
static_assert(L == 16, "the AVX2 body runs four 4-lane groups");

__attribute__((target("avx2"))) void batch_kernel_avx2(
    const double* a, const double* b, std::size_t n, std::size_t m,
    std::size_t w, double* prev, double* cur, double* out) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d inf = _mm256_set1_pd(kInf);
  first_row(m, prev);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t j_lo = row_lo(i, w);
    const std::size_t j_hi = row_hi(i, m, w);
    const double* ai = a + (i - 1) * L;
    __m256d av[4], left[4], diag[4];
#pragma GCC unroll 4
    for (std::size_t g = 0; g < 4; ++g) {
      av[g] = _mm256_loadu_pd(ai + 4 * g);
      left[g] = inf;
      _mm256_storeu_pd(cur + (j_lo - 1) * L + 4 * g, inf);
      diag[g] = _mm256_loadu_pd(prev + (j_lo - 1) * L + 4 * g);
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double* bj = b + (j - 1) * L;
      const double* up_row = prev + j * L;
      double* c = cur + j * L;
#pragma GCC unroll 4
      for (std::size_t g = 0; g < 4; ++g) {
        const __m256d up = _mm256_loadu_pd(up_row + 4 * g);
        const __m256d local = _mm256_andnot_pd(
            sign_bit, _mm256_sub_pd(av[g], _mm256_loadu_pd(bj + 4 * g)));
        left[g] = _mm256_add_pd(
            local, _mm256_min_pd(left[g], _mm256_min_pd(up, diag[g])));
        _mm256_storeu_pd(c + 4 * g, left[g]);
        diag[g] = up;
      }
    }
    if (j_hi < m) {
#pragma GCC unroll 4
      for (std::size_t g = 0; g < 4; ++g) {
        _mm256_storeu_pd(cur + (j_hi + 1) * L + 4 * g, inf);
      }
    }
    std::swap(prev, cur);
  }
  std::copy(prev + m * L, prev + (m + 1) * L, out);
}
#endif

// The body for this CPU, picked on first use.
BatchKernel cpu_batch_kernel() {
#ifdef PERSPECTOR_DTW_AVX2
  static const BatchKernel kernel = __builtin_cpu_supports("avx2")
                                        ? batch_kernel_avx2
                                        : batch_kernel_scalar;
  return kernel;
#else
  return batch_kernel_scalar;
#endif
}

// Runs one batch (1..L pairs of one shape) through `kernel`.
void run_batch(std::span<const SeriesPair> batch, const DtwOptions& options,
               double* out, BatchKernel kernel) {
  const std::size_t n = batch.front().a.size();
  const std::size_t m = batch.front().b.size();
  if (n == 0 || m == 0) throw std::invalid_argument("dtw: empty series");
  const std::size_t w = band_width(n, m, options);

  mem::Scratch<double> a_lanes(n * L), b_lanes(m * L);
  mem::Scratch<double> row_0((m + 1) * L), row_1((m + 1) * L);
  for (std::size_t l = 0; l < L; ++l) {
    const SeriesPair& pair = batch[std::min(l, batch.size() - 1)];
    for (std::size_t i = 0; i < n; ++i) a_lanes[i * L + l] = pair.a[i];
    for (std::size_t j = 0; j < m; ++j) b_lanes[j * L + l] = pair.b[j];
  }
  double cost[L] = {};
  kernel(a_lanes.data(), b_lanes.data(), n, m, w, row_0.data(), row_1.data(),
         cost);

  std::uint64_t band_cells = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    band_cells += row_hi(i, m, w) - row_lo(i, w) + 1;
  }
  static obs::Counter& calls = obs::counter("dtw.calls");
  static obs::Counter& cells = obs::counter("dtw.cells");
  calls.add(batch.size());
  cells.add(band_cells * batch.size());

  for (std::size_t p = 0; p < batch.size(); ++p) {
    if (!std::isfinite(cost[p])) {
      throw std::invalid_argument("dtw: band too narrow to connect endpoints");
    }
    out[p] = cost[p];
  }
}

}  // namespace

double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwOptions& options) {
  const SeriesPair pair{a, b};
  double distance = 0.0;
  run_batch({&pair, 1}, options, &distance, cpu_batch_kernel());
  return distance;
}

DtwPathResult dtw_with_path(std::span<const double> a,
                            std::span<const double> b,
                            const DtwOptions& options) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("dtw: empty series");
  }
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t w = band_width(n, m, options);

  // Full DP table (series here are hundreds of points, memory is fine) with
  // one sentinel row/column of infinity. Only callers that need the warping
  // path pay for the table; distance-only callers take the batched kernel
  // above (the dtw.full_table.* counters keep the two paths auditable).
  std::vector<double> cost((n + 1) * (m + 1), kInf);
  auto at = [m](std::size_t i, std::size_t j) -> std::size_t {
    return i * (m + 1) + j;
  };
  cost[at(0, 0)] = 0.0;

  std::uint64_t cells_visited = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t j_lo = i > w ? i - w : 1;
    const std::size_t j_hi = std::min(m, i + w);
    if (j_hi >= j_lo) cells_visited += j_hi - j_lo + 1;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double local = std::abs(a[i - 1] - b[j - 1]);
      const double best = std::min({cost[at(i - 1, j)], cost[at(i, j - 1)],
                                    cost[at(i - 1, j - 1)]});
      cost[at(i, j)] = local + best;
    }
  }
  static obs::Counter& calls = obs::counter("dtw.calls");
  static obs::Counter& cells = obs::counter("dtw.cells");
  static obs::Counter& full_calls = obs::counter("dtw.full_table.calls");
  static obs::Counter& full_cells = obs::counter("dtw.full_table.cells");
  calls.increment();
  cells.add(cells_visited);
  full_calls.increment();
  full_cells.add(cells_visited);

  if (!std::isfinite(cost[at(n, m)])) {
    throw std::invalid_argument("dtw: band too narrow to connect endpoints");
  }

  DtwPathResult result;
  result.distance = cost[at(n, m)];

  // Backtrack the optimal path.
  std::size_t i = n, j = m;
  while (i > 0 && j > 0) {
    result.path.emplace_back(i - 1, j - 1);
    const double diag = cost[at(i - 1, j - 1)];
    const double up = cost[at(i - 1, j)];
    const double left = cost[at(i, j - 1)];
    if (diag <= up && diag <= left) {
      --i;
      --j;
    } else if (up <= left) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

std::vector<double> dtw_distances(std::span<const SeriesPair> pairs,
                                  const DtwOptions& options) {
  std::vector<double> distance(pairs.size());
  // Batch boundaries: a batch ends after L pairs or before a pair of
  // another shape. They depend only on the input, never on threads.
  std::vector<std::size_t> starts;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (starts.empty() || p - starts.back() == L ||
        pairs[p].a.size() != pairs[starts.back()].a.size() ||
        pairs[p].b.size() != pairs[starts.back()].b.size()) {
      starts.push_back(p);
    }
  }
  starts.push_back(pairs.size());
  const BatchKernel kernel = cpu_batch_kernel();
  par::parallel_for(starts.size() - 1, [&](std::size_t k) {
    run_batch(pairs.subspan(starts[k], starts[k + 1] - starts[k]), options,
              distance.data() + starts[k], kernel);
  });
  return distance;
}

void detail::dtw_batch_scalar(std::span<const SeriesPair> batch,
                              const DtwOptions& options, double* out) {
  if (batch.empty() || batch.size() > L) {
    throw std::invalid_argument("dtw: a batch holds 1..kBatchLanes pairs");
  }
  for (const SeriesPair& pair : batch) {
    if (pair.a.size() != batch.front().a.size() ||
        pair.b.size() != batch.front().b.size()) {
      throw std::invalid_argument("dtw: a batch holds pairs of one shape");
    }
  }
  run_batch(batch, options, out, batch_kernel_scalar);
}

double mean_pairwise_dtw(const std::vector<std::vector<double>>& series,
                         const DtwOptions& options) {
  const std::size_t n = series.size();
  if (n < 2) {
    throw std::invalid_argument("mean_pairwise_dtw: need at least 2 series");
  }
  obs::Span span("dtw.mean_pairwise");
  static obs::Counter& pair_count = obs::counter("dtw.pairs");
  pair_count.add(n * (n - 1) / 2);
  std::vector<SeriesPair> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pairs.push_back({series[i], series[j]});
    }
  }
  // Distances sit in (i asc, j asc) slots and are summed in that order, so
  // the result is bit-identical for any thread count.
  const std::vector<double> distance = dtw_distances(pairs, options);
  double total = 0.0;
  for (double d : distance) total += d;
  // Eq. 7 sums over ordered pairs and divides by n*(n-1); with a symmetric
  // distance that equals the unordered-pair mean computed here.
  return total / static_cast<double>(distance.size());
}

}  // namespace perspector::dtw
