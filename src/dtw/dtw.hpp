// Dynamic Time Warping (Berndt & Clifford 1994).
//
// The TrendScore (paper Eq. 7-8) measures pairwise DTW distance between
// normalized counter time series. Both the exact O(N*M) dynamic program and
// a Sakoe-Chiba banded variant are provided. Distances come from one
// kernel, the batched one (dtw_distances; dtw_distance is a batch of one
// pair); dtw_with_path keeps the full table to extract the warping path
// and is the reference the tests compare that kernel against.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace perspector::dtw {

/// Options for a DTW computation.
struct DtwOptions {
  /// Sakoe-Chiba band half-width as a fraction of the longer series length;
  /// nullopt means the full (unconstrained) dynamic program.
  std::optional<double> band_fraction;
};

/// DTW distance between two series with absolute-difference local cost
/// (the accumulated |a_i - b_j| along the optimal path), bit-identical to
/// dtw_with_path(a, b, options).distance. Runs the pair as one batch of the
/// batched kernel, on the calling thread. Callers with many pairs take
/// dtw_distances, which fills the batch's other lanes. Throws
/// std::invalid_argument if either series is empty, if band_fraction is
/// outside [0, 1], or if the band is too narrow to connect the corners.
double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwOptions& options = {});

/// Two series whose DTW distance dtw_distances computes.
struct SeriesPair {
  std::span<const double> a;
  std::span<const double> b;
};

/// Pairs per batched-kernel run: one SIMD lane per pair (DESIGN.md §9).
inline constexpr std::size_t kBatchLanes = 16;

/// Distance-only DTW of many pairs: element p is bit-identical to
/// dtw_with_path(pairs[p].a, pairs[p].b, options).distance. Consecutive
/// pairs of one shape (a.size(), b.size()) share a batch of up to
/// kBatchLanes pairs, each in its own SIMD lane; the batches run as one
/// parallel region and every distance lands in its pair's slot, so the
/// result is identical for any thread count. Throws std::invalid_argument
/// for the lowest failing pair: an empty series, a band_fraction outside
/// [0, 1], or a band too narrow to connect the corners.
std::vector<double> dtw_distances(std::span<const SeriesPair> pairs,
                                  const DtwOptions& options = {});

namespace detail {
/// The batched kernel's portable body on one batch: 1..kBatchLanes pairs
/// of one shape, distances to out[0..batch.size()). dtw_distances picks the
/// AVX2 body where the CPU has it; tests call this one to cover both.
void dtw_batch_scalar(std::span<const SeriesPair> batch,
                      const DtwOptions& options, double* out);
}  // namespace detail

/// DTW with the optimal warping path ((i, j) index pairs from (0,0) to
/// (len(a)-1, len(b)-1)).
struct DtwPathResult {
  double distance = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> path;
};
DtwPathResult dtw_with_path(std::span<const double> a,
                            std::span<const double> b,
                            const DtwOptions& options = {});

/// Mean pairwise DTW distance over a set of series — the inner sum of the
/// paper's Eq. 7 for a single counter. Requires at least two series.
double mean_pairwise_dtw(const std::vector<std::vector<double>>& series,
                         const DtwOptions& options = {});

}  // namespace perspector::dtw
