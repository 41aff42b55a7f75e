// Dynamic Time Warping (Berndt & Clifford 1994).
//
// The TrendScore (paper Eq. 7-8) measures pairwise DTW distance between
// normalized counter time series. Both the exact O(N*M) dynamic program and
// a Sakoe-Chiba banded variant are provided; warping paths can be extracted
// for diagnostics.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.hpp"

namespace perspector::dtw {

/// Options for a DTW computation.
struct DtwOptions {
  /// Sakoe-Chiba band half-width as a fraction of the longer series length;
  /// nullopt means the full (unconstrained) dynamic program.
  std::optional<double> band_fraction;
  /// When true, the distance is divided by the warping-path length, making
  /// series of different lengths comparable.
  bool path_normalized = false;
};

/// Result of a DTW computation.
struct DtwResult {
  double distance = 0.0;       // accumulated |a_i - b_j| along optimal path
  std::size_t path_length = 0; // number of matched index pairs
};

/// DTW distance between two series with absolute-difference local cost.
/// Distance-only rolling kernel: keeps three DP diagonals (plus three
/// path-length diagonals) in per-thread scratch buffers instead of
/// materializing the full (n+1)x(m+1) table, and returns distance and path
/// length bit-identical to dtw_with_path. Callers that need only distances
/// of many pairs take the faster dtw_distances. Throws
/// std::invalid_argument if either series is empty, or if the band is too
/// narrow to connect the corners.
DtwResult dtw_distance(std::span<const double> a, std::span<const double> b,
                       const DtwOptions& options = {});

/// Two series whose DTW distance dtw_distances computes.
struct SeriesPair {
  std::span<const double> a;
  std::span<const double> b;
};

/// Pairs per batched-kernel run: one SIMD lane per pair (DESIGN.md §9).
inline constexpr std::size_t kBatchLanes = 16;

/// Distance-only DTW of many pairs: element p is bit-identical to
/// dtw_distance(pairs[p].a, pairs[p].b, options).distance. Consecutive
/// pairs of one shape (a.size(), b.size()) share a batch of up to
/// kBatchLanes pairs, each in its own SIMD lane; the batches run as one
/// parallel region and every distance lands in its pair's slot, so the
/// result is identical for any thread count. Throws what dtw_distance
/// would throw for the lowest failing pair.
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

/// Full pairwise DTW distance matrix over a set of series (symmetric, zero
/// diagonal). The cache layer (core::ScoringWorkspace) computes this once
/// per counter and slices sub-matrices for subset/resample scoring.
la::Matrix pairwise_dtw_matrix(const std::vector<std::vector<double>>& series,
                               const DtwOptions& options = {});

}  // namespace perspector::dtw
