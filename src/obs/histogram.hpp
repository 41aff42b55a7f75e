// Log-bucketed latency histograms with bounded relative error.
//
// An obs::Histogram keeps exact count/min/max/sum and the whole shape of
// the samples, so p50/p90/p99/p99.9 can be extracted after the fact; it is
// the registry's one latency recorder. Buckets are HDR-style: each
// power-of-two octave is split into kSubBuckets linear sub-buckets, so the
// representative value of any bucket is within ~1/(2*kSubBuckets) relative
// error of every sample that landed there.
//
// record() is wait-free on the bucket path (one relaxed fetch_add on a
// uint64 cell, matching the Counter discipline); the min/max/sum side
// is kept by lock-free CAS loops on atomic doubles. Percentiles are
// computed from a bucket snapshot with a deterministic rank rule, so two
// histograms fed the same multiset of samples report bit-identical
// percentiles regardless of arrival order or thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perspector::obs {

/// Summary extracted from one histogram: exact count/min/max/sum plus the
/// four standard percentiles. Percentile values are bucket representatives
/// (midpoints), not raw samples — see Histogram::representative().
struct HistogramStats {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// Lock-free log-bucketed histogram. Values are doubles (the serving tier
/// records microseconds); anything <= 0 or non-finite lands in the
/// dedicated underflow bucket 0 so record() never branches on errors.
class Histogram {
 public:
  /// Linear sub-buckets per power-of-two octave. 32 bounds the relative
  /// error of a bucket midpoint at 1/64 (~1.6%) of the true value.
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Octave range: values in [2^kMinExp, 2^kMaxExp) resolve to a real
  /// bucket; below goes to the underflow bucket, above clamps to the top
  /// bucket. In microseconds that spans ~1ms/1024 .. ~13 days.
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 40;
  static constexpr int kBucketCount =
      (kMaxExp - kMinExp) * kSubBuckets + 1;  // +1: underflow bucket 0

  void record(double value) noexcept;

  /// Snapshot of count/min/max/sum plus percentiles from a single pass
  /// over the buckets. Concurrent record()s may or may not be included;
  /// after all writers quiesce the totals reconcile exactly.
  HistogramStats stats() const noexcept;

  /// The (index, count) pairs of every non-empty bucket, for tests and
  /// reconciliation checks.
  std::vector<std::pair<int, std::uint64_t>> nonzero_buckets() const;

  void reset() noexcept;

  /// Bucket index for a value. Monotone non-decreasing in `value`, which
  /// is what makes histogram percentiles bit-comparable to a quantized
  /// sorted-vector reference.
  static int bucket_of(double value) noexcept;

  /// Deterministic representative (midpoint) of a bucket; the value
  /// percentile queries report. representative(0) == 0.0.
  static double representative(int bucket) noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
};

/// Deterministic percentile over an explicit bucket array: the
/// representative of the bucket holding the sample of rank
/// max(1, ceil(q * total)). Shared by Histogram::stats() and the tests'
/// sorted-vector cross-check. Returns 0.0 on an empty histogram.
double bucket_percentile(const std::uint64_t* buckets, int bucket_count,
                         double q) noexcept;

/// RAII scope timer recording elapsed wall microseconds into a Histogram
/// on destruction. Unlike a trace Span it is always on — histograms are
/// cheap enough to leave in the serving path permanently, and it survives
/// --metrics-only runs where the tracer stays disabled. The clock reads live in this
/// header (src/obs is det-clock allowlisted) so callers in ranked layers
/// stay free of raw clock tokens.
class LatencyTimer {
 public:
  // The construction-time clock read feeds the latency histogram only;
  // no scored value is derived from it.
  // lint:seam(det-taint): latency samples never feed a score
  explicit LatencyTimer(Histogram& histogram) noexcept
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~LatencyTimer() { histogram_.record(elapsed_us()); }

  /// Microseconds since construction (for callers that want to branch on
  /// the latency — e.g. slow-request logging — without reading a clock).
  double elapsed_us() const noexcept {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::micro>(elapsed).count();
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Returns the histogram registered under `name`, creating it on first
/// use. Same lifetime contract as counter().
Histogram& histogram(std::string_view name);

/// Point-in-time snapshot of one named histogram.
struct HistogramSnapshot {
  std::string name;
  HistogramStats stats;
};

/// All registered histograms, sorted by name.
std::vector<HistogramSnapshot> histograms_snapshot();

}  // namespace perspector::obs
