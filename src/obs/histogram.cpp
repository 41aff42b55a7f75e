#include "obs/histogram.hpp"

#include <cmath>

namespace perspector::obs {

int Histogram::bucket_of(double value) noexcept {
  // NaN, infinities, zero and negatives all fail this test and share the
  // underflow bucket: record() must never branch on bad input.
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  int exp = 0;
  const double m = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5,1)
  const int octave = exp - 1;  // value = (2m) * 2^octave, 2m in [1,2)
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kBucketCount - 1;
  int sub = static_cast<int>((m * 2.0 - 1.0) * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + (octave - kMinExp) * kSubBuckets + sub;
}

double Histogram::representative(int bucket) noexcept {
  if (bucket <= 0) return 0.0;
  if (bucket >= kBucketCount) bucket = kBucketCount - 1;
  const int idx = bucket - 1;
  const int octave = kMinExp + idx / kSubBuckets;
  const int sub = idx % kSubBuckets;
  // Bucket idx spans [2^octave*(1+sub/kSub), 2^octave*(1+(sub+1)/kSub));
  // the midpoint is exact in binary (kSubBuckets is a power of two).
  const double frac = (static_cast<double>(sub) + 0.5) / kSubBuckets;
  return std::ldexp(1.0 + frac, octave);
}

void Histogram::record(double value) noexcept {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  if (n == 0) {
    // The first sample seeds min/max; racing first samples settle in the
    // CAS loops below because both contenders run them.
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (value < lo &&
         !min_.compare_exchange_weak(lo, value, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (value > hi &&
         !max_.compare_exchange_weak(hi, value, std::memory_order_relaxed)) {
  }
}

double bucket_percentile(const std::uint64_t* buckets, int bucket_count,
                         double q) noexcept {
  std::uint64_t total = 0;
  for (int i = 0; i < bucket_count; ++i) total += buckets[i];
  if (total == 0) return 0.0;
  // Rank rule: the sample of rank max(1, ceil(q*total)), 1-based. Using
  // the bucket totals (not count_) keeps the walk self-consistent even
  // when writers race the snapshot.
  const double r = std::ceil(q * static_cast<double>(total));
  std::uint64_t rank = r < 1.0 ? 1 : static_cast<std::uint64_t>(r);
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (int i = 0; i < bucket_count; ++i) {
    cum += buckets[i];
    if (cum >= rank) return Histogram::representative(i);
  }
  return Histogram::representative(bucket_count - 1);
}

HistogramStats Histogram::stats() const noexcept {
  HistogramStats s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  std::uint64_t snap[kBucketCount];
  for (int i = 0; i < kBucketCount; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.p50 = bucket_percentile(snap, kBucketCount, 0.50);
  s.p90 = bucket_percentile(snap, kBucketCount, 0.90);
  s.p99 = bucket_percentile(snap, kBucketCount, 0.99);
  s.p999 = bucket_percentile(snap, kBucketCount, 0.999);
  return s;
}

std::vector<std::pair<int, std::uint64_t>> Histogram::nonzero_buckets() const {
  std::vector<std::pair<int, std::uint64_t>> out;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) out.emplace_back(i, c);
  }
  return out;
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace perspector::obs
