#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace perspector::obs {
namespace {

/// Deterministic value stream with a long-tailed, multi-octave shape
/// (xorshift64; no std::rand in tests either).
class ValueStream {
 public:
  explicit ValueStream(std::uint64_t seed) : state_(seed | 1) {}
  double next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    // Map to (0, 2^20) microseconds-ish with density at the low end.
    const double unit =
        static_cast<double>(state_ >> 11) / 9007199254740992.0;  // [0,1)
    return std::ldexp(1.0, static_cast<int>(unit * 24.0) - 4) *
           (1.0 + unit);
  }

 private:
  std::uint64_t state_;
};

/// The reference percentile: quantize every sample through the bucket
/// mapping, sort, take the rank-th representative. Bit-exact against
/// Histogram::stats() by construction of the shared rank rule.
double reference_percentile(std::vector<double> samples, double q) {
  std::vector<double> quantized;
  quantized.reserve(samples.size());
  for (double v : samples) {
    quantized.push_back(
        Histogram::representative(Histogram::bucket_of(v)));
  }
  std::sort(quantized.begin(), quantized.end());
  const auto total = quantized.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, total);
  return quantized[rank - 1];
}

TEST(ObsHistogram, BucketMappingIsMonotoneAcrossOctaves) {
  int previous = 0;
  for (double v = 1e-5; v < 1e13; v *= 1.0078125) {
    const int bucket = Histogram::bucket_of(v);
    ASSERT_GE(bucket, previous) << "value " << v;
    ASSERT_LT(bucket, Histogram::kBucketCount);
    previous = bucket;
  }
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::max()),
            Histogram::kBucketCount - 1);
}

TEST(ObsHistogram, NonPositiveAndNonFiniteLandInUnderflowBucket) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-3.5), 0);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()),
            0);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            0);
  EXPECT_EQ(Histogram::representative(0), 0.0);
}

TEST(ObsHistogram, RepresentativeBoundsRelativeError) {
  // Midpoint of a 1/32-wide sub-bucket: at most ~1/64 relative error.
  ValueStream stream(42);
  for (int i = 0; i < 20000; ++i) {
    const double v = stream.next();
    const double rep = Histogram::representative(Histogram::bucket_of(v));
    EXPECT_NEAR(rep, v, v / 60.0) << "value " << v;
  }
}

TEST(ObsHistogram, StatsMatchExactAggregates) {
  Histogram h;
  h.record(10.0);
  h.record(20.0);
  h.record(30.0);
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.min, 10.0);
  EXPECT_EQ(stats.max, 30.0);
  EXPECT_EQ(stats.sum, 60.0);
  EXPECT_EQ(stats.mean(), 20.0);
}

TEST(ObsHistogram, PercentilesBitExactVsSortedReference) {
  Histogram h;
  ValueStream stream(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double v = stream.next();
    samples.push_back(v);
    h.record(v);
  }
  const HistogramStats stats = h.stats();
  // Bit-exact (EXPECT_EQ on doubles is deliberate): both sides quantize
  // through the same bucket mapping and the same rank rule.
  EXPECT_EQ(stats.p50, reference_percentile(samples, 0.50));
  EXPECT_EQ(stats.p90, reference_percentile(samples, 0.90));
  EXPECT_EQ(stats.p99, reference_percentile(samples, 0.99));
  EXPECT_EQ(stats.p999, reference_percentile(samples, 0.999));
}

TEST(ObsHistogram, PercentilesIndependentOfArrivalOrder) {
  ValueStream stream(1234);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(stream.next());

  Histogram forward;
  for (double v : samples) forward.record(v);
  Histogram backward;
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    backward.record(*it);
  }
  const HistogramStats a = forward.stats();
  const HistogramStats b = backward.stats();
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
}

TEST(ObsHistogram, SingleSampleAllPercentilesCollapse) {
  Histogram h;
  h.record(123.0);
  const HistogramStats stats = h.stats();
  const double rep = Histogram::representative(Histogram::bucket_of(123.0));
  EXPECT_EQ(stats.p50, rep);
  EXPECT_EQ(stats.p999, rep);
}

TEST(ObsHistogram, EmptyHistogramIsAllZero) {
  Histogram h;
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.p50, 0.0);
  EXPECT_EQ(stats.p999, 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(ObsHistogram, ResetClearsEverything) {
  Histogram h;
  h.record(5.0);
  h.record(50.0);
  h.reset();
  EXPECT_EQ(h.stats().count, 0u);
  EXPECT_TRUE(h.nonzero_buckets().empty());
  h.record(7.0);
  EXPECT_EQ(h.stats().count, 1u);
}

// The tsan-critical test: concurrent writers, then reconcile totals.
// Under the debug-tsan CI config this doubles as a data-race check on
// the relaxed bucket increments and the min/max/sum CAS loops.
TEST(ObsHistogram, ConcurrentRecordsReconcileExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&h, worker] {
      ValueStream stream(static_cast<std::uint64_t>(worker) * 977 + 11);
      for (int i = 0; i < kPerThread; ++i) h.record(stream.next());
    });
  }
  for (auto& t : threads) t.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, expected);

  // Every recorded sample landed in exactly one bucket: the bucket sums
  // must reconcile with the total count after writers quiesce.
  std::uint64_t bucket_total = 0;
  for (const auto& [bucket, count] : h.nonzero_buckets()) {
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, Histogram::kBucketCount);
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, expected);
  EXPECT_GT(stats.min, 0.0);
  EXPECT_GE(stats.max, stats.min);
  EXPECT_GE(stats.sum, stats.min * static_cast<double>(expected));
}

TEST(ObsHistogram, RegistryReturnsStableReferences) {
  reset_metrics();
  Histogram& a = histogram("test.histo.registry");
  Histogram& b = histogram("test.histo.registry");
  EXPECT_EQ(&a, &b);
  a.record(4.0);
  const auto snapshot = histograms_snapshot();
  const auto it = std::find_if(
      snapshot.begin(), snapshot.end(),
      [](const auto& s) { return s.name == "test.histo.registry"; });
  ASSERT_NE(it, snapshot.end());
  EXPECT_EQ(it->stats.count, 1u);

  // reset_metrics zeroes histograms alongside counters.
  reset_metrics();
  EXPECT_EQ(histogram("test.histo.registry").stats().count, 0u);
}

TEST(ObsHistogram, LatencyTimerRecordsElapsedMicrosecondsOnDestruction) {
  Histogram& h = histogram("test.histo.timer");
  h.reset();
  {
    LatencyTimer timer(h);
    // Nothing recorded while the scope is still open.
    EXPECT_EQ(h.stats().count, 0u);
  }
  {
    LatencyTimer timer(h);
  }
  const HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 2u);
  // Elapsed time is non-negative and plausibly small (well under a
  // minute even on a loaded CI machine).
  EXPECT_GE(stats.min, 0.0);
  EXPECT_LT(stats.max, 60.0e6);
}

TEST(ObsHistogram, SnapshotSortedByName) {
  reset_metrics();
  histogram("test.histo.b").record(1.0);
  histogram("test.histo.a").record(1.0);
  const auto snapshot = histograms_snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
  reset_metrics();
}

}  // namespace
}  // namespace perspector::obs
