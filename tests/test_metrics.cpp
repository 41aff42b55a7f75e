// obs metrics: counter registry identity, accumulation, snapshots, reset,
// and concurrent updates.
//
// The registry is process-wide, so tests use unique metric names and
// avoid asserting on the global registry size.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"

namespace perspector::obs {
namespace {

TEST(MetricsCounter, RegistryReturnsSameInstanceForSameName) {
  Counter& a = counter("test.registry.same");
  Counter& b = counter("test.registry.same");
  EXPECT_EQ(&a, &b);

  Counter& other = counter("test.registry.other");
  EXPECT_NE(&a, &other);
}

TEST(MetricsCounter, AddAccumulates) {
  Counter& c = counter("test.counter.add");
  c.reset();
  c.add(5);
  c.increment();
  c.add(10);
  EXPECT_EQ(c.value(), 16u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsCounter, SnapshotContainsRegisteredCounters) {
  Counter& c = counter("test.counter.snapshot");
  c.reset();
  c.add(42);

  const auto snapshot = counters_snapshot();
  const auto it = std::find_if(
      snapshot.begin(), snapshot.end(),
      [](const CounterSnapshot& s) { return s.name == "test.counter.snapshot"; });
  ASSERT_NE(it, snapshot.end());
  EXPECT_EQ(it->value, 42u);

  // Snapshot is sorted by name (std::map iteration order).
  EXPECT_TRUE(std::is_sorted(snapshot.begin(), snapshot.end(),
                             [](const auto& a, const auto& b) {
                               return a.name < b.name;
                             }));
}

TEST(MetricsCounter, ConcurrentAddsAreLossless) {
  Counter& c = counter("test.counter.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricsRegistry, ResetMetricsZeroesEverything) {
  Counter& c = counter("test.reset.counter");
  Histogram& h = histogram("test.reset.histogram");
  c.add(7);
  h.record(3.0);

  reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.stats().count, 0u);
  EXPECT_DOUBLE_EQ(h.stats().sum, 0.0);
}

}  // namespace
}  // namespace perspector::obs
