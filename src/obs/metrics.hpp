// Named metrics: monotonic counters (and, in obs/histogram.hpp, latency
// histograms).
//
// The registry hands out references that stay valid for the life of the
// process, so hot paths pay the name lookup once:
//
//   static obs::Counter& cells = obs::counter("dtw.cells");
//   cells.add(visited);
//
// Registration takes a mutex; the increment itself is a single relaxed
// atomic add, so instrumentation can live inside kernels permanently.
// Prefer one bulk add per call over per-element increments.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perspector::obs {

/// Monotonic counter. add() is wait-free; value() is a relaxed load.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Returns the counter registered under `name`, creating it on first use.
/// The reference is valid for the remainder of the process.
Counter& counter(std::string_view name);

/// Point-in-time snapshot of one named counter.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

/// All registered counters, sorted by name. Zero-valued counters are
/// included — registration implies intent to report.
std::vector<CounterSnapshot> counters_snapshot();

/// Resets every registered counter and histogram to zero
/// (test helper; registrations themselves are kept). Histograms live in
/// obs/histogram.hpp but share this registry.
void reset_metrics();

}  // namespace perspector::obs
