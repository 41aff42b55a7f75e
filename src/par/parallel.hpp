// parallel_for / parallel_map / ordered_reduce — deterministic data
// parallelism over an index range.
//
// The determinism contract (DESIGN.md section 8): a parallel region is
// bit-identical to its serial equivalent for any thread count, because
//   * every task writes only to slots addressed by its own index, and
//   * reductions always combine those slots serially in index order —
//     never in completion order — so floating-point association is fixed.
// Threads decide *when* a value is computed, never *where it lands* or
// *in which order it is summed*.
//
// Scheduling: the caller of a region works too. It submits one helper
// task per extra thread, then every thread — helpers and caller alike —
// claims indices one at a time from a shared counter until none are left,
// so a slow index never leaves a whole pre-assigned range behind it. The
// region returns once all n indices have completed; a helper still queued
// at that point finds nothing to claim and returns without touching the
// body.
//
// Exception semantics: if one or more bodies throw, the exception of the
// lowest failing index is rethrown on the caller after every index has
// run. Claims only go up, so every lower index was run: that is the
// serial loop's first throw, independent of scheduling.
//
// Nested regions (a parallel_for inside a pool task or inside the caller's
// own share) execute serially on that thread: the result is identical by
// the contract above, and a fully occupied pool can never deadlock waiting
// on itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace perspector::par {

namespace detail {

inline obs::Counter& regions_counter() {
  static obs::Counter& c = obs::counter("par.regions");
  return c;
}

inline obs::Counter& serial_regions_counter() {
  static obs::Counter& c = obs::counter("par.regions_serial");
  return c;
}

// Threads that joined a region: the caller plus every helper that claimed
// at least one index.
inline obs::Counter& chunks_counter() {
  static obs::Counter& c = obs::counter("par.chunks");
  return c;
}

// Per-thread wall latency: one sample per thread that joins a region, so
// the p99 exposes straggler shares that the region-level span totals
// average away. The clock reads live inside obs::LatencyTimer (src/obs is
// det-clock allowlisted); recording is off the determinism-sensitive path.
inline obs::Histogram& task_latency_histogram() {
  static obs::Histogram& h = obs::histogram("par.task.latency");
  return h;
}

// True while this thread runs its own share of a region it called: a
// region nested there runs serially, as it does on a pool worker.
inline thread_local bool tls_in_caller_share = false;

// One region's shared state. Helpers hold it by shared_ptr, so a helper
// that starts after the region returned still finds a valid counter.
struct Region {
  explicit Region(std::size_t count) : n(count), error_index(count) {}

  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t completed = 0;    // indices run to the end; under mutex
  std::size_t error_index;      // lowest failing index (n: none); under mutex
  std::exception_ptr error;     // its exception; under mutex
};

// Claims indices until none are left and runs body on each. The body is
// touched only after a successful claim, and the region cannot return
// before that index completes, so `body` outlives every call made here.
template <typename Body>
void run_claims(Region& region, Body& body) {
  std::size_t i = region.next.fetch_add(1);
  if (i >= region.n) return;
  chunks_counter().increment();
  obs::Span span("par.task");
  obs::LatencyTimer latency(task_latency_histogram());
  std::size_t ran = 0;
  std::size_t error_index = region.n;
  std::exception_ptr error;
  for (; i < region.n; i = region.next.fetch_add(1)) {
    try {
      body(i);
    } catch (...) {
      // This thread's claims only go up: its first failure is its lowest.
      if (!error) {
        error_index = i;
        error = std::current_exception();
      }
    }
    ++ran;
  }
  std::lock_guard<std::mutex> lock(region.mutex);
  if (error_index < region.error_index) {
    region.error_index = error_index;
    region.error = std::move(error);
  }
  region.completed += ran;
  if (region.completed == region.n) region.done.notify_one();
}

}  // namespace detail

/// Invokes body(i) for every i in [0, n), on the caller and up to
/// thread_count() - 1 pool workers, each claiming the next unclaimed
/// index. Bodies on distinct indices may run concurrently, so they must
/// only write to index-owned state.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  if (n == 0) return;
  const std::size_t threads = thread_count();
  detail::regions_counter().increment();
  if (threads <= 1 || n == 1 || ThreadPool::on_worker_thread() ||
      detail::tls_in_caller_share) {
    detail::serial_regions_counter().increment();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  const auto region = std::make_shared<detail::Region>(n);
  const std::size_t joiners = threads < n ? threads : n;
  ThreadPool& pool = global_pool();
  for (std::size_t h = 1; h < joiners; ++h) {
    pool.submit([region, &body] { detail::run_claims(*region, body); });
  }
  detail::tls_in_caller_share = true;
  detail::run_claims(*region, body);
  detail::tls_in_caller_share = false;

  std::unique_lock<std::mutex> lock(region->mutex);
  region->done.wait(lock, [&region, n] { return region->completed == n; });
  if (region->error) std::rethrow_exception(region->error);
}

/// Returns {fn(0), ..., fn(n-1)} with each element computed possibly in
/// parallel but stored at its own index. T must be default-constructible
/// and assignable.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Parallel evaluation, strictly ordered accumulation:
///   acc = combine(acc, fn(0)); acc = combine(acc, fn(1)); ...
/// The combine chain runs serially on the caller in index order, so the
/// result is bit-identical to the serial loop for any thread count.
template <typename T, typename Fn, typename Combine>
T ordered_reduce(std::size_t n, T init, Fn&& fn, Combine&& combine) {
  const std::vector<T> values = parallel_map<T>(n, std::forward<Fn>(fn));
  T acc = std::move(init);
  for (std::size_t i = 0; i < n; ++i) {
    acc = combine(std::move(acc), values[i]);
  }
  return acc;
}

}  // namespace perspector::par
