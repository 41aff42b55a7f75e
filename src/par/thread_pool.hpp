// Deterministic parallel execution: a small fixed-size thread pool.
//
// Design constraints (see DESIGN.md "Parallelism"):
//   * dependency-free — par may be linked by every other module, so it
//     depends only on obs and the standard library;
//   * no work stealing — tasks run from one shared FIFO queue. Determinism
//     comes from *where results go* (indexed slots, ordered reduction in
//     parallel.hpp), never from who runs what, so a simple queue suffices
//     and keeps the pool auditable;
//   * nested parallel regions degrade to serial execution on the calling
//     worker (see ThreadPool::on_worker_thread), or on a region's caller
//     inside its own share, instead of deadlocking a fully busy pool.
//
// Thread-count resolution, strongest wins:
//   1. set_thread_count(n) — the CLI's --threads flag lands here;
//   2. PERSPECTOR_THREADS in the environment (strict digits, >= 1;
//      anything else is ignored);
//   3. std::thread::hardware_concurrency() (at least 1).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace perspector::par {

/// Fixed-size FIFO thread pool. submit() never blocks; the destructor
/// drains every queued task before joining the workers.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Safe to call from worker threads (nested submit);
  /// the queue is unbounded so this never blocks.
  void submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result; exceptions
  /// thrown by the callable surface through future::get().
  template <typename F>
  auto async(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    submit([task] { (*task)(); });
    return future;
  }

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// parallel_for uses this to run nested regions serially instead of
  /// submitting subtasks a fully occupied pool could never start.
  static bool on_worker_thread() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Hardware thread count, never less than 1.
std::size_t hardware_threads() noexcept;

/// Overrides the resolved thread count for all subsequent parallel regions.
/// 0 restores automatic resolution (env, then hardware). Not safe to call
/// concurrently with a running parallel region.
void set_thread_count(std::size_t n);

/// The thread count parallel regions will use (resolution order above).
std::size_t thread_count();

/// Strict parse of a PERSPECTOR_THREADS-style value: digits only, >= 1.
/// Returns nullopt for anything else (empty, signs, junk, zero, overflow).
std::optional<std::size_t> parse_thread_env(const char* text);

/// The process-wide pool: thread_count() - 1 workers (at least 1), since
/// the caller of a parallel region works as its N-th thread. Recreated on
/// demand if set_thread_count changed the size since the last call. Never
/// called on the serial path (thread_count() == 1 regions run inline).
ThreadPool& global_pool();

}  // namespace perspector::par
