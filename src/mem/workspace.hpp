// Reusable per-thread scratch workspaces (DESIGN.md section 9).
//
// Hot kernels (DTW rolling rows, silhouette accumulators, k-means seeding
// buffers) used to heap-allocate their temporaries on every call — inside
// parallel_for chunks that means thousands of allocator round trips per
// score. A Scratch<T> borrows a buffer from a thread-local free list and
// returns it on scope exit, so steady-state kernel calls allocate nothing.
//
// Ownership rules:
//   * a Scratch must be acquired and released on the same thread (RAII
//     inside one function body guarantees this — never store a Scratch in
//     a structure that outlives the call or crosses threads);
//   * buffer contents are UNSPECIFIED on acquire — kernels must write
//     before they read (every current user starts with std::fill). This is
//     what keeps reuse invisible to the determinism contract: outputs are
//     a function of explicit writes only, never of what a previous borrower
//     left behind;
//   * the per-thread free list is bounded (kMaxPooled buffers per type), so
//     a one-off giant temporary cannot pin memory for the process lifetime.
//
// An owner that outlives one call may hold a buffer from
// BufferPool<T>::local() directly (sim::Cache keeps its way rows this
// way). Pools are per thread and never shared, so a buffer released on a
// different thread than the one that acquired it just moves to the
// releasing thread's pool; no pool is touched by two threads.
//
// Observability: `mem.scratch.acquires` counts every borrow,
// `mem.scratch.reuses` the borrows served without touching the allocator.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perspector::mem {

namespace detail {

obs::Counter& scratch_acquires();
obs::Counter& scratch_reuses();

/// Thread-local LIFO free list of vectors of T. LIFO keeps the hottest
/// (cache-warm) buffer on top.
template <typename T>
class BufferPool {
 public:
  static constexpr std::size_t kMaxPooled = 16;

  static BufferPool& local() {
    thread_local BufferPool pool;
    return pool;
  }

  std::vector<T> acquire(std::size_t n) {
    scratch_acquires().increment();
    if (!free_.empty()) {
      scratch_reuses().increment();
      std::vector<T> buf = std::move(free_.back());
      free_.pop_back();
      buf.resize(n);
      return buf;
    }
    return std::vector<T>(n);
  }

  void release(std::vector<T>&& buf) {
    if (free_.size() < kMaxPooled) free_.push_back(std::move(buf));
    // else: drop on the floor; the allocator reclaims it.
  }

 private:
  std::vector<std::vector<T>> free_;
};

}  // namespace detail

/// RAII borrow of an n-element scratch buffer of T from the calling
/// thread's pool. Contents are unspecified; write before reading.
template <typename T>
class Scratch {
 public:
  explicit Scratch(std::size_t n)
      : buf_(detail::BufferPool<T>::local().acquire(n)) {}
  ~Scratch() { detail::BufferPool<T>::local().release(std::move(buf_)); }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T* data() noexcept { return buf_.data(); }
  const T* data() const noexcept { return buf_.data(); }
  std::size_t size() const noexcept { return buf_.size(); }
  T& operator[](std::size_t i) noexcept { return buf_[i]; }
  const T& operator[](std::size_t i) const noexcept { return buf_[i]; }
  std::span<T> span() noexcept { return buf_; }
  std::span<const T> span() const noexcept { return buf_; }
  std::vector<T>& vec() noexcept { return buf_; }

 private:
  std::vector<T> buf_;
};

}  // namespace perspector::mem
