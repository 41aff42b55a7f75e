#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "par/parallel.hpp"
#include "stats/rng.hpp"

namespace perspector::par {
namespace {

/// Restores automatic thread-count resolution when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); });
  // Destructor drains the queue, so after scope exit the task has run.
  auto future = pool.async([] { return 42; });
  EXPECT_EQ(future.get(), 42);
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SizeMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.async([] { return 7; }).get(), 7);
}

TEST(ThreadPool, EmptyTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), std::invalid_argument);
}

TEST(ThreadPool, AsyncPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.async([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, DestructorDrainsQueueBeforeJoining) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  std::atomic<bool> inner_ran{false};
  {
    // One worker: the outer task enqueues the inner one and returns; the
    // same worker then picks the inner task up.
    ThreadPool pool(1);
    pool.submit([&] {
      pool.submit([&] { inner_ran.store(true); });
    });
  }
  EXPECT_TRUE(inner_ran.load());
}

TEST(ThreadPool, WorkerThreadFlag) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(1);
  EXPECT_TRUE(pool.async([] { return ThreadPool::on_worker_thread(); }).get());
}

TEST(ThreadCount, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadCount, ExplicitOverrideWinsAndZeroRestoresAuto) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1u);
}

TEST(ThreadCount, EnvParsingIsStrict) {
  EXPECT_EQ(parse_thread_env("4"), 4u);
  EXPECT_EQ(parse_thread_env("16"), 16u);
  EXPECT_EQ(parse_thread_env(nullptr), std::nullopt);
  EXPECT_EQ(parse_thread_env(""), std::nullopt);
  EXPECT_EQ(parse_thread_env("0"), std::nullopt);     // serial is --threads 1
  EXPECT_EQ(parse_thread_env("-2"), std::nullopt);    // no signs
  EXPECT_EQ(parse_thread_env("+2"), std::nullopt);
  EXPECT_EQ(parse_thread_env(" 2"), std::nullopt);    // no whitespace
  EXPECT_EQ(parse_thread_env("2x"), std::nullopt);    // no trailing junk
  EXPECT_EQ(parse_thread_env("99999999999999999999999"), std::nullopt);
}

TEST(ThreadCount, GlobalPoolTracksThreadCount) {
  ThreadCountGuard guard;
  // The caller of a region is its N-th thread: N threads, N - 1 workers.
  set_thread_count(2);
  EXPECT_EQ(global_pool().size(), 1u);
  set_thread_count(4);
  EXPECT_EQ(global_pool().size(), 3u);
  set_thread_count(8);
  EXPECT_EQ(global_pool().size(), 7u);
}

TEST(ParallelFor, ZeroIterationsNeverInvokesBody) {
  ThreadCountGuard guard;
  set_thread_count(4);
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleIterationRunsInline) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, caller);
}

TEST(ParallelFor, SerialWhenOneThread) {
  ThreadCountGuard guard;
  set_thread_count(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  parallel_for(seen.size(),
               [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, MoreIndicesThanThreadsAndViceVersa) {
  ThreadCountGuard guard;
  set_thread_count(8);
  std::vector<int> out(3, 0);  // fewer indices than threads
  parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 3);

  std::vector<int> big(257, 0);  // non-divisible chunking
  parallel_for(big.size(), [&](std::size_t i) { big[i] = 1; });
  EXPECT_EQ(std::accumulate(big.begin(), big.end(), 0), 257);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadCountGuard guard;
  set_thread_count(4);
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("index 57");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, LowestChunkExceptionWins) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // Both the first and the last index throw; the rethrown exception must
  // be the lowest-indexed one regardless of which finishes first.
  try {
    parallel_for(100, [](std::size_t i) {
      if (i == 0) throw std::runtime_error("first");
      if (i == 99) {
        throw std::logic_error("last");
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ParallelFor, LowestIndexExceptionWinsOverEarlierThrow) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // Index 5 throws first in wall time; index 0 throws only after that.
  // The rethrown exception must still be index 0's, as in the serial loop.
  std::atomic<bool> high_thrown{false};
  try {
    parallel_for(8, [&](std::size_t i) {
      if (i == 5) {
        high_thrown.store(true);
        throw std::logic_error("index 5");
      }
      if (i == 0) {
        // Bounded, so a pool that never starts a helper cannot hang this.
        for (int spin = 0; spin < 2000 && !high_thrown.load(); ++spin) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("index 0");
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 0");
  }
  EXPECT_TRUE(high_thrown.load());
}

TEST(ParallelFor, UnevenBodiesRunEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (std::size_t threads : {2u, 3u, 8u}) {
    set_thread_count(threads);
    for (std::size_t n = 1; n <= 200; ++n) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, [&](std::size_t i) {
        // Cost varies ~50x across indices so claims interleave unevenly.
        volatile std::size_t sink = 0;
        for (std::size_t spin = 0; spin < 20 * (1 + (i * 7919) % 50); ++spin) {
          sink = sink + spin;
        }
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

/// Occupies every worker of the global pool until release() (or scope
/// exit), so a region can only make progress on its caller. The latches
/// are shared with the blocking tasks, which may still be waking up after
/// the blocker is gone.
class PoolBlocker {
 public:
  PoolBlocker() {
    const std::size_t workers = global_pool().size();
    auto latches = std::make_shared<Latches>(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      global_pool().submit([latches] {
        latches->started.count_down();
        latches->gate.wait();
      });
    }
    latches->started.wait();
    latches_ = std::move(latches);
  }
  ~PoolBlocker() { release(); }
  PoolBlocker(const PoolBlocker&) = delete;
  PoolBlocker& operator=(const PoolBlocker&) = delete;

  void release() {
    if (latches_) latches_->gate.count_down();
    latches_.reset();
  }

 private:
  struct Latches {
    explicit Latches(std::size_t workers)
        : started(static_cast<std::ptrdiff_t>(workers)) {}
    std::latch started;
    std::latch gate{1};
  };
  std::shared_ptr<Latches> latches_;
};

TEST(ParallelFor, RegionFinishesOnCallerWhileWorkersAreHeld) {
  ThreadCountGuard guard;
  set_thread_count(4);
  PoolBlocker blocker;
  // Every worker sits on the latch and the helpers queue behind it, so
  // the caller alone claims and runs every index.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  parallel_for(seen.size(),
               [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
  // The queued helpers start now, find nothing to claim and touch nothing.
  blocker.release();
}

TEST(ParallelFor, NestedRegionRunsInlineInCallerShare) {
  ThreadCountGuard guard;
  set_thread_count(4);
  PoolBlocker blocker;
  const auto caller = std::this_thread::get_id();
  std::vector<int> out(8 * 16, 0);
  parallel_for(8, [&](std::size_t outer) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    // A region nested in the caller's share must run inline; a pool
    // fan-out here would wait forever on the held workers.
    parallel_for(16, [&](std::size_t inner) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      out[outer * 16 + inner] = 1;
    });
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8 * 16);
}

TEST(ParallelFor, NestedRegionRunsSerialOnWorker) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<int> out(8 * 16, 0);
  parallel_for(8, [&](std::size_t outer) {
    // Inside a pool task: the nested region must run inline (no deadlock
    // even when every worker sits in this body) and on this same thread.
    const auto worker = std::this_thread::get_id();
    parallel_for(16, [&](std::size_t inner) {
      EXPECT_EQ(std::this_thread::get_id(), worker);
      out[outer * 16 + inner] = 1;
    });
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8 * 16);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const auto squares =
      parallel_map<int>(50, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(squares.size(), 50u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(OrderedReduce, BitIdenticalToSerialSum) {
  ThreadCountGuard guard;
  // Values spanning many magnitudes make float addition order-sensitive;
  // the ordered reduction must reproduce the serial sum exactly.
  stats::Rng rng(99);
  std::vector<double> values(2048);
  for (double& v : values) v = rng.uniform(-1.0, 1.0) * rng.uniform(0.0, 1e12);

  set_thread_count(1);
  double serial = 0.0;
  for (double v : values) serial += v;

  for (std::size_t threads : {2u, 5u, 8u}) {
    set_thread_count(threads);
    const double parallel = ordered_reduce<double>(
        values.size(), 0.0, [&](std::size_t i) { return values[i]; },
        [](double acc, double v) { return acc + v; });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace perspector::par
