#include "par/thread_pool.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace perspector::par {

namespace {

// The pool whose worker loop is running on this thread, if any.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // This pool's own workers may enqueue during shutdown (nested submit
    // while the destructor drains): the submitting worker re-checks the
    // queue before exiting, so its task always runs. Any other thread's
    // submit can race the final join and is rejected instead.
    if (stop_ && tls_worker_pool != this) {
      throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  static obs::Counter& tasks = obs::counter("par.tasks");
  tasks.increment();
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: submitted work always runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() noexcept {
  return tls_worker_pool != nullptr;
}

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

namespace {

// The process-wide pool registry. src/par/ is the one layer allowed to
// own shared mutable state: everything below is guarded by g_pool_mutex.
// lint:allow(par-global): explicit override slot, read/written under lock
std::size_t g_explicit_threads = 0;

std::mutex g_pool_mutex;  // lint:allow(par-global): the guard itself
// lint:allow(par-global): singleton pool, created/replaced under lock
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

std::optional<std::size_t> parse_thread_env(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  std::size_t value = 0;
  for (const char* p = text; *p; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return std::nullopt;
    const std::size_t digit = static_cast<std::size_t>(*p - '0');
    if (value > (SIZE_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

void set_thread_count(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_explicit_threads = n;
}

std::size_t thread_count() {
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_explicit_threads != 0) return g_explicit_threads;
  }
  // getenv races with setenv, but nothing in the process mutates the
  // environment after main() starts; first read happens at pool creation.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const auto env = parse_thread_env(std::getenv("PERSPECTOR_THREADS"))) {
    return *env;
  }
  return hardware_threads();
}

ThreadPool& global_pool() {
  // The caller of a region is its N-th thread, so N threads need N - 1
  // workers (at least one, the smallest pool there is).
  const std::size_t threads = thread_count();
  const std::size_t want = threads > 2 ? threads - 1 : 1;
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->size() != want) {
    g_pool.reset();  // join the old workers before spawning the new pool
    g_pool = std::make_unique<ThreadPool>(want);
  }
  return *g_pool;
}

}  // namespace perspector::par
