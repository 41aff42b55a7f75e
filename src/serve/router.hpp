// serve::Router — the multi-process serving tier (DESIGN.md section 13).
//
// The Router forks N worker processes at construction, each running a
// serve::Engine behind the NDJSON protocol over its end of a socketpair,
// and consistent-hashes every request's 128-bit result key across them:
//
//   result key -> point on a 64-vnodes-per-worker hash ring -> the first
//   *alive* worker at or after that point.
//
// A dead worker's shards slide to the next alive worker; every other
// shard's assignment — and therefore its answers — is untouched. Workers
// are monitored through their pipes: EOF or a send failure means the
// process died. A death observed *before* a request was sent re-shards
// the request (nothing was lost); a death observed *while* a request was
// in flight answers that request with a structured `unavailable` error —
// never a transparent retry (the request may have had side effects on
// shared state) and never a hang. Crashed workers are respawned (up to
// max_restarts across the tier) when restart_on_crash is set.
//
// Results are shared across workers and across restarts through the
// router-owned DurableCache: an in-memory LRU over the disk-backed
// segment store (cache_dir). Workers themselves run memory-only — the
// store directory has exactly one writer. The router checks its cache
// before sharding, so a warm request never touches a worker.
//
// Byte-identity invariant: responses are byte-identical across
// --workers 1/2/8 and across a kill-and-restart cycle. This falls out
// of three facts: reports are deterministic (engine contract), trace
// ids travel with forwarded requests (the worker session reuses them),
// and the hit/miss cache label depends only on the request *history*,
// which the router-level cache makes worker-count-independent.
//
// Worker processes: forked from the constructing thread, they set the
// par:: thread count to 1 before building their Engine (no threads are
// ever created after a potentially multi-threaded fork — TSan-clean,
// and N single-threaded workers are the parallelism). Each worker dies
// with the router (PDEATHSIG) or on EOF of its pipe.
//
// Thread-safety: score/score_batch may be called concurrently; each
// worker channel is serialized by its own mutex (lockstep
// request/response), so concurrent requests to different shards proceed
// in parallel.
//
// Counters: router.requests, router.forwarded, router.cache_hit,
// router.durable_hit, router.unavailable, router.crashes,
// router.restarts, plus the router.forward.latency histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/backend.hpp"
#include "serve/durable_cache.hpp"
#include "serve/engine.hpp"

namespace perspector::serve {

struct RouterOptions {
  /// Worker processes to fork (>= 1).
  std::size_t workers = 2;
  /// Per-worker engine options. cache_dir is ignored for workers (the
  /// router owns the store; workers run memory-only).
  EngineOptions engine;
  /// Router-level in-memory result cache budget.
  std::size_t router_cache_bytes = 64ull << 20;
  /// Disk-backed result store directory; empty = memory-only tier.
  std::string cache_dir;
  std::uint64_t store_bytes = 256ull << 20;
  store::FaultInjector* store_faults = nullptr;
  /// Respawn crashed workers (until max_restarts is exhausted).
  bool restart_on_crash = true;
  std::size_t max_restarts = 8;
};

class Router : public ScoreBackend {
 public:
  /// Forks the workers and waits for each one's hello line. Throws
  /// std::runtime_error when a worker cannot be spawned or the store
  /// cannot be opened.
  explicit Router(RouterOptions options);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  ScoreResponse score(const ScoreRequest& request) override;
  std::vector<ScoreResponse> score_batch(
      const std::vector<ScoreRequest>& requests) override;
  /// Forwards a live-suite mutation to the worker that owns the suite
  /// *name* on the hash ring (resident-name scores route the same way,
  /// so a suite's mutations and scores always meet the same worker).
  /// Resident results bypass the router's cache tiers entirely: the
  /// name-derived wire key never changes across mutations, so only the
  /// owning worker — which keys by live content digest — may cache them.
  /// A respawned worker loses its residents; subsequent mutations are
  /// answered with an honest "unknown resident suite" bad_request.
  MutateResponse mutate(const MutateRequest& request) override;
  /// Forwards a job op to the worker that owns the job id on the hash
  /// ring (the id is a pure function of the spec, so the router derives
  /// it for submits without asking anyone). Job ops are idempotent —
  /// resubmitting a spec returns the same id, status/watch are reads,
  /// cancel is an at-least-once flag — so unlike scores, a worker death
  /// mid-op is safely retried against the respawned worker, which
  /// transparently resumes the job from its checkpoint log (workers
  /// keep the shared jobs directory across respawns). job_list fans out
  /// to every alive worker and merges. Responses carry "worker": the
  /// owning worker's index.
  JobResponse job(const JobRequest& request) override;
  Key128 content_key(const ScoreRequest& request) override;
  std::string metrics_line(const std::string& id) override;
  std::string stats_line(const std::string& id) override;
  std::string shard_stats_line(const std::string& id) override;

  // Topology introspection (tests, shard_stats).
  std::size_t worker_count() const noexcept { return workers_.size(); }
  std::int64_t worker_pid(std::size_t index) const;
  bool worker_alive(std::size_t index) const;
  std::uint64_t total_restarts() const noexcept {
    return restarts_.load(std::memory_order_relaxed);
  }
  /// The worker index a result key routes to right now (alive walk).
  /// -1 when no worker is alive.
  int shard_of(const Key128& result_key) const;
  /// Test hook: SIGKILLs a worker. Death is observed (and the respawn
  /// policy applied) on the next I/O against it.
  bool kill_worker(std::size_t index);

  std::size_t cache_entries() const { return cache_->entries(); }
  bool cache_durable() const { return cache_->durable(); }
  void flush_cache() { cache_->flush(); }

 private:
  struct Worker {
    std::mutex channel;  // lockstep write-request/read-response
    int fd = -1;         // guarded by channel
    std::string rx;      // partial-line buffer, guarded by channel
    // Lock-free views so kill_worker/shard_stats never wait behind an
    // in-flight exchange (killing a busy worker is the whole point of
    // the crash tests).
    std::atomic<std::int64_t> pid{-1};
    std::atomic<bool> alive{false};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> forwarded{0};
  };

  [[noreturn]] static void worker_main(int fd, std::size_t index,
                                       const EngineOptions& engine_options);
  /// Spawns (or respawns) worker `index`; channel mutex must be held by
  /// the caller for a respawn. False when the spawn failed.
  bool spawn_locked(std::size_t index);
  /// Marks a worker dead, reaps it, and applies the respawn policy.
  /// Channel mutex must be held.
  void handle_death_locked(std::size_t index);
  /// One lockstep exchange; false when the worker died mid-exchange
  /// (death already handled). `sent` reports whether the request line
  /// was fully written before the failure.
  bool exchange(std::size_t index, const std::string& line,
                std::string& response_line, bool& sent);
  /// The forwarding loop of every op: sends `line` to the worker that
  /// owns `key` and decodes its reply, counting it forwarded. A worker
  /// found dead before the line reached it is routed around (or was
  /// respawned) and the line goes out again. A worker that dies after
  /// the line reached it leaves the outcome unknown: the line is sent
  /// again only when `retry_sent` (job ops, which are idempotent);
  /// otherwise the request is answered `unavailable`.
  template <class Reply>
  Reply forward(const RequestHeader& request, const std::string& line,
                const Key128& key, bool retry_sent);
  /// forward() for a score: its line without the deadline.
  ScoreResponse forward_score(const ScoreRequest& request,
                              const Key128& result_key);

  RouterOptions options_;
  EngineOptions worker_engine_options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Consistent-hash ring: (point, worker index), sorted by point. Built
  // once — death is handled by skipping dead owners at lookup time, so
  // live shards never move.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
  std::atomic<std::uint64_t> restarts_{0};
  // Opened in the constructor body *after* the workers fork, so children
  // never inherit the store's descriptors or index mapping; non-null for
  // the life of the router (memory-only when cache_dir is empty).
  std::unique_ptr<DurableCache> cache_;
  DigestCache digests_;
};

}  // namespace perspector::serve
