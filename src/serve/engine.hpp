// serve::Engine — the resident scoring front end (DESIGN.md section 10).
//
// A one-shot `perspector score` pays process startup, suite construction,
// and workspace priming on every invocation. The Engine keeps all of that
// warm in one process:
//
//   * a persistent parallel backend — the par:: global thread pool is
//     spun up once at construction and reused by every scoring pass;
//   * a pool of warm core::ScoringWorkspace instances keyed by suite
//     content, so re-scoring a suite (same data + event filter) serves
//     the TrendScore from the primed pairwise-DTW cache;
//   * a result cache keyed by the 128-bit result key (content key +
//     event filter + code version; see backend.hpp) — a repeat request
//     returns the finished report without touching the pipeline. With
//     `cache_dir` set, the cache writes through to a disk-backed
//     segment store that survives restarts;
//   * coalescing of duplicate in-flight requests: concurrent identical
//     requests share one computation and all receive its result;
//   * batching: score_batch() runs one deterministic parallel pass over
//     a group of requests (par::parallel_for, index-owned slots), which
//     parallelizes *across* requests while each request's own kernels
//     degrade to serial on the worker — bit-identical either way.
//
// The warm path is hash-free: the content key of a built-in request
// digests (name, instructions) — a handful of bytes — and digests of
// in-process matrices are memoized per matrix (DigestCache), so a repeat
// request never re-walks counter samples just to find its cache key. A
// live suite keeps one digest per row in step with its edits and folds
// them into its key, so an edit re-hashes only the rows it touches.
//
// Determinism contract: the `report` field of a successful response is
// byte-identical to the one-shot CLI output for the same inputs —
// `perspector score` for inline data, `perspector demo` for built-in
// suites — at any thread count, cold or warm cache. Cached entries are
// only ever keyed by full content, computed reports go through exactly
// the one-shot code path (core::Perspector + core::suite_report), and
// the workspace cache serves bit-equal trend values by design (see
// core/scoring_workspace.hpp), so a hit returns the same bytes a miss
// would have produced.
//
// Thread-safety: score() and score_batch() may be called from any number
// of threads concurrently.
//
// The stats op adds a `resident` object: the result cache's bytes and
// each resident suite's ScoringWorkspace::resident_bytes().
//
// Counters: serve.requests, serve.cache_hit, serve.cache_miss,
// serve.durable_hit, serve.coalesced, serve.batched, serve.errors,
// serve.cache_evictions, plus the serve.request.latency histogram
// (count/min/max/sum and p50/p90/p99/p99.9 via the stats op).
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/counter_matrix.hpp"
#include "jobs/scheduler.hpp"
#include "serve/backend.hpp"
#include "serve/content_hash.hpp"
#include "serve/durable_cache.hpp"

namespace perspector::core {
class ScoringWorkspace;
}

namespace perspector::serve {

struct EngineOptions {
  /// Result-cache budget in bytes; 0 disables result caching.
  std::size_t cache_bytes = 64ull << 20;
  /// Warm ScoringWorkspace slots (per distinct suite content + filter).
  std::size_t workspace_slots = 8;
  /// Simulated built-in suites kept resident (per name + instructions).
  std::size_t suite_slots = 4;
  /// Directory for the disk-backed result store; empty = memory-only.
  /// At most one live process may own a given directory.
  std::string cache_dir;
  /// On-disk budget for the segment store (cache_dir mode).
  std::uint64_t store_bytes = 256ull << 20;
  /// Test seam for the segment store (see store/fault_injector.hpp).
  store::FaultInjector* store_faults = nullptr;
  /// Async-job scheduler knobs (DESIGN.md section 15). An empty
  /// `jobs.checkpoint_dir` runs jobs in memory only (no resume).
  jobs::SchedulerOptions jobs;
};

class Engine : public ScoreBackend {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Scores one request (thread-safe). Never throws: failures come back
  /// as structured error responses.
  ScoreResponse score(const ScoreRequest& request) override;

  /// Scores a group of requests in one deterministic parallel pass.
  /// Response order matches request order; duplicate requests within the
  /// batch coalesce onto one computation.
  std::vector<ScoreResponse> score_batch(
      const std::vector<ScoreRequest>& requests) override;

  /// Applies one live-suite mutation (load/add/drop/append; DESIGN.md
  /// section 14) and returns the mutated suite's re-score. The resident
  /// suite keeps its own ScoringWorkspace: add_workload and
  /// append_samples recompute one DTW strip per touched workload in
  /// that workload's row slot (ScoringWorkspace::upsert_row) and
  /// drop_workload frees a slot — never a cold O(n^2) re-prime. Its
  /// ClusterScore memo makes an append_samples re-score skip the k-means
  /// sweep, since appended samples leave the aggregates unchanged. The
  /// response report is byte-identical to a cold score of the mutated
  /// content, and the result cache is keyed by that content's digest, so
  /// an add→drop round-trip is an honest cache hit. A score request
  /// naming a resident suite (`{"op":"score","suite":"live"}`) resolves
  /// it the same way — resident names shadow nothing (built-in names are
  /// rejected at load) and their cache keys track the live content.
  MutateResponse mutate(const MutateRequest& request) override;

  /// Serves one async-job op against the in-process jobs::Scheduler
  /// (DESIGN.md section 15). Submission answers immediately; the search
  /// advances via jobs_step() whenever the serving loop is idle.
  JobResponse job(const JobRequest& request) override;
  bool jobs_runnable() override;
  void jobs_step(const std::function<bool()>& should_yield = {}) override;

  Key128 content_key(const ScoreRequest& request) override;
  std::string metrics_line(const std::string& id) override;
  std::string stats_line(const std::string& id) override;
  std::string shard_stats_line(const std::string& id) override;

  const EngineOptions& options() const noexcept { return options_; }
  /// Direct scheduler access (tests, CLI drain loops).
  jobs::Scheduler& scheduler() { return *jobs_; }
  std::size_t cache_entries() const { return cache_.entries(); }
  std::size_t cache_bytes_used() const { return cache_.bytes_used(); }
  bool cache_durable() const { return cache_.durable(); }
  /// Flushes the durable tier's watermark (no-op without cache_dir).
  void flush_cache() { cache_.flush(); }

 private:
  /// One live suite made resident by load_suite: its current matrix, the
  /// warm workspace the delta ops extend incrementally, and a writer
  /// lock serializing mutations against resident-name scores (scores
  /// hold it shared across the compute; mutations hold it exclusive
  /// across mutation + re-score, per the ScoringWorkspace contract).
  struct ResidentSuite {
    std::shared_mutex rw;
    std::shared_ptr<const core::CounterMatrix> data;
    std::shared_ptr<core::ScoringWorkspace> workspace;
    std::uint64_t version = 0;
    /// Event filter the workspace is (or will be) primed under; delta
    /// upserts must present the identically filtered counter view.
    std::string events;
    /// hash_counter_row of every row of `data`, in row order, and their
    /// fold_counter_matrix: the content key of `data`, equal to a cold
    /// hash_counter_matrix of it.
    std::vector<Key128> row_digests;
    Key128 digest;
  };

  /// Brings `resident`'s row digests in step with `next` — `rehash` lists
  /// the rows whose content changed or that are new — and folds the key.
  static void update_digest(ResidentSuite& resident,
                            const core::CounterMatrix& next,
                            const std::vector<std::size_t>& rehash);

  std::shared_ptr<const core::CounterMatrix> resolve_data(
      const ScoreRequest& request);
  std::shared_ptr<core::ScoringWorkspace> workspace_for(const Key128& key);
  std::shared_ptr<ResidentSuite> find_resident(const std::string& name);
  /// score() minus the latency accounting / trace propagation wrapper.
  ScoreResponse score_inner(const ScoreRequest& request);
  /// mutate() minus the latency accounting / trace propagation wrapper.
  MutateResponse mutate_inner(const MutateRequest& request);
  /// Re-scores a resident suite's current content (cache tiers first,
  /// then compute_with on its warm workspace). Caller holds its lock.
  MutateResponse rescore_locked(const MutateRequest& request,
                                ResidentSuite& resident);
  ScoreResponse compute(const ScoreRequest& request,
                        const core::CounterMatrix& data,
                        const Key128& result_key);
  /// The scoring pass itself, against an explicit workspace (residents
  /// bring their own; compute() looks one up by result key).
  ScoreResponse compute_with(const ScoreRequest& request,
                             const core::CounterMatrix& data,
                             core::ScoringWorkspace& workspace);

  EngineOptions options_;
  DurableCache cache_;
  DigestCache digests_;
  std::unique_ptr<jobs::Scheduler> jobs_;

  // Duplicate in-flight requests wait on the first one's future instead
  // of recomputing. Entries live only while the computation runs.
  std::mutex inflight_mutex_;
  std::unordered_map<Key128, std::shared_future<ScoreResponse>, Key128Hash>
      inflight_;

  // Warm workspaces, LRU by result key (suite content + filter + code
  // version, folded once more so the two key spaces stay disjoint).
  std::mutex workspace_mutex_;
  std::list<std::pair<Key128, std::shared_ptr<core::ScoringWorkspace>>>
      workspaces_;

  // Resident simulated built-in suites, LRU by (name, instructions).
  std::mutex suite_mutex_;
  std::list<std::pair<Key128, std::shared_ptr<const core::CounterMatrix>>>
      suites_;

  // Live suites by name (load_suite / add_workload / drop_workload /
  // append_samples). Deliberately not an LRU: a resident suite is paid
  // for by an explicit load and stays until replaced by another load.
  std::mutex resident_mutex_;
  std::map<std::string, std::shared_ptr<ResidentSuite>> residents_;
};

/// True when `name` names a built-in suite model.
bool is_builtin_suite(const std::string& name);

/// The built-in simulation every layer shares (core::simulate_builtin).
using core::simulate_builtin;

/// True when `name` is a recognized event-group name (all/llc/tlb/branch).
bool is_event_group(const std::string& name);

}  // namespace perspector::serve
