// jobs::Scheduler — bounded run queue, fair-share admission, sliced
// execution, checkpoint/resume (DESIGN.md section 15).
//
// The scheduler owns every job in the process. It never starts threads:
// the serving loop calls step() whenever its input is idle, and each
// step advances ONE job by at most `slice_candidates` candidate
// evaluations (the evaluations themselves parallelize internally on the
// deterministic par:: pool). A slice also ends at a candidate boundary
// when the caller's should_yield predicate says a request is waiting, so
// a request waits for at most one candidate — except behind a step that
// had to build its search context, which runs a full slice. Jobs
// interleave round-robin at slice granularity, and a single-threaded
// forked worker runs jobs without violating the no-threads-in-workers
// invariant.
//
// Admission is two-tier: a global cap on active (queued + running) jobs
// and a per-client cap, both answered with a structured `overloaded`
// error — a greedy client exhausts its own budget, not the tier's.
// Submission is idempotent: the job id is a pure function of the spec,
// and resubmitting an existing id (including one recoverable from a
// checkpoint on disk) returns the existing job.
//
// Jobs on the same suite share one SearchContext (search.hpp): the
// scheduler keeps the last kContextSlots contexts in an LRU keyed by
// context_key (suite content and events), so the full suite is
// simulated, primed and scored once between them. A context is
// immutable and bit-identical to a freshly built one, so sharing it
// changes no byte. Nothing is process-global: two Schedulers share
// nothing.
//
// Candidate outcomes dedupe across jobs through a bounded
// content-addressed cache keyed on (suite content, events, target size,
// seed, index): two jobs differing only in client or candidate budget
// share evaluations. Cache hits return the recorded outcome, which is
// bit-identical to a recompute, so the determinism contract holds.
//
// Checkpoints: every `checkpoint_every` evaluated candidates, rounded up
// to whole slices — and at every terminal transition — the job's full
// state is appended to its store::CheckpointLog. An op naming an unknown
// job id triggers a checkpoint lookup, so a respawned worker
// transparently resumes jobs it has never heard of; a resumed job
// re-evaluates at most one checkpoint cadence and lands on the
// byte-identical final subset.
//
// Counters: jobs.submitted, jobs.duplicate_submits, jobs.rejected,
// jobs.completed, jobs.cancelled, jobs.failed, jobs.resumed,
// jobs.checkpoints, jobs.candidates_evaluated,
// jobs.candidate_cache_hits, jobs.context_hits, jobs.context_misses;
// histogram jobs.candidate.latency.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "jobs/job.hpp"
#include "jobs/search.hpp"
#include "store/fault_injector.hpp"

namespace perspector::jobs {

struct SchedulerOptions {
  /// Active (queued + running) jobs across all clients; excess submits
  /// are rejected with `overloaded`.
  std::size_t max_active = 256;
  /// Active jobs per client bucket (fair-share admission).
  std::size_t max_active_per_client = 64;
  /// Candidate evaluations per step() slice.
  std::uint64_t slice_candidates = 8;
  /// Candidates between checkpoints (0 = only terminal checkpoints).
  std::uint64_t checkpoint_every = 16;
  /// Directory for per-job checkpoint logs; empty disables
  /// checkpointing (and resume).
  std::string checkpoint_dir;
  /// Progress records retained per job (the watch ring).
  std::size_t progress_capacity = 64;
  /// Cross-job candidate-outcome cache entries.
  std::size_t candidate_cache_slots = 4096;
  /// Optional failure seam for the checkpoint logs (tests).
  store::FaultInjector* faults = nullptr;
};

/// The outcome of submit(): `ok` with the job id (possibly an existing
/// duplicate), or a structured error (`overloaded` / `bad_request`).
struct SubmitOutcome {
  bool ok = false;
  bool duplicate = false;
  std::string id;
  std::string error;
  std::string message;
};

/// One job_watch answer: the job's status plus the progress records at
/// or after the `from` cursor, and the cursor to poll from next.
struct WatchOutcome {
  JobStatus status;
  std::vector<JobProgress> progress;
  std::uint64_t next = 1;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits a job (idempotent; see class comment).
  SubmitOutcome submit(const JobSpec& spec);

  /// nullopt = unknown id (nothing in memory or on disk).
  std::optional<JobStatus> status(const std::string& id);
  std::optional<WatchOutcome> watch(const std::string& id,
                                    std::uint64_t from);
  /// Requests cancellation; a terminal job is returned unchanged. The
  /// transition lands immediately for an idle job, at the end of the
  /// current slice for a running one.
  std::optional<JobStatus> cancel(const std::string& id);
  /// Every known job, in id order.
  std::vector<JobStatus> list();

  /// True when a job is queued or mid-run — i.e. step() has work.
  bool runnable();
  /// Advances one job by one slice. Safe to call concurrently (one
  /// caller runs the slice, the rest return immediately) and when idle.
  /// After each evaluated candidate but the last, a true `should_yield()`
  /// ends the slice early; a step that built its job's search context
  /// does not ask. A slice never crosses a checkpoint boundary (a
  /// multiple of checkpoint_every rounded up to whole slices), so
  /// checkpoints land on the same counts however early slices end.
  void step(const std::function<bool()>& should_yield = {});
  /// Drives every active job to a terminal state (tests, CLI).
  void drain();

 private:
  struct Job;

  std::shared_ptr<Job> find_or_resume_locked(const std::string& id,
                                             std::unique_lock<std::mutex>& lock);
  std::shared_ptr<Job> try_resume_locked(const std::string& id);
  JobStatus status_of_locked(const Job& job) const;
  /// Appends the job's state to its checkpoint log. Caller holds the
  /// mutex; a failed append degrades to "previous checkpoint wins".
  void checkpoint_job(Job& job);
  std::string checkpoint_path(const std::string& id) const;
  std::size_t active_count_locked() const;
  std::size_t active_count_locked(const std::string& client) const;
  /// The shared context for `spec`, built (unlocked) on a miss, which
  /// sets `built`. Called by the stepper only; throws what
  /// SearchContext's constructor throws.
  std::shared_ptr<const SearchContext> context_for(const JobSpec& spec,
                                                   bool& built);

  /// Search contexts kept for reuse: one per suite in flight is enough
  /// for jobs to share, and each holds a whole suite with its DTW cache.
  static constexpr std::size_t kContextSlots = 4;

  SchedulerOptions options_;
  /// checkpoint_every rounded up to whole slices (0 = terminal only).
  std::uint64_t checkpoint_period_ = 0;
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::string cursor_;  // round-robin: last stepped job id
  bool stepping_ = false;  // single-stepper guard (scoring is unlocked)
  std::map<CandidateKey, CandidateOutcome> candidate_cache_;
  std::vector<CandidateKey> candidate_fifo_;  // eviction order
  /// Most recently used first.
  std::list<std::pair<CandidateKey, std::shared_ptr<const SearchContext>>>
      contexts_;
};

}  // namespace perspector::jobs
