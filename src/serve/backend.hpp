// serve::ScoreBackend — the scoring surface the NDJSON transport speaks
// to (DESIGN.md sections 10 and 13).
//
// Two implementations exist:
//
//   * serve::Engine — the in-process scorer (thread pool, warm
//     workspaces, result cache);
//   * serve::Router — the multi-process tier that consistent-hashes
//     requests across forked Engine workers and shares results through
//     the disk-backed segment store.
//
// serve::Session is written against this interface, so `perspector
// serve --workers N` swaps the backend without touching the protocol.
//
// Content addressing lives here too: a request's *content key* digests
// what is being scored (a built-in suite name + instruction budget, the
// raw CSV text of an uploaded suite, or the full counter matrix), and
// the *result key* folds the content key with the event filter and the
// serving code version. The session computes the content key once at
// admission; the engine, router cache, segment store and trace ids all
// derive from it — the warm path never re-hashes a matrix.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "jobs/job.hpp"
#include "serve/content_hash.hpp"

namespace perspector::core {
class CounterMatrix;
}

namespace perspector::serve {

/// Participates in every result-cache key; bump when any scoring code
/// change may alter report bytes, so stale entries can never be served
/// across versions (the segment store outlives the process).
inline constexpr std::string_view kCodeVersion = "perspector-serve/2";

/// The fields every request carries, whatever its op.
struct RequestHeader {
  std::string id;  // echoed in the reply; opaque to the backend

  /// 64-bit trace id assigned by serve::Session at admission (derived
  /// deterministically from the request's content + the session sequence
  /// number), echoed in the reply and in log lines. 0 = not assigned. A
  /// request forwarded by the Router carries the router's trace id on the
  /// wire, and the worker session honors it instead of deriving a new one.
  std::uint64_t trace_id = 0;
};

/// The fields every reply carries. An error reply (`ok` false) carries
/// nothing else on the wire.
struct ReplyHeader {
  std::string id;
  bool ok = false;
  std::string error;    // bad_request | overloaded | timeout | internal |
                        // unavailable (errors)
  std::string message;  // human-readable detail for error replies
  std::uint64_t trace_id = 0;  // echoed from the request; 0 = unassigned
};

/// The error reply to `request`: its id and trace id, `error` and
/// `message`. Every backend and the session build failures with this.
template <class Reply>
Reply error_reply(const RequestHeader& request, std::string error,
                  std::string message) {
  Reply reply;
  reply.id = request.id;
  reply.trace_id = request.trace_id;
  reply.error = std::move(error);
  reply.message = std::move(message);
  return reply;
}

/// One scoring request: either a named built-in suite (simulated on
/// demand with `instructions` per workload, exactly like `perspector
/// demo`) or caller-provided counter data.
struct ScoreRequest : RequestHeader {
  std::string builtin;  // built-in suite name; empty = use `data`
  std::uint64_t instructions = 500'000;  // per workload, built-in only

  std::shared_ptr<const core::CounterMatrix> data;  // inline suite data

  std::string events = "all";  // all | llc | tlb | branch

  /// Maximum time the request may wait in the server queue before it is
  /// answered with a `timeout` error instead of being scored. 0 = no
  /// deadline. Enforced by serve::Session, not by the engine.
  std::uint64_t deadline_ms = 0;

  /// Content key of the request ({0,0} = not yet computed). Set once by
  /// the session (via ScoreBackend::content_key) or parsed off the wire
  /// for forwarded requests; everything downstream reuses it.
  Key128 content_key;

  /// For CSV requests, the raw wire payload is retained so the router
  /// can forward the exact bytes and the worker derives the identical
  /// content key. Empty for built-in and direct-API requests.
  std::string csv_name;
  std::string csv_text;
  std::string series_text;
};

struct ScoreResponse : ReplyHeader {
  bool cache_hit = false;
  std::string report;  // exact one-shot report bytes (ok responses)
};

/// The ok reply to `request` that serves `report` from a cache.
ScoreResponse cache_hit_reply(const ScoreRequest& request,
                              std::string report);

// ---- live-suite mutation ops ----------------------------------------------

/// The four delta ops of the NDJSON protocol (DESIGN.md section 14).
/// `load_suite` makes a CSV payload resident under a name; the other
/// three mutate the resident suite in place and re-score it with the
/// workspace's incremental DTW updates instead of a cold O(n^2) re-prime.
enum class MutateOp { LoadSuite, AddWorkload, DropWorkload, AppendSamples };

/// Protocol name of a mutate op ("load_suite", ...).
std::string_view mutate_op_name(MutateOp op);

struct MutateRequest : RequestHeader {
  MutateOp op = MutateOp::LoadSuite;
  std::string suite;        // resident suite name (required, all ops)
  std::string workload;     // drop_workload: the workload to remove
  std::string csv_text;     // load_suite / add_workload aggregate payload
  std::string series_text;  // series payload (long format)
  std::string events = "all";  // event filter of the returned re-score
  std::uint64_t deadline_ms = 0;  // as ScoreRequest::deadline_ms
};

/// The re-scored state of the mutated suite. `report` is byte-identical
/// to a cold score of the same content; `version` counts mutations since
/// the load (load = 1). `cache_hit` is honest content addressing: an
/// add→drop round-trip back to previous content hits the result cache.
struct MutateResponse : ReplyHeader {
  std::string suite;
  std::uint64_t version = 0;
  bool cache_hit = false;
  std::string report;
};

// ---- async subset-search jobs ---------------------------------------------

/// The five job ops of the NDJSON protocol (DESIGN.md section 15).
/// `generate_submit` answers immediately with a deterministic job id;
/// the search itself advances in slices whenever the serving loop is
/// idle (jobs_step) and is observed through status / watch.
enum class JobOp { Submit, Status, Watch, Cancel, List };

/// Protocol name of a job op ("generate_submit", "job_status", ...).
std::string_view job_op_name(JobOp op);

/// Job ops have no deadline: they are constant-time control-plane
/// requests (the search itself runs in jobs_step slices).
struct JobRequest : RequestHeader {
  JobOp op = JobOp::Status;
  jobs::JobSpec spec;  // Submit only
  std::string job;     // Status/Watch/Cancel: the target job id
  std::uint64_t from = 0;  // Watch: progress cursor (seq >= from)
};

struct JobResponse : ReplyHeader {
  JobOp op = JobOp::Status;  // selects the serialized response shape
  jobs::JobStatus status;  // Submit / Status / Watch / Cancel
  bool duplicate = false;  // Submit: the spec was already admitted
  std::vector<jobs::JobProgress> progress;  // Watch
  std::uint64_t next = 1;                   // Watch: poll-from cursor
  std::vector<jobs::JobStatus> jobs;        // List
  /// Worker index that owns the job, stamped by the Router (-1 = not a
  /// routed response; the Engine serves jobs in-process).
  int worker = -1;
};

/// The scoring surface of the serving tier. All methods are thread-safe
/// on every implementation.
class ScoreBackend {
 public:
  virtual ~ScoreBackend() = default;

  /// Scores one request. Never throws: failures come back as structured
  /// error responses.
  virtual ScoreResponse score(const ScoreRequest& request) = 0;

  /// Scores a group of requests; response order matches request order,
  /// duplicates within the batch coalesce onto one computation.
  virtual std::vector<ScoreResponse> score_batch(
      const std::vector<ScoreRequest>& requests) = 0;

  /// Applies one live-suite mutation and returns the re-scored state.
  /// The base implementation answers every op with a structured
  /// bad_request (a backend without resident-suite support); the Engine
  /// executes mutations locally and the Router forwards them to the
  /// worker that owns the suite name.
  virtual MutateResponse mutate(const MutateRequest& request);

  /// Serves one async-job op. The base implementation answers every op
  /// with a structured bad_request (a backend without a job scheduler);
  /// the Engine runs a jobs::Scheduler in-process and the Router
  /// forwards each op to the worker that owns the job id.
  virtual JobResponse job(const JobRequest& request);

  /// True when the backend has queued or mid-run jobs — i.e. jobs_step()
  /// has work to do. The serving loop polls this to decide whether idle
  /// time should advance jobs or block on input.
  virtual bool jobs_runnable();

  /// Advances job execution by one bounded slice, which ends early at a
  /// candidate boundary once `should_yield()` is true — the serving loop
  /// passes "a request is waiting" (see jobs::Scheduler::step). The base
  /// implementation is a no-op.
  virtual void jobs_step(const std::function<bool()>& should_yield = {});

  /// The request's content key (memoized where possible). Never throws;
  /// a request with nothing to score digests to a fixed empty-domain key.
  virtual Key128 content_key(const ScoreRequest& request) = 0;

  /// Serialized protocol lines for the metrics / stats / shard_stats
  /// ops (the Router merges its workers' registries; the Engine
  /// snapshots the process-local one).
  virtual std::string metrics_line(const std::string& id) = 0;
  virtual std::string stats_line(const std::string& id) = 0;
  virtual std::string shard_stats_line(const std::string& id) = 0;
};

/// Computes a request's content key from scratch: built-in domain
/// (name, instructions), CSV domain (name, csv text, series text), or
/// matrix domain (full content digest, memoized through `digests` when
/// non-null). Priority: builtin, then retained CSV text, then data.
Key128 compute_content_key(const ScoreRequest& request, DigestCache* digests);

/// Folds a content key with the event filter and kCodeVersion into the
/// key under which the finished report is cached (memory and disk).
Key128 result_cache_key(const Key128& content_key, const std::string& events);

}  // namespace perspector::serve
