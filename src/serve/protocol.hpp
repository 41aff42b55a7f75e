// The newline-delimited-JSON wire protocol of the scoring service.
//
// One request object per line, one response object per line, answered in
// request order. Requests:
//
//   {"op":"score","suite":"spec17","instructions":40000,"events":"llc"}
//   {"op":"score","name":"mysuite","csv":"workload,c1\na,1\n",
//    "series_csv":"workload,counter,sample,value\n...","deadline_ms":250}
//   {"op":"ping"}   {"op":"metrics"}   {"op":"stats"}   {"op":"shutdown"}
//   {"op":"shard_stats"}                    (worker topology, router tier)
//
// Live-suite mutation ops (DESIGN.md section 14) make a suite resident
// under a name and then mutate + re-score it incrementally:
//
//   {"op":"load_suite","suite":"live","csv":"...","series_csv":"..."}
//   {"op":"add_workload","suite":"live","csv":"...","series_csv":"..."}
//   {"op":"drop_workload","suite":"live","workload":"a"}
//   {"op":"append_samples","suite":"live","series_csv":"..."}
//
// and answer with the re-scored state of the mutated suite:
//
//   {"id":"1","ok":true,"suite":"live","version":3,"cache":"miss",
//    "trace":"...","report":"..."}
//
// (score responses never carry "suite"/"version", so the two response
// shapes stay distinguishable). A subsequent {"op":"score","suite":
// "live"} scores the resident content — the engine keys its cache by
// the *content digest* of the current version, never by the name, so a
// mutation can never serve a stale report.
//
// Async-job ops (DESIGN.md section 15) run an LHS subset search in the
// background and observe it through a deterministic job id:
//
//   {"op":"generate_submit","suite":"spec17","instructions":40000,
//    "size":8,"candidates":64,"seed":7,"client":"alice"}
//   {"op":"job_status","job":"<16 hex>"}
//   {"op":"job_watch","job":"<16 hex>","from":3}
//   {"op":"job_cancel","job":"<16 hex>"}
//   {"op":"job_list"}
//
// A submit answers immediately ({"ok":true,"job":"...","state":
// "queued","duplicate":false}); status/watch/cancel echo the job's
// current state, evaluated/total counts and best-so-far subset, watch
// additionally carrying the progress records at or after the "from"
// cursor plus the "next" cursor to poll from. job_list returns every
// known job. Responses behind a router carry "worker": the index of the
// worker that owns the job.
//
// A score request may also carry "trace" (16 hex digits) and "key" (32
// hex digits): the serve::Router stamps its trace id and content key on
// forwarded requests so the worker session reuses them instead of
// deriving new ones — responses stay byte-identical at any worker count.
//
// Every request may carry an "id" (string or number) that is echoed
// verbatim in its response. Responses:
//
//   {"id":"1","ok":true,"cache":"miss","trace":"9f86d081884c7d65",
//    "report":"..."}                                          (score)
//   {"id":"1","ok":false,"error":"overloaded","message":"..."}
//   {"ok":true,"pong":true}                                   (ping)
//   {"ok":true,"counters":{"serve.cache_hit":2,...},
//    "histograms":{"serve.request.latency":{"p50":...,...}}}  (metrics)
//   {"ok":true,"histograms":{"serve.request.latency":
//    {"count":3,"min":...,"max":...,"mean":...,
//     "p50":...,"p90":...,"p99":...,"p999":...},...},
//    "resident":{"result_cache_bytes":...,
//     "workspace_bytes":{"live":...}}}                         (stats)
//   {"ok":true,"shutting_down":true}                          (shutdown)
//
// `resident` is the single-process engine's memory: the result cache's
// bytes and each resident live suite's ScoringWorkspace bytes. A router
// omits it (its workers hold the suites).
//
// Behind a router, `metrics` sums the workers' counters into the
// router's own, but its histograms are the router's alone: request
// latency there is router.forward.latency, and the workers'
// serve.request.latency is not carried (histograms do not merge).
//
// `trace` is the request's 64-bit trace id (16 hex digits), assigned by
// the server at admission; it also appears in slow-request log lines so
// a response can be joined against the log stream.
//
// Error codes: bad_request (malformed JSON / unknown fields' values),
// overloaded (admission queue full), timeout (queue-wait deadline
// exceeded), internal (scoring failure), unavailable (router tier: no
// worker answered). The `report` string of an ok score response is
// byte-identical to the one-shot CLI output.
//
// The envelope (DESIGN.md section 10). Every request struct derives from
// one RequestHeader (id, trace_id) and every reply struct from one
// ReplyHeader (id, ok, error, message, trace_id); score and mutate
// requests add deadline_ms, job ops have none. An error reply of any op
// is the header alone, encoded by serialize_error, and the three
// parse_*_response functions share one header decoder. Each wire op name
// is written once, in kOpTable below: parse_request_line looks ops up
// there, and mutate_op_name / job_op_name read it back.
//
// Integer fields (instructions, deadline_ms, size, candidates, seed,
// from) must be non-negative integers below 2^53. JSON numbers travel as
// doubles, and from 2^53 on a double no longer tells neighbouring
// integers apart (9007199254740993 reads as 9007199254740992), so such
// a value could alias another request; it is a bad_request naming the
// field.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "serve/backend.hpp"

namespace perspector::serve {

enum class Op { Score, Mutate, Job, Ping, Metrics, Stats, ShardStats, Shutdown };

/// One wire op: its name, its Op and, for mutate and job ops, the
/// MutateOp / JobOp it selects. The names also feed trace-id digests
/// (serve::Session), so none may ever change.
struct OpRow {
  std::string_view name;
  Op op = Op::Score;
  MutateOp mutate = MutateOp::LoadSuite;  // Op::Mutate rows only
  JobOp job = JobOp::Status;              // Op::Job rows only
};

/// Every op of the protocol. A request without "op" is a score.
inline constexpr OpRow kOpTable[] = {
    {.name = "score", .op = Op::Score},
    {.name = "ping", .op = Op::Ping},
    {.name = "metrics", .op = Op::Metrics},
    {.name = "stats", .op = Op::Stats},
    {.name = "shard_stats", .op = Op::ShardStats},
    {.name = "shutdown", .op = Op::Shutdown},
    {.name = "load_suite", .op = Op::Mutate, .mutate = MutateOp::LoadSuite},
    {.name = "add_workload", .op = Op::Mutate,
     .mutate = MutateOp::AddWorkload},
    {.name = "drop_workload", .op = Op::Mutate,
     .mutate = MutateOp::DropWorkload},
    {.name = "append_samples", .op = Op::Mutate,
     .mutate = MutateOp::AppendSamples},
    {.name = "generate_submit", .op = Op::Job, .job = JobOp::Submit},
    {.name = "job_status", .op = Op::Job, .job = JobOp::Status},
    {.name = "job_watch", .op = Op::Job, .job = JobOp::Watch},
    {.name = "job_cancel", .op = Op::Job, .job = JobOp::Cancel},
    {.name = "job_list", .op = Op::Job, .job = JobOp::List},
};

/// The table row of a wire op name; nullptr for an unknown op.
const OpRow* find_op(std::string_view name);

/// The wire name of a score or control op (the first row of `op`).
std::string_view op_name(Op op);

/// Thread-safe strerror replacement (std::strerror shares a static buffer
/// across threads; clang-tidy concurrency-mt-unsafe). Pass `errno`.
inline std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

/// One parsed request line. When `ok` is false the request must not be
/// executed; `error` / `message` describe the parse failure.
struct ParsedRequest {
  bool ok = false;
  Op op = Op::Score;
  ScoreRequest score;    // populated for Op::Score
  MutateRequest mutate;  // populated for Op::Mutate
  JobRequest job;        // populated for Op::Job
  std::string id;        // echoed id (also in the op request's header)
  std::string error;     // "bad_request" when !ok
  std::string message;
};

/// Parses one request line. Never throws; malformed input comes back as
/// an !ok ParsedRequest carrying a bad_request error.
ParsedRequest parse_request_line(const std::string& line);

/// Serializes a score response (ok or error) as one JSON line (with
/// trailing newline).
std::string serialize_response(const ScoreResponse& response);

/// The error reply line of any op: the reply header alone. The session
/// answers parse failures and admission rejections with it directly
/// (no trace id: the request was never admitted); every serialize_*
/// function encodes its !ok replies through it.
std::string serialize_error(const std::string& id, const std::string& error,
                            const std::string& message,
                            std::uint64_t trace_id = 0);

/// The request line of an op that carries nothing but its id (ping,
/// metrics, stats, shard_stats, shutdown): {"op":"ping","id":"..."}.
std::string serialize_control_request(Op op, const std::string& id = "");

std::string serialize_ping(const std::string& id);

/// Snapshot of every registered obs counter, distribution and histogram
/// as one JSON object (the CLI --metrics-json flag emits the same bytes).
std::string serialize_metrics(const std::string& id);

/// Resident memory the `stats` op reports for one engine.
struct ResidentBytes {
  std::uint64_t result_cache_bytes = 0;
  /// (live suite name, its ScoringWorkspace::resident_bytes()), by name.
  std::vector<std::pair<std::string, std::uint64_t>> workspace_bytes;
};

/// Full histogram snapshots (count/min/max/mean + p50/p90/p99/p999) for
/// the `stats` op, plus `resident` when given. Doubles are serialized
/// with %.17g so they round-trip exactly.
std::string serialize_stats(const std::string& id,
                            const ResidentBytes* resident = nullptr);

std::string serialize_shutdown(const std::string& id);

/// Serializes a mutate response (ok: suite + version + cache + report;
/// error: same shape as a score error) as one JSON line.
std::string serialize_mutate_response(const MutateResponse& response);

/// Serializes a job response. Ok responses carry the job's status
/// (id/state/client/evaluated/total/resumed, the best-so-far subset when
/// one exists), plus per-op extras: "duplicate" (submit), "progress" +
/// "next" (watch), "jobs" (list), "worker" (routed responses). Errors
/// use the common error shape.
std::string serialize_job_response(const JobResponse& response);

// ---- Router tier ----------------------------------------------------------

/// Serializes a score request as one protocol line (the client's, and
/// the router's to a worker). The line carries the trace id and content
/// key when set, and deadline_ms when nonzero; an in-memory matrix
/// travels as lossless (%.17g) CSV text. Throws std::runtime_error when
/// the request has nothing to score.
std::string serialize_score_request(const ScoreRequest& request);

/// The line the Router forwards a request to its worker as: the
/// request's own line without deadline_ms. The router's session enforced
/// the deadline already; the worker's session must not enforce it again.
std::string forwarded_line(ScoreRequest request);
std::string forwarded_line(MutateRequest request);

/// Parses one worker response line back into a ScoreResponse (the exact
/// inverse of serialize_response). False on malformed input.
bool parse_score_response(const std::string& line, ScoreResponse& out);

/// Serializes a mutate request as one protocol line (the client's, and
/// the router's to the worker that owns the suite name). The payload CSV
/// travels verbatim; trace id and deadline_ms ride along as for scores.
std::string serialize_mutate_request(const MutateRequest& request);

/// Inverse of serialize_mutate_response. False on malformed input.
bool parse_mutate_response(const std::string& line, MutateResponse& out);

/// Serializes a job request as one protocol line for forwarding to the
/// worker that owns the job id (consistent-hash affinity). The spec
/// payload travels verbatim, so the worker derives the identical job id.
std::string serialize_job_request(const JobRequest& request);

/// Inverse of serialize_job_response. False on malformed input.
bool parse_job_response(const std::string& line, JobResponse& out);

/// Per-worker row of the shard_stats response.
struct WorkerStat {
  std::size_t worker = 0;
  std::int64_t pid = -1;
  bool alive = false;
  std::uint64_t restarts = 0;
  std::uint64_t forwarded = 0;
};

/// {"ok":true,"mode":...,"workers":[{"worker":0,"pid":...,...},...]}
std::string serialize_shard_stats(const std::string& id,
                                  const std::string& mode,
                                  const std::vector<WorkerStat>& workers);

/// The metrics response built from a pre-merged counter map (the Router
/// sums its workers' counters into it) plus the *local* histogram
/// registry — histogram percentile sketches do not merge.
std::string serialize_metrics_merged(
    const std::string& id,
    const std::map<std::string, std::uint64_t>& counters);

/// Worker handshake: the first line a worker writes after fork, so the
/// router knows the channel is live before routing to it.
std::string serialize_worker_hello(std::size_t worker, std::int64_t pid);
bool parse_worker_hello(const std::string& line, std::size_t& worker,
                        std::int64_t& pid);

}  // namespace perspector::serve
