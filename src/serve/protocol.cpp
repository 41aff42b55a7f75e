#include "serve/protocol.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/io.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace perspector::serve {

namespace {

/// Extracts an echoable id: strings verbatim, numbers via their JSON
/// text (integers render without a trailing ".0").
std::string id_of(const json::Value& request) {
  const json::Value* id = request.find("id");
  if (!id) return {};
  if (id->is_string()) return id->string;
  if (id->is_number()) {
    const double value = id->number;
    if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.0f", value);
      return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", value);
    return buf;
  }
  return {};
}

ParsedRequest bad_request(std::string id, std::string message) {
  ParsedRequest parsed;
  parsed.ok = false;
  parsed.id = std::move(id);
  parsed.error = "bad_request";
  parsed.message = std::move(message);
  return parsed;
}

/// The integer fields of the protocol must lie below 2^53: from there on
/// a double no longer tells neighbouring integers apart, so the integer
/// that was sent cannot be known.
constexpr double kIntegerLimit = 9007199254740992.0;  // 2^53

/// A JSON number that is a non-negative integer below 2^53.
bool exact_u64(const json::Value& value, std::uint64_t& out) {
  if (!value.is_number() || value.number < 0 ||
      value.number != std::floor(value.number) ||
      value.number >= kIntegerLimit) {
    return false;
  }
  out = static_cast<std::uint64_t>(value.number);
  return true;
}

void append_id(std::string& out, const std::string& id) {
  if (id.empty()) return;
  out += "\"id\":";
  json::append_quoted(out, id);
  out += ',';
}

// %.17g: enough digits that parsing the text recovers the exact double,
// so metrics snapshots survive a JSON round trip bit-for-bit.
void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  out += buf;
}

void append_trace(std::string& out, std::uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, trace_id);
  out += "\"trace\":\"";
  out += buf;
  out += '"';
}

/// Exactly 16 lowercase/uppercase hex digits -> u64.
bool parse_hex_u64(const std::string& text, std::uint64_t& out) {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (char ch : text) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') {
      value |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      value |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      value |= static_cast<std::uint64_t>(ch - 'A' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

/// Exactly 16 lowercase hex digits — the job-id alphabet. Ids double as
/// checkpoint-log file names, so nothing else may pass.
bool valid_job_id(const std::string& id) {
  if (id.size() != 16) return false;
  for (char ch : id) {
    const bool ok = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f');
    if (!ok) return false;
  }
  return true;
}

void append_best(std::string& out, const jobs::BestCandidate& best) {
  out += "\"best\":{\"candidate\":";
  append_u64(out, best.candidate);
  out += ",\"deviation_pct\":";
  append_double(out, best.deviation_pct);
  out += ",\"per_score_deviation_pct\":[";
  bool first = true;
  for (double value : best.per_score_deviation_pct) {
    if (!first) out += ',';
    first = false;
    append_double(out, value);
  }
  out += "],\"indices\":[";
  first = true;
  for (std::uint64_t index : best.indices) {
    if (!first) out += ',';
    first = false;
    append_u64(out, index);
  }
  out += "],\"subset\":[";
  first = true;
  for (const std::string& name : best.names) {
    if (!first) out += ',';
    first = false;
    json::append_quoted(out, name);
  }
  out += "]}";
}

void append_job_status(std::string& out, const jobs::JobStatus& status) {
  out += "\"job\":";
  json::append_quoted(out, status.id);
  out += ",\"state\":\"";
  out += jobs::to_string(status.state);
  out += "\",\"client\":";
  json::append_quoted(out, status.client);
  out += ",\"evaluated\":";
  append_u64(out, status.evaluated);
  out += ",\"total\":";
  append_u64(out, status.total);
  out += ",\"resumed\":";
  out += status.resumed ? "true" : "false";
  if (status.best.valid) {
    out += ',';
    append_best(out, status.best);
  }
  if (!status.error.empty()) {
    out += ",\"detail\":";
    json::append_quoted(out, status.error);
  }
}

bool parse_best_object(const json::Value& value, jobs::BestCandidate& best) {
  if (!value.is_object()) return false;
  const json::Value* candidate = value.find("candidate");
  const json::Value* deviation = value.find("deviation_pct");
  const json::Value* per_score = value.find("per_score_deviation_pct");
  const json::Value* indices = value.find("indices");
  const json::Value* subset = value.find("subset");
  if (!candidate || !exact_u64(*candidate, best.candidate) || !deviation ||
      !deviation->is_number() || !per_score ||
      per_score->type != json::Value::Type::Array || !indices ||
      indices->type != json::Value::Type::Array || !subset ||
      subset->type != json::Value::Type::Array) {
    return false;
  }
  best.valid = true;
  best.deviation_pct = deviation->number;
  for (const json::Value& element : per_score->elements) {
    if (!element.is_number()) return false;
    best.per_score_deviation_pct.push_back(element.number);
  }
  for (const json::Value& element : indices->elements) {
    std::uint64_t index = 0;
    if (!exact_u64(element, index)) return false;
    best.indices.push_back(index);
  }
  for (const json::Value& element : subset->elements) {
    if (!element.is_string()) return false;
    best.names.push_back(element.string);
  }
  return true;
}

bool parse_job_state(const std::string& text, jobs::JobState& out) {
  if (text == "queued") {
    out = jobs::JobState::Queued;
  } else if (text == "running") {
    out = jobs::JobState::Running;
  } else if (text == "done") {
    out = jobs::JobState::Done;
  } else if (text == "cancelled") {
    out = jobs::JobState::Cancelled;
  } else if (text == "failed") {
    out = jobs::JobState::Failed;
  } else {
    return false;
  }
  return true;
}

bool parse_status_fields(const json::Value& object, jobs::JobStatus& status) {
  const json::Value* job = object.find("job");
  const json::Value* state = object.find("state");
  const json::Value* evaluated = object.find("evaluated");
  const json::Value* total = object.find("total");
  if (!job || !job->is_string() || !state || !state->is_string() ||
      !evaluated || !exact_u64(*evaluated, status.evaluated) || !total ||
      !exact_u64(*total, status.total)) {
    return false;
  }
  status.id = job->string;
  if (!parse_job_state(state->string, status.state)) return false;
  if (const json::Value* client = object.find("client")) {
    if (!client->is_string()) return false;
    status.client = client->string;
  }
  if (const json::Value* resumed = object.find("resumed")) {
    if (resumed->type != json::Value::Type::Bool) return false;
    status.resumed = resumed->boolean;
  }
  if (const json::Value* best = object.find("best")) {
    if (!parse_best_object(*best, status.best)) return false;
  }
  if (const json::Value* detail = object.find("detail")) {
    if (!detail->is_string()) return false;
    status.error = detail->string;
  }
  return true;
}

void append_histograms(std::string& out) {
  out += "\"histograms\":{";
  bool first = true;
  for (const auto& snapshot : obs::histograms_snapshot()) {
    if (!first) out += ',';
    first = false;
    json::append_quoted(out, snapshot.name);
    out += ":{\"count\":";
    append_u64(out, snapshot.stats.count);
    out += ",\"min\":";
    append_double(out, snapshot.stats.min);
    out += ",\"max\":";
    append_double(out, snapshot.stats.max);
    out += ",\"mean\":";
    append_double(out, snapshot.stats.mean());
    out += ",\"p50\":";
    append_double(out, snapshot.stats.p50);
    out += ",\"p90\":";
    append_double(out, snapshot.stats.p90);
    out += ",\"p99\":";
    append_double(out, snapshot.stats.p99);
    out += ",\"p999\":";
    append_double(out, snapshot.stats.p999);
    out += '}';
  }
  out += '}';
}

/// Reads the optional fields of one request object. Each reader returns
/// false at the first problem and leaves its description in `problem`.
struct Fields {
  const json::Value& object;
  std::string problem;

  const json::Value* find(const char* key) const { return object.find(key); }

  bool fail(std::string description) {
    problem = std::move(description);
    return false;
  }

  /// An integer field: absent, or a non-negative integer below 2^53.
  bool u64(const char* key, std::uint64_t& out) {
    const json::Value* value = find(key);
    if (!value || exact_u64(*value, out)) return true;
    const std::string field = std::string("field '") + key + "'";
    if (value->is_number() && value->number >= kIntegerLimit &&
        value->number == std::floor(value->number)) {
      return fail(field + " must be below 2^53 (9007199254740992)");
    }
    return fail(field + " must be a non-negative integer");
  }

  /// A text field: absent, or a string ("'<key>' must be <what>").
  bool text(const char* key, std::string& out, const char* what) {
    const json::Value* value = find(key);
    if (!value) return true;
    if (!value->is_string()) {
      return fail(std::string("'") + key + "' must be " + what);
    }
    out = value->string;
    return true;
  }

  /// The trace id the Router stamps on the requests it forwards; the
  /// worker session reuses it instead of deriving its own.
  bool trace(std::uint64_t& out) {
    const json::Value* value = find("trace");
    if (value && (!value->is_string() || !parse_hex_u64(value->string, out))) {
      return fail("'trace' must be 16 hex digits");
    }
    return true;
  }

  /// The suite of a score or a submit: exactly one of a built-in "suite"
  /// or a "csv" payload with its optional "name" and "series_csv".
  bool suite(std::string& builtin, std::string& name, std::string& csv,
             std::string& series) {
    const json::Value* suite = find("suite");
    if ((suite != nullptr) == (find("csv") != nullptr)) {
      return fail("exactly one of 'suite' or 'csv' is required");
    }
    if (suite) {
      if (!suite->is_string() || suite->string.empty()) {
        return fail("'suite' must be a suite name");
      }
      builtin = suite->string;
      return true;
    }
    return text("csv", csv, "CSV text") && text("name", name, "a string") &&
           text("series_csv", series, "CSV text");
  }
};

bool read_score(Fields& fields, ScoreRequest& score) {
  if (!fields.u64("instructions", score.instructions) ||
      !fields.u64("deadline_ms", score.deadline_ms)) {
    return false;
  }
  if (score.instructions == 0) {
    return fields.fail("field 'instructions' must be >= 1");
  }
  if (!fields.text("events", score.events, "a string") ||
      !fields.trace(score.trace_id)) {
    return false;
  }
  // The Router also stamps its content key, for the same reason.
  if (const json::Value* key = fields.find("key")) {
    if (!key->is_string() || key->string.size() != 32 ||
        !parse_hex_u64(key->string.substr(0, 16), score.content_key.hi) ||
        !parse_hex_u64(key->string.substr(16), score.content_key.lo)) {
      return fields.fail("'key' must be 32 hex digits");
    }
  }
  std::string name = "inline";
  if (!fields.suite(score.builtin, name, score.csv_text, score.series_text)) {
    return false;
  }
  if (!score.builtin.empty()) return true;
  // The raw payload is retained: the content key digests these exact
  // bytes, and the router forwards them verbatim to its workers.
  score.csv_name = name;
  try {
    score.data = std::make_shared<const core::CounterMatrix>(
        fields.find("series_csv")
            ? core::read_with_series_csv_text(name, score.csv_text,
                                              score.series_text)
            : core::read_aggregates_csv_text(name, score.csv_text));
  } catch (const std::exception& e) {
    return fields.fail(e.what());
  }
  return true;
}

bool read_mutate(Fields& fields, MutateRequest& mutate) {
  const std::string op(mutate_op_name(mutate.op));
  if (!fields.u64("deadline_ms", mutate.deadline_ms) ||
      !fields.text("events", mutate.events, "a string") ||
      !fields.trace(mutate.trace_id)) {
    return false;
  }
  const json::Value* suite = fields.find("suite");
  if (!suite || !suite->is_string() || suite->string.empty()) {
    return fields.fail("op '" + op +
                       "' requires 'suite' (the resident suite name)");
  }
  mutate.suite = suite->string;
  // The payload CSV is retained raw and parsed engine-side, where the
  // resident base suite is available for column rearrangement and delta
  // validation.
  if (!fields.text("csv", mutate.csv_text, "CSV text") ||
      !fields.text("series_csv", mutate.series_text, "CSV text")) {
    return false;
  }
  if ((mutate.op == MutateOp::LoadSuite ||
       mutate.op == MutateOp::AddWorkload) &&
      mutate.csv_text.empty()) {
    return fields.fail("op '" + op + "' requires 'csv'");
  }
  if (mutate.op == MutateOp::AppendSamples && mutate.series_text.empty()) {
    return fields.fail("op '" + op + "' requires 'series_csv'");
  }
  if (mutate.op == MutateOp::DropWorkload) {
    const json::Value* workload = fields.find("workload");
    if (!workload || !workload->is_string() || workload->string.empty()) {
      return fields.fail("op '" + op + "' requires 'workload'");
    }
    mutate.workload = workload->string;
  }
  return true;
}

bool read_job(Fields& fields, JobRequest& job) {
  if (!fields.trace(job.trace_id)) return false;
  if (job.op == JobOp::Submit) {
    jobs::JobSpec& spec = job.spec;
    if (!fields.u64("instructions", spec.instructions) ||
        !fields.u64("size", spec.target_size) ||
        !fields.u64("candidates", spec.candidates) ||
        !fields.u64("seed", spec.seed)) {
      return false;
    }
    if (spec.instructions == 0) {
      return fields.fail("field 'instructions' must be >= 1");
    }
    std::string name = "uploaded";
    if (!fields.text("events", spec.events, "a string") ||
        !fields.text("client", spec.client, "a string") ||
        !fields.suite(spec.builtin, name, spec.csv_text, spec.series_text)) {
      return false;
    }
    // The name is part of the job id, so only an uploaded suite has one.
    if (spec.builtin.empty()) spec.csv_name = name;
    return true;
  }
  if (job.op == JobOp::List) return true;
  const json::Value* target = fields.find("job");
  if (!target || !target->is_string() || !valid_job_id(target->string)) {
    return fields.fail("op '" + std::string(job_op_name(job.op)) +
                       "' requires 'job' (16 hex digits)");
  }
  job.job = target->string;
  return job.op != JobOp::Watch || fields.u64("from", job.from);
}

/// Opens a request line: {"op":"<name>", then the header's id and trace.
std::string open_request(std::string_view op, const RequestHeader& header) {
  std::string out = "{\"op\":\"";
  out += op;
  out += "\",";
  append_id(out, header.id);
  if (header.trace_id != 0) {
    append_trace(out, header.trace_id);
    out += ',';
  }
  return out;
}

/// Closes a request line; an op with no fields of its own leaves a
/// trailing comma behind its header.
std::string close_request(std::string out, std::uint64_t deadline_ms = 0) {
  if (deadline_ms != 0) {
    out += ",\"deadline_ms\":";
    append_u64(out, deadline_ms);
  }
  if (out.back() == ',') out.pop_back();
  out += "}\n";
  return out;
}

/// Opens an ok reply: {"id":...,"ok":true
std::string open_ok(const std::string& id) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true";
  return out;
}

/// The tail score and mutate replies share: cache label, trace, report.
std::string close_scored(std::string out, bool cache_hit,
                         std::uint64_t trace_id, const std::string& report) {
  out += ",\"cache\":";
  out += cache_hit ? "\"hit\"" : "\"miss\"";
  if (trace_id != 0) {
    out += ',';
    append_trace(out, trace_id);
  }
  out += ",\"report\":";
  json::append_quoted(out, report);
  out += "}\n";
  return out;
}

std::string error_line(const ReplyHeader& reply) {
  return serialize_error(reply.id, reply.error, reply.message, reply.trace_id);
}

/// Decodes the header every reply shares: id, ok, trace and, for an
/// error, its code and message. False on malformed input.
bool parse_reply(const std::string& line, json::Value& reply,
                 ReplyHeader& out) {
  try {
    reply = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!reply.is_object()) return false;
  const json::Value* ok = reply.find("ok");
  if (!ok || (ok->type != json::Value::Type::Bool)) return false;
  out.id = id_of(reply);
  out.ok = ok->boolean;
  if (const json::Value* trace = reply.find("trace")) {
    if (!trace->is_string() || !parse_hex_u64(trace->string, out.trace_id)) {
      return false;
    }
  }
  if (out.ok) return true;
  const json::Value* error = reply.find("error");
  const json::Value* message = reply.find("message");
  if (!error || !error->is_string() || !message || !message->is_string()) {
    return false;
  }
  out.error = error->string;
  out.message = message->string;
  return true;
}

/// The name of the first table row that `match` accepts.
template <class Match>
std::string_view op_name_where(Match match) {
  for (const OpRow& row : kOpTable) {
    if (match(row)) return row.name;
  }
  return {};
}

}  // namespace

const OpRow* find_op(std::string_view name) {
  for (const OpRow& row : kOpTable) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

std::string_view op_name(Op op) {
  return op_name_where([op](const OpRow& row) { return row.op == op; });
}

std::string_view mutate_op_name(MutateOp op) {
  return op_name_where([op](const OpRow& row) {
    return row.op == Op::Mutate && row.mutate == op;
  });
}

std::string_view job_op_name(JobOp op) {
  return op_name_where(
      [op](const OpRow& row) { return row.op == Op::Job && row.job == op; });
}

ParsedRequest parse_request_line(const std::string& line) {
  json::Value request;
  try {
    request = json::parse(line);
  } catch (const std::exception& e) {
    return bad_request("", e.what());
  }
  if (!request.is_object()) {
    return bad_request("", "request must be a JSON object");
  }

  ParsedRequest parsed;
  parsed.id = id_of(request);
  const OpRow* row = &kOpTable[0];  // no "op": a score
  if (const json::Value* value = request.find("op")) {
    if (!value->is_string()) {
      return bad_request(parsed.id, "'op' must be a string");
    }
    row = find_op(value->string);
    if (row == nullptr) {
      return bad_request(parsed.id, "unknown op '" + value->string + "'");
    }
  }
  parsed.op = row->op;
  Fields fields{request, {}};
  bool ok = true;
  switch (row->op) {
    case Op::Score:
      parsed.score.id = parsed.id;
      ok = read_score(fields, parsed.score);
      break;
    case Op::Mutate:
      parsed.mutate.id = parsed.id;
      parsed.mutate.op = row->mutate;
      ok = read_mutate(fields, parsed.mutate);
      break;
    case Op::Job:
      parsed.job.id = parsed.id;
      parsed.job.op = row->job;
      ok = read_job(fields, parsed.job);
      break;
    case Op::Ping:
    case Op::Metrics:
    case Op::Stats:
    case Op::ShardStats:
    case Op::Shutdown:
      break;  // the header is all these carry
  }
  if (!ok) return bad_request(parsed.id, fields.problem);
  parsed.ok = true;
  return parsed;
}

std::string serialize_response(const ScoreResponse& response) {
  if (!response.ok) return error_line(response);
  return close_scored(open_ok(response.id), response.cache_hit,
                      response.trace_id, response.report);
}

std::string serialize_error(const std::string& id, const std::string& error,
                            const std::string& message,
                            std::uint64_t trace_id) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":false,\"error\":";
  json::append_quoted(out, error);
  out += ",\"message\":";
  json::append_quoted(out, message);
  if (trace_id != 0) {
    out += ',';
    append_trace(out, trace_id);
  }
  out += "}\n";
  return out;
}

std::string serialize_control_request(Op op, const std::string& id) {
  RequestHeader header;
  header.id = id;
  return close_request(open_request(op_name(op), header));
}

std::string serialize_ping(const std::string& id) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,\"pong\":true}\n";
  return out;
}

std::string serialize_metrics(const std::string& id) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& snapshot : obs::counters_snapshot()) {
    counters.emplace(snapshot.name, snapshot.value);
  }
  return serialize_metrics_merged(id, counters);
}

std::string serialize_stats(const std::string& id,
                            const ResidentBytes* resident) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,";
  append_histograms(out);
  if (resident != nullptr) {
    out += ",\"resident\":{\"result_cache_bytes\":";
    append_u64(out, resident->result_cache_bytes);
    out += ",\"workspace_bytes\":{";
    bool first = true;
    for (const auto& [suite, bytes] : resident->workspace_bytes) {
      if (!first) out += ',';
      first = false;
      json::append_quoted(out, suite);
      out += ':';
      append_u64(out, bytes);
    }
    out += "}}";
  }
  out += "}\n";
  return out;
}

std::string serialize_shutdown(const std::string& id) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,\"shutting_down\":true}\n";
  return out;
}

std::string serialize_mutate_response(const MutateResponse& response) {
  if (!response.ok) return error_line(response);
  std::string out = open_ok(response.id);
  out += ",\"suite\":";
  json::append_quoted(out, response.suite);
  out += ",\"version\":";
  append_u64(out, response.version);
  return close_scored(std::move(out), response.cache_hit, response.trace_id,
                      response.report);
}

std::string serialize_mutate_request(const MutateRequest& request) {
  std::string out = open_request(mutate_op_name(request.op), request);
  out += "\"suite\":";
  json::append_quoted(out, request.suite);
  out += ",\"events\":";
  json::append_quoted(out, request.events);
  if (!request.csv_text.empty()) {
    out += ",\"csv\":";
    json::append_quoted(out, request.csv_text);
  }
  if (!request.series_text.empty()) {
    out += ",\"series_csv\":";
    json::append_quoted(out, request.series_text);
  }
  if (!request.workload.empty()) {
    out += ",\"workload\":";
    json::append_quoted(out, request.workload);
  }
  return close_request(std::move(out), request.deadline_ms);
}

std::string forwarded_line(MutateRequest request) {
  request.deadline_ms = 0;
  return serialize_mutate_request(request);
}

bool parse_mutate_response(const std::string& line, MutateResponse& out) {
  out = MutateResponse{};
  json::Value response;
  if (!parse_reply(line, response, out)) return false;
  if (!out.ok) return true;
  const json::Value* suite = response.find("suite");
  const json::Value* version = response.find("version");
  const json::Value* cache = response.find("cache");
  const json::Value* report = response.find("report");
  if (!suite || !suite->is_string() || !version ||
      !exact_u64(*version, out.version) || !cache || !cache->is_string() ||
      !report || !report->is_string()) {
    return false;
  }
  out.suite = suite->string;
  out.cache_hit = cache->string == "hit";
  out.report = report->string;
  return true;
}

std::string serialize_job_response(const JobResponse& response) {
  if (!response.ok) return error_line(response);
  std::string out = open_ok(response.id);
  out += ',';
  if (response.op == JobOp::List) {
    out += "\"jobs\":[";
    bool first = true;
    for (const jobs::JobStatus& status : response.jobs) {
      if (!first) out += ',';
      first = false;
      out += '{';
      append_job_status(out, status);
      out += '}';
    }
    out += ']';
  } else {
    append_job_status(out, response.status);
    if (response.op == JobOp::Submit) {
      out += ",\"duplicate\":";
      out += response.duplicate ? "true" : "false";
    }
    if (response.op == JobOp::Watch) {
      out += ",\"progress\":[";
      bool first = true;
      for (const jobs::JobProgress& record : response.progress) {
        if (!first) out += ',';
        first = false;
        out += "{\"seq\":";
        append_u64(out, record.seq);
        out += ",\"evaluated\":";
        append_u64(out, record.evaluated);
        out += ",\"total\":";
        append_u64(out, record.total);
        if (record.best.valid) {
          out += ',';
          append_best(out, record.best);
        }
        out += '}';
      }
      out += "],\"next\":";
      append_u64(out, response.next);
    }
  }
  if (response.trace_id != 0) {
    out += ',';
    append_trace(out, response.trace_id);
  }
  if (response.worker >= 0) {
    out += ",\"worker\":";
    append_u64(out, static_cast<std::uint64_t>(response.worker));
  }
  out += "}\n";
  return out;
}

std::string serialize_job_request(const JobRequest& request) {
  std::string out = open_request(job_op_name(request.op), request);
  if (request.op == JobOp::Submit) {
    const jobs::JobSpec& spec = request.spec;
    // Every job-id-relevant field travels explicitly (no wire defaults):
    // the worker must derive the identical id from the forwarded line.
    out += "\"events\":";
    json::append_quoted(out, spec.events);
    out += ",\"instructions\":";
    append_u64(out, spec.instructions);
    out += ",\"size\":";
    append_u64(out, spec.target_size);
    out += ",\"candidates\":";
    append_u64(out, spec.candidates);
    out += ",\"seed\":";
    append_u64(out, spec.seed);
    if (!spec.client.empty()) {
      out += ",\"client\":";
      json::append_quoted(out, spec.client);
    }
    if (!spec.builtin.empty()) {
      out += ",\"suite\":";
      json::append_quoted(out, spec.builtin);
    } else {
      out += ",\"name\":";
      json::append_quoted(out, spec.csv_name);
      out += ",\"csv\":";
      json::append_quoted(out, spec.csv_text);
      if (!spec.series_text.empty()) {
        out += ",\"series_csv\":";
        json::append_quoted(out, spec.series_text);
      }
    }
  } else if (request.op != JobOp::List) {
    out += "\"job\":";
    json::append_quoted(out, request.job);
    if (request.op == JobOp::Watch) {
      out += ",\"from\":";
      append_u64(out, request.from);
    }
  }
  return close_request(std::move(out));
}

bool parse_job_response(const std::string& line, JobResponse& out) {
  out = JobResponse{};
  json::Value response;
  if (!parse_reply(line, response, out)) return false;
  if (const json::Value* worker = response.find("worker")) {
    std::uint64_t index = 0;
    if (!exact_u64(*worker, index) ||
        index > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      return false;
    }
    out.worker = static_cast<int>(index);
  }
  if (!out.ok) return true;
  if (const json::Value* list = response.find("jobs")) {
    if (list->type != json::Value::Type::Array) return false;
    out.op = JobOp::List;
    for (const json::Value& element : list->elements) {
      jobs::JobStatus status;
      if (!element.is_object() || !parse_status_fields(element, status)) {
        return false;
      }
      out.jobs.push_back(std::move(status));
    }
    return true;
  }
  if (!parse_status_fields(response, out.status)) return false;
  if (const json::Value* duplicate = response.find("duplicate")) {
    if (duplicate->type != json::Value::Type::Bool) return false;
    out.op = JobOp::Submit;
    out.duplicate = duplicate->boolean;
  }
  if (const json::Value* progress = response.find("progress")) {
    if (progress->type != json::Value::Type::Array) return false;
    out.op = JobOp::Watch;
    for (const json::Value& element : progress->elements) {
      if (!element.is_object()) return false;
      const json::Value* seq = element.find("seq");
      const json::Value* evaluated = element.find("evaluated");
      const json::Value* total = element.find("total");
      jobs::JobProgress record;
      if (!seq || !exact_u64(*seq, record.seq) || !evaluated ||
          !exact_u64(*evaluated, record.evaluated) || !total ||
          !exact_u64(*total, record.total)) {
        return false;
      }
      if (const json::Value* best = element.find("best")) {
        if (!parse_best_object(*best, record.best)) return false;
      }
      out.progress.push_back(std::move(record));
    }
    const json::Value* next = response.find("next");
    if (!next || !exact_u64(*next, out.next)) return false;
  }
  return true;
}

std::string serialize_score_request(const ScoreRequest& request) {
  std::string out = open_request(kOpTable[0].name, request);
  if (!(request.content_key == Key128{})) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016" PRIx64 "%016" PRIx64,
                  request.content_key.hi, request.content_key.lo);
    out += "\"key\":\"";
    out += buf;
    out += "\",";
  }
  out += "\"events\":";
  json::append_quoted(out, request.events);
  if (!request.builtin.empty()) {
    out += ",\"suite\":";
    json::append_quoted(out, request.builtin);
    out += ",\"instructions\":";
    append_u64(out, request.instructions);
  } else if (!request.csv_text.empty()) {
    out += ",\"name\":";
    json::append_quoted(out, request.csv_name);
    out += ",\"csv\":";
    json::append_quoted(out, request.csv_text);
    if (!request.series_text.empty()) {
      out += ",\"series_csv\":";
      json::append_quoted(out, request.series_text);
    }
  } else if (request.data) {
    // Direct-API matrix: forwarded as lossless CSV text, so the worker
    // parses back the exact doubles.
    out += ",\"name\":";
    json::append_quoted(out, request.data->suite_name());
    out += ",\"csv\":";
    json::append_quoted(out, core::write_aggregates_csv_text(*request.data));
    if (request.data->has_series()) {
      out += ",\"series_csv\":";
      json::append_quoted(out, core::write_series_csv_text(*request.data));
    }
  } else {
    throw std::runtime_error("request has nothing to score");
  }
  return close_request(std::move(out), request.deadline_ms);
}

std::string forwarded_line(ScoreRequest request) {
  request.deadline_ms = 0;
  return serialize_score_request(request);
}

bool parse_score_response(const std::string& line, ScoreResponse& out) {
  out = ScoreResponse{};
  json::Value response;
  if (!parse_reply(line, response, out)) return false;
  if (!out.ok) return true;
  const json::Value* cache = response.find("cache");
  const json::Value* report = response.find("report");
  if (!cache || !cache->is_string() || !report || !report->is_string()) {
    return false;
  }
  out.cache_hit = cache->string == "hit";
  out.report = report->string;
  return true;
}

std::string serialize_shard_stats(const std::string& id,
                                  const std::string& mode,
                                  const std::vector<WorkerStat>& workers) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,\"mode\":";
  json::append_quoted(out, mode);
  out += ",\"workers\":[";
  bool first = true;
  for (const WorkerStat& stat : workers) {
    if (!first) out += ',';
    first = false;
    out += "{\"worker\":";
    append_u64(out, stat.worker);
    out += ",\"pid\":";
    char pid_buf[24];
    std::snprintf(pid_buf, sizeof pid_buf, "%" PRId64, stat.pid);
    out += pid_buf;
    out += ",\"alive\":";
    out += stat.alive ? "true" : "false";
    out += ",\"restarts\":";
    append_u64(out, stat.restarts);
    out += ",\"forwarded\":";
    append_u64(out, stat.forwarded);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string serialize_metrics_merged(
    const std::string& id,
    const std::map<std::string, std::uint64_t>& counters) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    json::append_quoted(out, name);
    out += ':';
    append_u64(out, value);
  }
  out += "},";
  append_histograms(out);
  out += "}\n";
  return out;
}

std::string serialize_worker_hello(std::size_t worker, std::int64_t pid) {
  std::string out = "{\"hello\":\"perspector-worker/1\",\"worker\":";
  append_u64(out, worker);
  out += ",\"pid\":";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, pid);
  out += buf;
  out += "}\n";
  return out;
}

bool parse_worker_hello(const std::string& line, std::size_t& worker,
                        std::int64_t& pid) {
  json::Value hello;
  try {
    hello = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!hello.is_object()) return false;
  const json::Value* tag = hello.find("hello");
  const json::Value* index = hello.find("worker");
  const json::Value* pid_value = hello.find("pid");
  if (!tag || !tag->is_string() || tag->string != "perspector-worker/1" ||
      !index || !index->is_number() || !pid_value ||
      !pid_value->is_number()) {
    return false;
  }
  worker = static_cast<std::size_t>(index->number);
  pid = static_cast<std::int64_t>(pid_value->number);
  return true;
}

}  // namespace perspector::serve
