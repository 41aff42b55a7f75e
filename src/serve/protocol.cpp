#include "serve/protocol.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

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

bool read_u64(const json::Value& object, const char* key,
              std::uint64_t& out, std::string& problem) {
  const json::Value* value = object.find(key);
  if (!value) return true;
  if (!value->is_number() || value->number < 0 ||
      value->number != std::floor(value->number)) {
    problem = std::string("field '") + key +
              "' must be a non-negative integer";
    return false;
  }
  out = static_cast<std::uint64_t>(value->number);
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
  if (!candidate || !candidate->is_number() || !deviation ||
      !deviation->is_number() || !per_score ||
      per_score->type != json::Value::Type::Array || !indices ||
      indices->type != json::Value::Type::Array || !subset ||
      subset->type != json::Value::Type::Array) {
    return false;
  }
  best.valid = true;
  best.candidate = static_cast<std::uint64_t>(candidate->number);
  best.deviation_pct = deviation->number;
  for (const json::Value& element : per_score->elements) {
    if (!element.is_number()) return false;
    best.per_score_deviation_pct.push_back(element.number);
  }
  for (const json::Value& element : indices->elements) {
    if (!element.is_number()) return false;
    best.indices.push_back(static_cast<std::uint64_t>(element.number));
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
      !evaluated || !evaluated->is_number() || !total ||
      !total->is_number()) {
    return false;
  }
  status.id = job->string;
  if (!parse_job_state(state->string, status.state)) return false;
  status.evaluated = static_cast<std::uint64_t>(evaluated->number);
  status.total = static_cast<std::uint64_t>(total->number);
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

}  // namespace

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

  std::string op = "score";
  if (const json::Value* value = request.find("op")) {
    if (!value->is_string()) return bad_request(parsed.id, "'op' must be a string");
    op = value->string;
  }
  if (op == "ping") {
    parsed.ok = true;
    parsed.op = Op::Ping;
    return parsed;
  }
  if (op == "metrics") {
    parsed.ok = true;
    parsed.op = Op::Metrics;
    return parsed;
  }
  if (op == "stats") {
    parsed.ok = true;
    parsed.op = Op::Stats;
    return parsed;
  }
  if (op == "shard_stats") {
    parsed.ok = true;
    parsed.op = Op::ShardStats;
    return parsed;
  }
  if (op == "shutdown") {
    parsed.ok = true;
    parsed.op = Op::Shutdown;
    return parsed;
  }
  const bool is_mutate = op == "load_suite" || op == "add_workload" ||
                         op == "drop_workload" || op == "append_samples";
  if (is_mutate) {
    parsed.op = Op::Mutate;
    MutateRequest& mutate = parsed.mutate;
    mutate.id = parsed.id;
    mutate.op = op == "load_suite"     ? MutateOp::LoadSuite
                : op == "add_workload" ? MutateOp::AddWorkload
                : op == "drop_workload" ? MutateOp::DropWorkload
                                        : MutateOp::AppendSamples;
    std::string problem;
    if (!read_u64(request, "deadline_ms", mutate.deadline_ms, problem)) {
      return bad_request(parsed.id, problem);
    }
    if (const json::Value* events = request.find("events")) {
      if (!events->is_string()) {
        return bad_request(parsed.id, "'events' must be a string");
      }
      mutate.events = events->string;
    }
    if (const json::Value* trace = request.find("trace")) {
      if (!trace->is_string() ||
          !parse_hex_u64(trace->string, mutate.trace_id)) {
        return bad_request(parsed.id, "'trace' must be 16 hex digits");
      }
    }
    const json::Value* suite = request.find("suite");
    if (!suite || !suite->is_string() || suite->string.empty()) {
      return bad_request(parsed.id,
                         "op '" + op + "' requires 'suite' (the resident "
                         "suite name)");
    }
    mutate.suite = suite->string;
    // Payload CSV is retained raw and parsed engine-side, where the
    // resident base suite is available for column rearrangement and
    // delta validation.
    const json::Value* csv = request.find("csv");
    if (csv) {
      if (!csv->is_string()) {
        return bad_request(parsed.id, "'csv' must be CSV text");
      }
      mutate.csv_text = csv->string;
    }
    const json::Value* series = request.find("series_csv");
    if (series) {
      if (!series->is_string()) {
        return bad_request(parsed.id, "'series_csv' must be CSV text");
      }
      mutate.series_text = series->string;
    }
    if ((mutate.op == MutateOp::LoadSuite ||
         mutate.op == MutateOp::AddWorkload) &&
        mutate.csv_text.empty()) {
      return bad_request(parsed.id, "op '" + op + "' requires 'csv'");
    }
    if (mutate.op == MutateOp::AppendSamples && mutate.series_text.empty()) {
      return bad_request(parsed.id, "op '" + op + "' requires 'series_csv'");
    }
    if (mutate.op == MutateOp::DropWorkload) {
      const json::Value* workload = request.find("workload");
      if (!workload || !workload->is_string() || workload->string.empty()) {
        return bad_request(parsed.id, "op '" + op + "' requires 'workload'");
      }
      mutate.workload = workload->string;
    }
    parsed.ok = true;
    return parsed;
  }
  const bool is_job = op == "generate_submit" || op == "job_status" ||
                      op == "job_watch" || op == "job_cancel" ||
                      op == "job_list";
  if (is_job) {
    parsed.op = Op::Job;
    JobRequest& job = parsed.job;
    job.id = parsed.id;
    job.op = op == "generate_submit" ? JobOp::Submit
             : op == "job_status"    ? JobOp::Status
             : op == "job_watch"     ? JobOp::Watch
             : op == "job_cancel"    ? JobOp::Cancel
                                     : JobOp::List;
    if (const json::Value* trace = request.find("trace")) {
      if (!trace->is_string() ||
          !parse_hex_u64(trace->string, job.trace_id)) {
        return bad_request(parsed.id, "'trace' must be 16 hex digits");
      }
    }
    if (job.op == JobOp::Submit) {
      jobs::JobSpec& spec = job.spec;
      std::string problem;
      if (!read_u64(request, "instructions", spec.instructions, problem) ||
          !read_u64(request, "size", spec.target_size, problem) ||
          !read_u64(request, "candidates", spec.candidates, problem) ||
          !read_u64(request, "seed", spec.seed, problem)) {
        return bad_request(parsed.id, problem);
      }
      if (spec.instructions == 0) {
        return bad_request(parsed.id, "field 'instructions' must be >= 1");
      }
      if (const json::Value* events = request.find("events")) {
        if (!events->is_string()) {
          return bad_request(parsed.id, "'events' must be a string");
        }
        spec.events = events->string;
      }
      if (const json::Value* client = request.find("client")) {
        if (!client->is_string()) {
          return bad_request(parsed.id, "'client' must be a string");
        }
        spec.client = client->string;
      }
      const json::Value* suite = request.find("suite");
      const json::Value* csv = request.find("csv");
      if ((suite != nullptr) == (csv != nullptr)) {
        return bad_request(parsed.id,
                           "exactly one of 'suite' or 'csv' is required");
      }
      if (suite) {
        if (!suite->is_string() || suite->string.empty()) {
          return bad_request(parsed.id, "'suite' must be a suite name");
        }
        spec.builtin = suite->string;
      } else {
        if (!csv->is_string()) {
          return bad_request(parsed.id, "'csv' must be CSV text");
        }
        spec.csv_text = csv->string;
        spec.csv_name = "uploaded";
        if (const json::Value* label = request.find("name")) {
          if (!label->is_string()) {
            return bad_request(parsed.id, "'name' must be a string");
          }
          spec.csv_name = label->string;
        }
        if (const json::Value* series = request.find("series_csv")) {
          if (!series->is_string()) {
            return bad_request(parsed.id, "'series_csv' must be CSV text");
          }
          spec.series_text = series->string;
        }
      }
    } else if (job.op != JobOp::List) {
      const json::Value* target = request.find("job");
      if (!target || !target->is_string() || !valid_job_id(target->string)) {
        return bad_request(
            parsed.id, "op '" + op + "' requires 'job' (16 hex digits)");
      }
      job.job = target->string;
      if (job.op == JobOp::Watch) {
        std::string problem;
        if (!read_u64(request, "from", job.from, problem)) {
          return bad_request(parsed.id, problem);
        }
      }
    }
    parsed.ok = true;
    return parsed;
  }
  if (op != "score") {
    return bad_request(parsed.id, "unknown op '" + op + "'");
  }

  parsed.op = Op::Score;
  ScoreRequest& score = parsed.score;
  score.id = parsed.id;

  std::string problem;
  if (!read_u64(request, "instructions", score.instructions, problem) ||
      !read_u64(request, "deadline_ms", score.deadline_ms, problem)) {
    return bad_request(parsed.id, problem);
  }
  if (score.instructions == 0) {
    return bad_request(parsed.id, "field 'instructions' must be >= 1");
  }

  if (const json::Value* events = request.find("events")) {
    if (!events->is_string()) {
      return bad_request(parsed.id, "'events' must be a string");
    }
    score.events = events->string;
  }

  // Router-forwarded requests carry the router's trace id and content
  // key; the worker session reuses both instead of deriving its own.
  if (const json::Value* trace = request.find("trace")) {
    if (!trace->is_string() ||
        !parse_hex_u64(trace->string, score.trace_id)) {
      return bad_request(parsed.id, "'trace' must be 16 hex digits");
    }
  }
  if (const json::Value* key = request.find("key")) {
    if (!key->is_string() || key->string.size() != 32 ||
        !parse_hex_u64(key->string.substr(0, 16), score.content_key.hi) ||
        !parse_hex_u64(key->string.substr(16), score.content_key.lo)) {
      return bad_request(parsed.id, "'key' must be 32 hex digits");
    }
  }

  const json::Value* suite = request.find("suite");
  const json::Value* csv = request.find("csv");
  if ((suite != nullptr) == (csv != nullptr)) {
    return bad_request(parsed.id,
                       "exactly one of 'suite' or 'csv' is required");
  }
  if (suite) {
    if (!suite->is_string() || suite->string.empty()) {
      return bad_request(parsed.id, "'suite' must be a suite name");
    }
    score.builtin = suite->string;
    parsed.ok = true;
    return parsed;
  }

  if (!csv->is_string()) {
    return bad_request(parsed.id, "'csv' must be CSV text");
  }
  std::string name = "inline";
  if (const json::Value* label = request.find("name")) {
    if (!label->is_string()) {
      return bad_request(parsed.id, "'name' must be a string");
    }
    name = label->string;
  }
  try {
    const json::Value* series = request.find("series_csv");
    if (series && !series->is_string()) {
      return bad_request(parsed.id, "'series_csv' must be CSV text");
    }
    score.data = std::make_shared<const core::CounterMatrix>(
        series ? core::read_with_series_csv_text(name, csv->string,
                                                 series->string)
               : core::read_aggregates_csv_text(name, csv->string));
    // Retain the raw payload: the content key digests these exact bytes,
    // and the router forwards them verbatim to its workers.
    score.csv_name = name;
    score.csv_text = csv->string;
    if (series) score.series_text = series->string;
  } catch (const std::exception& e) {
    return bad_request(parsed.id, e.what());
  }
  parsed.ok = true;
  return parsed;
}

std::string serialize_response(const ScoreResponse& response) {
  std::string out = "{";
  append_id(out, response.id);
  if (response.ok) {
    out += "\"ok\":true,\"cache\":";
    out += response.cache_hit ? "\"hit\"" : "\"miss\"";
    if (response.trace_id != 0) {
      out += ',';
      append_trace(out, response.trace_id);
    }
    out += ",\"report\":";
    json::append_quoted(out, response.report);
  } else {
    out += "\"ok\":false,\"error\":";
    json::append_quoted(out, response.error);
    out += ",\"message\":";
    json::append_quoted(out, response.message);
    if (response.trace_id != 0) {
      out += ',';
      append_trace(out, response.trace_id);
    }
  }
  out += "}\n";
  return out;
}

std::string serialize_error(const std::string& id, const std::string& error,
                            const std::string& message) {
  ScoreResponse response;
  response.id = id;
  response.ok = false;
  response.error = error;
  response.message = message;
  return serialize_response(response);
}

std::string serialize_ping(const std::string& id) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,\"pong\":true}\n";
  return out;
}

std::string serialize_metrics(const std::string& id) {
  std::string out = "{";
  append_id(out, id);
  out += "\"ok\":true,\"counters\":{";
  bool first = true;
  for (const auto& snapshot : obs::counters_snapshot()) {
    if (!first) out += ',';
    first = false;
    json::append_quoted(out, snapshot.name);
    out += ':';
    append_u64(out, snapshot.value);
  }
  out += "},\"distributions\":{";
  first = true;
  for (const auto& snapshot : obs::distributions_snapshot()) {
    if (!first) out += ',';
    first = false;
    json::append_quoted(out, snapshot.name);
    out += ":{\"count\":";
    append_u64(out, snapshot.stats.count);
    out += ",\"min\":";
    append_double(out, snapshot.stats.min);
    out += ",\"max\":";
    append_double(out, snapshot.stats.max);
    out += ",\"sum\":";
    append_double(out, snapshot.stats.sum);
    out += ",\"mean\":";
    append_double(out, snapshot.stats.mean());
    out += '}';
  }
  out += "},";
  append_histograms(out);
  out += "}\n";
  return out;
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
  if (!response.ok) {
    ScoreResponse error;
    error.id = response.id;
    error.ok = false;
    error.error = response.error;
    error.message = response.message;
    error.trace_id = response.trace_id;
    return serialize_response(error);
  }
  std::string out = "{";
  append_id(out, response.id);
  out += "\"ok\":true,\"suite\":";
  json::append_quoted(out, response.suite);
  out += ",\"version\":";
  append_u64(out, response.version);
  out += ",\"cache\":";
  out += response.cache_hit ? "\"hit\"" : "\"miss\"";
  if (response.trace_id != 0) {
    out += ',';
    append_trace(out, response.trace_id);
  }
  out += ",\"report\":";
  json::append_quoted(out, response.report);
  out += "}\n";
  return out;
}

std::string serialize_mutate_request(const MutateRequest& request) {
  std::string out = "{\"op\":\"";
  out += mutate_op_name(request.op);
  out += "\",";
  append_id(out, request.id);
  if (request.trace_id != 0) {
    append_trace(out, request.trace_id);
    out += ',';
  }
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
  out += "}\n";
  return out;
}

bool parse_mutate_response(const std::string& line, MutateResponse& out) {
  json::Value response;
  try {
    response = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!response.is_object()) return false;
  const json::Value* ok = response.find("ok");
  if (!ok || (ok->type != json::Value::Type::Bool)) return false;
  out = MutateResponse{};
  out.id = id_of(response);
  out.ok = ok->boolean;
  if (const json::Value* trace = response.find("trace")) {
    if (!trace->is_string() || !parse_hex_u64(trace->string, out.trace_id)) {
      return false;
    }
  }
  if (out.ok) {
    const json::Value* suite = response.find("suite");
    const json::Value* version = response.find("version");
    const json::Value* cache = response.find("cache");
    const json::Value* report = response.find("report");
    if (!suite || !suite->is_string() || !version || !version->is_number() ||
        !cache || !cache->is_string() || !report || !report->is_string()) {
      return false;
    }
    out.suite = suite->string;
    out.version = static_cast<std::uint64_t>(version->number);
    out.cache_hit = cache->string == "hit";
    out.report = report->string;
  } else {
    const json::Value* error = response.find("error");
    const json::Value* message = response.find("message");
    if (!error || !error->is_string() || !message || !message->is_string()) {
      return false;
    }
    out.error = error->string;
    out.message = message->string;
  }
  return true;
}

std::string serialize_job_response(const JobResponse& response) {
  if (!response.ok) {
    ScoreResponse error;
    error.id = response.id;
    error.ok = false;
    error.error = response.error;
    error.message = response.message;
    error.trace_id = response.trace_id;
    return serialize_response(error);
  }
  std::string out = "{";
  append_id(out, response.id);
  out += "\"ok\":true,";
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
  std::string out = "{\"op\":\"";
  out += job_op_name(request.op);
  out += "\",";
  append_id(out, request.id);
  if (request.trace_id != 0) {
    append_trace(out, request.trace_id);
    out += ',';
  }
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
  if (out.back() == ',') out.pop_back();  // job_list may carry no fields
  out += "}\n";
  return out;
}

bool parse_job_response(const std::string& line, JobResponse& out) {
  json::Value response;
  try {
    response = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!response.is_object()) return false;
  const json::Value* ok = response.find("ok");
  if (!ok || (ok->type != json::Value::Type::Bool)) return false;
  out = JobResponse{};
  out.id = id_of(response);
  out.ok = ok->boolean;
  if (const json::Value* trace = response.find("trace")) {
    if (!trace->is_string() || !parse_hex_u64(trace->string, out.trace_id)) {
      return false;
    }
  }
  if (const json::Value* worker = response.find("worker")) {
    if (!worker->is_number()) return false;
    out.worker = static_cast<int>(worker->number);
  }
  if (!out.ok) {
    const json::Value* error = response.find("error");
    const json::Value* message = response.find("message");
    if (!error || !error->is_string() || !message || !message->is_string()) {
      return false;
    }
    out.error = error->string;
    out.message = message->string;
    return true;
  }
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
      if (!seq || !seq->is_number() || !evaluated ||
          !evaluated->is_number() || !total || !total->is_number()) {
        return false;
      }
      jobs::JobProgress record;
      record.seq = static_cast<std::uint64_t>(seq->number);
      record.evaluated = static_cast<std::uint64_t>(evaluated->number);
      record.total = static_cast<std::uint64_t>(total->number);
      if (const json::Value* best = element.find("best")) {
        if (!parse_best_object(*best, record.best)) return false;
      }
      out.progress.push_back(std::move(record));
    }
    const json::Value* next = response.find("next");
    if (!next || !next->is_number()) return false;
    out.next = static_cast<std::uint64_t>(next->number);
  }
  return true;
}

std::string serialize_score_request(const ScoreRequest& request) {
  std::string out = "{\"op\":\"score\",";
  append_id(out, request.id);
  if (request.trace_id != 0) {
    append_trace(out, request.trace_id);
    out += ',';
  }
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
  out += "}\n";
  return out;
}

bool parse_score_response(const std::string& line, ScoreResponse& out) {
  json::Value response;
  try {
    response = json::parse(line);
  } catch (const std::exception&) {
    return false;
  }
  if (!response.is_object()) return false;
  const json::Value* ok = response.find("ok");
  if (!ok || (ok->type != json::Value::Type::Bool)) return false;
  out = ScoreResponse{};
  out.id = id_of(response);
  out.ok = ok->boolean;
  if (const json::Value* trace = response.find("trace")) {
    if (!trace->is_string() || !parse_hex_u64(trace->string, out.trace_id)) {
      return false;
    }
  }
  if (out.ok) {
    const json::Value* cache = response.find("cache");
    const json::Value* report = response.find("report");
    if (!cache || !cache->is_string() || !report || !report->is_string()) {
      return false;
    }
    out.cache_hit = cache->string == "hit";
    out.report = report->string;
  } else {
    const json::Value* error = response.find("error");
    const json::Value* message = response.find("message");
    if (!error || !error->is_string() || !message || !message->is_string()) {
      return false;
    }
    out.error = error->string;
    out.message = message->string;
  }
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
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, obs::DistributionStats>& distributions) {
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
  out += "},\"distributions\":{";
  first = true;
  for (const auto& [name, stats] : distributions) {
    if (!first) out += ',';
    first = false;
    json::append_quoted(out, name);
    out += ":{\"count\":";
    append_u64(out, stats.count);
    out += ",\"min\":";
    append_double(out, stats.min);
    out += ",\"max\":";
    append_double(out, stats.max);
    out += ",\"sum\":";
    append_double(out, stats.sum);
    out += ",\"mean\":";
    append_double(out, stats.mean());
    out += '}';
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
