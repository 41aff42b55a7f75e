// Unit tests for the serving layer's building blocks: the JSON
// round-trip (the determinism contract needs exact bytes through the
// wire), content hashing, the LRU result cache, and the protocol
// parser/serializers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "jobs/job.hpp"
#include "serve/content_hash.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"

namespace perspector::serve {
namespace {

// ---- json ----------------------------------------------------------------

std::string round_trip(const std::string& text) {
  const json::Value parsed = json::parse("{\"k\":" + json::quoted(text) + "}");
  return parsed.find("k")->string;
}

TEST(ServeJson, QuoteParseRoundTripIsExact) {
  EXPECT_EQ(round_trip(""), "");
  EXPECT_EQ(round_trip("plain text"), "plain text");
  EXPECT_EQ(round_trip("line\nbreaks\tand \"quotes\" \\ back"),
            "line\nbreaks\tand \"quotes\" \\ back");
  // Every control byte must survive (reports never contain them, but the
  // escaper must not be the component that assumes that).
  std::string control;
  for (int c = 1; c < 0x20; ++c) control.push_back(static_cast<char>(c));
  EXPECT_EQ(round_trip(control), control);
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(round_trip("caf\xc3\xa9 \xe2\x82\xac"), "caf\xc3\xa9 \xe2\x82\xac");
}

TEST(ServeJson, ParsesEscapesAndSurrogatePairs) {
  const json::Value v = json::parse(R"({"s":"a\u0041\n\u00e9\ud83d\ude00"})");
  EXPECT_EQ(v.find("s")->string, "aA\n\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(ServeJson, ParsesNumbersBoolsNullArrays) {
  const json::Value v =
      json::parse(R"({"n":-12.5e1,"t":true,"f":false,"z":null,"a":[1,2]})");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -125.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_EQ(v.find("z")->type, json::Value::Type::Null);
  ASSERT_EQ(v.find("a")->elements.size(), 2u);
  EXPECT_DOUBLE_EQ(v.find("a")->elements[1].number, 2.0);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), std::runtime_error);
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":01}"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"bad\":\"\\q\"}"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
}

TEST(ServeJson, FindReturnsFirstMatchOrNull) {
  const json::Value v = json::parse(R"({"a":1,"a":2})");
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(json::parse("[1]").find("a"), nullptr);  // not an object
}

// ---- content hashing ------------------------------------------------------

core::CounterMatrix tiny_matrix(const std::string& name, double seed) {
  la::Matrix values{{seed, seed + 1.0}, {seed + 2.0, seed + 3.0}};
  return core::CounterMatrix(name, {"w0", "w1"}, {"c0", "c1"}, values);
}

TEST(ServeContentHash, SensitiveToEveryField) {
  const auto digest = [](const core::CounterMatrix& m) {
    ContentHasher hasher;
    hash_counter_matrix(hasher, m);
    return hasher.digest();
  };
  const Key128 base = digest(tiny_matrix("suite", 1.0));
  EXPECT_EQ(base, digest(tiny_matrix("suite", 1.0)));  // deterministic
  EXPECT_NE(base, digest(tiny_matrix("other", 1.0)));  // name matters
  EXPECT_NE(base, digest(tiny_matrix("suite", 1.0 + 1e-12)));  // bits matter
}

TEST(ServeContentHash, MatrixDigestIsTheFoldOfItsRowDigests) {
  const auto cold = [](const core::CounterMatrix& m) {
    ContentHasher hasher;
    hash_counter_matrix(hasher, m);
    return hasher.digest();
  };
  const auto fold = [](const core::CounterMatrix& m,
                       const std::vector<Key128>& rows) {
    ContentHasher hasher;
    fold_counter_matrix(hasher, m, rows);
    return hasher.digest();
  };
  const core::CounterMatrix base(
      "s", {"w0", "w1", "w2"}, {"c0"}, la::Matrix{{1.0}, {2.0}, {3.0}},
      {{{0.0, 1.0}}, {{2.0}}, {{3.0, 4.0}}});
  std::vector<Key128> rows;
  for (std::size_t w = 0; w < base.num_workloads(); ++w) {
    rows.push_back(hash_counter_row(base, w));
  }
  EXPECT_EQ(fold(base, rows), cold(base));

  // An edit of one row changes that row's digest alone; re-hashing just
  // that row keeps the fold equal to a cold hash. -0.0 is not 0.0.
  const core::CounterMatrix edited(
      "s", {"w0", "w1", "w2"}, {"c0"}, la::Matrix{{1.0}, {2.0}, {3.0}},
      {{{-0.0, 1.0}}, {{2.0}}, {{3.0, 4.0}}});
  EXPECT_NE(hash_counter_row(edited, 0), rows[0]);
  EXPECT_EQ(hash_counter_row(edited, 1), rows[1]);
  EXPECT_EQ(hash_counter_row(edited, 2), rows[2]);
  rows[0] = hash_counter_row(edited, 0);
  EXPECT_EQ(fold(edited, rows), cold(edited));
  EXPECT_NE(cold(edited), cold(base));

  // Row order is part of the content.
  const core::CounterMatrix swapped = base.select_workloads({1, 0, 2});
  EXPECT_NE(cold(swapped), cold(base));
}

TEST(ServeContentHash, LengthPrefixPreventsConcatenationAliases) {
  const Key128 a = ContentHasher().str("ab").str("c").digest();
  const Key128 b = ContentHasher().str("a").str("bc").digest();
  EXPECT_NE(a, b);
  EXPECT_NE(ContentHasher().str("").digest(), ContentHasher().digest());
}

// ---- result cache ---------------------------------------------------------

Key128 key_of(std::uint64_t n) { return ContentHasher().u64(n).digest(); }

TEST(ServeResultCache, EvictsLeastRecentlyUsed) {
  // Budget fits exactly two entries of this size.
  const std::string report(256, 'r');
  const std::size_t entry = report.size() + ResultCache::kEntryOverhead;
  ResultCache cache(2 * entry);

  cache.put(key_of(1), report);
  cache.put(key_of(2), report);
  ASSERT_EQ(cache.entries(), 2u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  cache.put(key_of(3), report);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  EXPECT_FALSE(cache.get(key_of(2)).has_value());
  EXPECT_TRUE(cache.get(key_of(3)).has_value());
}

TEST(ServeResultCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.put(key_of(1), "report");
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.get(key_of(1)).has_value());
}

TEST(ServeResultCache, OversizedValueIsNotCached) {
  ResultCache cache(64);
  cache.put(key_of(1), std::string(1024, 'x'));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ServeResultCache, PutRefreshesExistingEntry) {
  ResultCache cache(1 << 20);
  cache.put(key_of(1), "old");
  cache.put(key_of(1), "new");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.get(key_of(1)).value(), "new");
}

// ---- protocol -------------------------------------------------------------

TEST(ServeProtocol, ParsesBuiltinScoreRequest) {
  const ParsedRequest parsed = parse_request_line(
      R"({"id":7,"op":"score","suite":"nbench","instructions":20000,"events":"llc","deadline_ms":250})");
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.op, Op::Score);
  EXPECT_EQ(parsed.id, "7");  // numeric ids echo as integer text
  EXPECT_EQ(parsed.score.builtin, "nbench");
  EXPECT_EQ(parsed.score.instructions, 20000u);
  EXPECT_EQ(parsed.score.events, "llc");
  EXPECT_EQ(parsed.score.deadline_ms, 250u);
}

TEST(ServeProtocol, ParsesInlineCsvRequest) {
  const ParsedRequest parsed = parse_request_line(
      R"({"id":"c","name":"mini","csv":"workload,c0,c1\na,1,2\nb,3,4\n"})");
  ASSERT_TRUE(parsed.ok) << parsed.message;
  ASSERT_NE(parsed.score.data, nullptr);
  EXPECT_EQ(parsed.score.data->suite_name(), "mini");
  EXPECT_EQ(parsed.score.data->num_workloads(), 2u);
}

TEST(ServeProtocol, BadRequestsAreStructuredNotThrown) {
  EXPECT_EQ(parse_request_line("not json").error, "bad_request");
  EXPECT_EQ(parse_request_line("[1,2]").error, "bad_request");
  // Only '-' or a digit starts a number; any other byte that starts no
  // value is named as such, while a malformed number stays a bad number.
  for (const char* line : {"@", "not json", "+1"}) {
    const ParsedRequest parsed = parse_request_line(line);
    EXPECT_EQ(parsed.error, "bad_request") << line;
    EXPECT_EQ(parsed.message, "json: unexpected character at byte 0") << line;
  }
  for (const char* line : {"-x", "01"}) {
    const ParsedRequest parsed = parse_request_line(line);
    EXPECT_EQ(parsed.error, "bad_request") << line;
    EXPECT_EQ(parsed.message, "json: bad number at byte 0") << line;
  }
  // Both or neither of suite/csv.
  EXPECT_FALSE(parse_request_line(R"({"op":"score"})").ok);
  EXPECT_FALSE(
      parse_request_line(R"({"suite":"nbench","csv":"workload,c0\n"})").ok);
  // Invalid numerics.
  EXPECT_FALSE(
      parse_request_line(R"({"suite":"nbench","instructions":-5})").ok);
  EXPECT_FALSE(parse_request_line(R"({"suite":"nbench","instructions":0})").ok);
  // CSV errors surface with the reader's line-numbered message.
  const ParsedRequest bad_csv =
      parse_request_line(R"({"csv":"workload,c0\na,nan\n"})");
  EXPECT_FALSE(bad_csv.ok);
  EXPECT_NE(bad_csv.message.find("non-finite"), std::string::npos);
}

TEST(ServeProtocol, ParsesControlOps) {
  EXPECT_EQ(parse_request_line(R"({"op":"ping"})").op, Op::Ping);
  EXPECT_EQ(parse_request_line(R"({"op":"metrics"})").op, Op::Metrics);
  EXPECT_EQ(parse_request_line(R"({"op":"shutdown"})").op, Op::Shutdown);
  EXPECT_FALSE(parse_request_line(R"({"op":"dance"})").ok);
}

TEST(ServeProtocol, SerializeResponseRoundTripsReportBytes) {
  ScoreResponse response;
  response.id = "r1";
  response.ok = true;
  response.cache_hit = true;
  response.report = "line one\n| table | cells |\n\ttabbed\n";
  const std::string line = serialize_response(response);
  EXPECT_EQ(line.back(), '\n');
  const json::Value parsed = json::parse(line);
  EXPECT_EQ(parsed.find("id")->string, "r1");
  EXPECT_TRUE(parsed.find("ok")->boolean);
  EXPECT_EQ(parsed.find("cache")->string, "hit");
  EXPECT_EQ(parsed.find("report")->string, response.report);
}

TEST(ServeProtocol, SerializeErrorCarriesCodeAndMessage) {
  const json::Value parsed =
      json::parse(serialize_error("x", "overloaded", "queue full"));
  EXPECT_FALSE(parsed.find("ok")->boolean);
  EXPECT_EQ(parsed.find("error")->string, "overloaded");
  EXPECT_EQ(parsed.find("message")->string, "queue full");
}

// ---- mutate ops -----------------------------------------------------------

TEST(ServeProtocol, ParsesMutateOps) {
  const ParsedRequest load = parse_request_line(
      R"({"id":"1","op":"load_suite","suite":"live","csv":"workload,c0\na,1\n","series_csv":"workload,counter,sample,value\na,c0,0,1\n","events":"llc","deadline_ms":50})");
  ASSERT_TRUE(load.ok) << load.message;
  EXPECT_EQ(load.op, Op::Mutate);
  EXPECT_EQ(load.mutate.op, MutateOp::LoadSuite);
  EXPECT_EQ(load.mutate.suite, "live");
  EXPECT_EQ(load.mutate.csv_text, "workload,c0\na,1\n");
  EXPECT_EQ(load.mutate.series_text,
            "workload,counter,sample,value\na,c0,0,1\n");
  EXPECT_EQ(load.mutate.events, "llc");
  EXPECT_EQ(load.mutate.deadline_ms, 50u);

  const ParsedRequest drop = parse_request_line(
      R"({"op":"drop_workload","suite":"live","workload":"a"})");
  ASSERT_TRUE(drop.ok);
  EXPECT_EQ(drop.mutate.op, MutateOp::DropWorkload);
  EXPECT_EQ(drop.mutate.workload, "a");

  const ParsedRequest append = parse_request_line(
      R"({"op":"append_samples","suite":"live","series_csv":"workload,counter,sample,value\na,c0,1,2\n"})");
  ASSERT_TRUE(append.ok);
  EXPECT_EQ(append.mutate.op, MutateOp::AppendSamples);

  const ParsedRequest add = parse_request_line(
      R"({"op":"add_workload","suite":"live","csv":"workload,c0\nb,2\n"})");
  ASSERT_TRUE(add.ok);
  EXPECT_EQ(add.mutate.op, MutateOp::AddWorkload);
}

TEST(ServeProtocol, MutateOpsValidateTheirRequiredFields) {
  // Every op needs a suite name.
  EXPECT_FALSE(parse_request_line(R"({"op":"load_suite","csv":"x"})").ok);
  // load_suite / add_workload need an aggregate payload.
  EXPECT_FALSE(parse_request_line(R"({"op":"load_suite","suite":"s"})").ok);
  EXPECT_FALSE(parse_request_line(R"({"op":"add_workload","suite":"s"})").ok);
  // drop_workload needs the workload, append_samples the series payload.
  EXPECT_FALSE(
      parse_request_line(R"({"op":"drop_workload","suite":"s"})").ok);
  EXPECT_FALSE(
      parse_request_line(R"({"op":"append_samples","suite":"s"})").ok);
}

TEST(ServeProtocol, MutateRequestForwardingRoundTrips) {
  MutateRequest request;
  request.id = "m7";
  request.op = MutateOp::AddWorkload;
  request.suite = "live";
  request.csv_text = "workload,c0\nb,2\n";
  request.series_text = "workload,counter,sample,value\nb,c0,0,2\n";
  request.events = "llc";
  request.trace_id = 0x9f86d081884c7d65ull;

  const ParsedRequest parsed =
      parse_request_line(serialize_mutate_request(request));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  ASSERT_EQ(parsed.op, Op::Mutate);
  EXPECT_EQ(parsed.mutate.id, "m7");
  EXPECT_EQ(parsed.mutate.op, MutateOp::AddWorkload);
  EXPECT_EQ(parsed.mutate.suite, request.suite);
  EXPECT_EQ(parsed.mutate.csv_text, request.csv_text);
  EXPECT_EQ(parsed.mutate.series_text, request.series_text);
  EXPECT_EQ(parsed.mutate.events, "llc");
  EXPECT_EQ(parsed.mutate.trace_id, request.trace_id);
}

TEST(ServeProtocol, MutateResponseRoundTripsExactly) {
  MutateResponse response;
  response.id = "m1";
  response.ok = true;
  response.suite = "live";
  response.version = 3;
  response.cache_hit = true;
  response.report = "report\nwith | table |\n";
  response.trace_id = 0xabcdef0123456789ull;

  MutateResponse back;
  ASSERT_TRUE(
      parse_mutate_response(serialize_mutate_response(response), back));
  EXPECT_EQ(back.id, response.id);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.suite, "live");
  EXPECT_EQ(back.version, 3u);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.report, response.report);
  EXPECT_EQ(back.trace_id, response.trace_id);

  // Error shape: same bytes as a score error, still parseable.
  MutateResponse error;
  error.id = "m2";
  error.error = "bad_request";
  error.message = "unknown resident suite 'x' (load_suite first)";
  MutateResponse error_back;
  ASSERT_TRUE(
      parse_mutate_response(serialize_mutate_response(error), error_back));
  EXPECT_FALSE(error_back.ok);
  EXPECT_EQ(error_back.error, "bad_request");
  EXPECT_EQ(error_back.message, error.message);
  EXPECT_FALSE(parse_mutate_response("not json", error_back));
}

// ---- envelope: every op round-trips through its encoder -----------------

void expect_same_header(const RequestHeader& got, const RequestHeader& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.trace_id, want.trace_id);
}

void expect_same(const ScoreRequest& got, const ScoreRequest& want) {
  expect_same_header(got, want);
  EXPECT_EQ(got.builtin, want.builtin);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.deadline_ms, want.deadline_ms);
  EXPECT_TRUE(got.content_key == want.content_key);
  EXPECT_EQ(got.csv_name, want.csv_name);
  EXPECT_EQ(got.csv_text, want.csv_text);
  EXPECT_EQ(got.series_text, want.series_text);
}

void expect_same(const MutateRequest& got, const MutateRequest& want) {
  expect_same_header(got, want);
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.suite, want.suite);
  EXPECT_EQ(got.workload, want.workload);
  EXPECT_EQ(got.csv_text, want.csv_text);
  EXPECT_EQ(got.series_text, want.series_text);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.deadline_ms, want.deadline_ms);
}

void expect_same(const JobRequest& got, const JobRequest& want) {
  expect_same_header(got, want);
  EXPECT_EQ(got.op, want.op);
  EXPECT_TRUE(got.spec == want.spec);
  EXPECT_EQ(got.job, want.job);
  EXPECT_EQ(got.from, want.from);
}

constexpr const char* kAggregates = "workload,c0,c1\na,1,2\nb,3,4\n";
constexpr const char* kSeries =
    "workload,counter,sample,value\na,c0,0,1\na,c1,0,2\nb,c0,0,3\nb,c1,0,4\n";

TEST(ServeProtocol, EveryOpRoundTripsThroughItsEncoder) {
  for (const OpRow& row : kOpTable) {
    SCOPED_TRACE(std::string(row.name));
    std::string line;
    ParsedRequest parsed;
    switch (row.op) {
      case Op::Score: {
        ScoreRequest builtin;
        builtin.id = "s";
        builtin.trace_id = 0x9f86d081884c7d65ull;
        builtin.builtin = "nbench";
        builtin.instructions = 20'000;
        builtin.events = "tlb";
        builtin.deadline_ms = 250;
        builtin.content_key = Key128{1, 2};
        line = serialize_score_request(builtin);
        parsed = parse_request_line(line);
        ASSERT_TRUE(parsed.ok) << parsed.message;
        expect_same(parsed.score, builtin);

        ScoreRequest csv;
        csv.id = "c";
        csv.csv_name = "mini";
        csv.csv_text = kAggregates;
        csv.series_text = kSeries;
        const ParsedRequest csv_parsed =
            parse_request_line(serialize_score_request(csv));
        ASSERT_TRUE(csv_parsed.ok) << csv_parsed.message;
        expect_same(csv_parsed.score, csv);
        ASSERT_NE(csv_parsed.score.data, nullptr);
        EXPECT_TRUE(csv_parsed.score.data->has_series());
        break;
      }
      case Op::Mutate: {
        MutateRequest mutate;
        mutate.id = "m";
        mutate.trace_id = 7;
        mutate.op = row.mutate;
        mutate.suite = "live";
        mutate.events = "llc";
        mutate.deadline_ms = 40;
        if (row.mutate == MutateOp::DropWorkload) {
          mutate.workload = "a";
        } else {
          mutate.series_text = kSeries;
          if (row.mutate != MutateOp::AppendSamples) {
            mutate.csv_text = kAggregates;
          }
        }
        line = serialize_mutate_request(mutate);
        parsed = parse_request_line(line);
        ASSERT_TRUE(parsed.ok) << parsed.message;
        expect_same(parsed.mutate, mutate);
        break;
      }
      case Op::Job: {
        JobRequest job;
        job.id = "j";
        job.trace_id = 0x1122334455667788ull;
        job.op = row.job;
        if (row.job == JobOp::Submit) {
          job.spec.csv_name = "up";
          job.spec.csv_text = kAggregates;
          job.spec.series_text = kSeries;
          job.spec.events = "branch";
          job.spec.target_size = 4;
          job.spec.candidates = 16;
          job.spec.seed = 9;
          job.spec.client = "alice";
        } else if (row.job != JobOp::List) {
          job.job = "00112233445566ff";
          if (row.job == JobOp::Watch) job.from = 5;
        }
        line = serialize_job_request(job);
        parsed = parse_request_line(line);
        ASSERT_TRUE(parsed.ok) << parsed.message;
        expect_same(parsed.job, job);
        break;
      }
      case Op::Ping:
      case Op::Metrics:
      case Op::Stats:
      case Op::ShardStats:
      case Op::Shutdown:
        line = serialize_control_request(row.op, "c");
        parsed = parse_request_line(line);
        ASSERT_TRUE(parsed.ok) << parsed.message;
        break;
    }
    // The line names its op first, and that name selects this row.
    EXPECT_EQ(line.rfind("{\"op\":\"" + std::string(row.name) + "\"", 0), 0u)
        << line;
    EXPECT_EQ(parsed.op, row.op);
    EXPECT_EQ(find_op(row.name), &row);
  }
  // A submit naming a built-in suite carries no uploaded-suite name: the
  // name is part of the job id.
  JobRequest builtin;
  builtin.op = JobOp::Submit;
  builtin.spec.builtin = "nbench";
  const ParsedRequest parsed =
      parse_request_line(serialize_job_request(builtin));
  ASSERT_TRUE(parsed.ok) << parsed.message;
  expect_same(parsed.job, builtin);
}

TEST(ServeProtocol, ForwardedLinesCarryNoDeadline) {
  // The router's session enforced the deadline; a worker must not time
  // the request out a second time, so the forwarded line drops it while
  // the client's line keeps it.
  ScoreRequest score;
  score.builtin = "nbench";
  score.deadline_ms = 250;
  EXPECT_NE(serialize_score_request(score).find("\"deadline_ms\":250"),
            std::string::npos);
  const std::string score_line = forwarded_line(score);
  EXPECT_EQ(score_line.find("deadline_ms"), std::string::npos) << score_line;
  EXPECT_EQ(parse_request_line(score_line).score.deadline_ms, 0u);

  MutateRequest mutate;
  mutate.op = MutateOp::DropWorkload;
  mutate.suite = "live";
  mutate.workload = "a";
  mutate.deadline_ms = 40;
  EXPECT_NE(serialize_mutate_request(mutate).find("\"deadline_ms\":40"),
            std::string::npos);
  const std::string mutate_line = forwarded_line(mutate);
  EXPECT_EQ(mutate_line.find("deadline_ms"), std::string::npos)
      << mutate_line;
  const ParsedRequest parsed = parse_request_line(mutate_line);
  ASSERT_TRUE(parsed.ok) << parsed.message;
  EXPECT_EQ(parsed.mutate.deadline_ms, 0u);
}

TEST(ServeProtocol, ScoreResponseRoundTripsExactly) {
  ScoreResponse ok;
  ok.id = "s1";
  ok.ok = true;
  ok.cache_hit = true;
  ok.report = "report\n| a | b |\n";
  ok.trace_id = 0x0123456789abcdefull;
  ScoreResponse error;
  error.id = "s2";
  error.error = "unavailable";
  error.message = "no worker available";
  error.trace_id = 3;
  ScoreResponse untraced;  // parse failures carry no id and no trace
  untraced.error = "bad_request";
  untraced.message = "json: bad number at byte 0";
  for (const ScoreResponse& response : {ok, error, untraced}) {
    const std::string line = serialize_response(response);
    ScoreResponse back;
    ASSERT_TRUE(parse_score_response(line, back)) << line;
    EXPECT_EQ(serialize_response(back), line);
  }
  ScoreResponse back;
  EXPECT_FALSE(parse_score_response("[]", back));
  EXPECT_FALSE(parse_score_response(R"({"ok":false})", back));
}

TEST(ServeProtocol, JobResponseRoundTripsExactly) {
  jobs::JobStatus status;
  status.id = "00112233445566ff";
  status.state = jobs::JobState::Running;
  status.client = "alice";
  status.evaluated = 3;
  status.total = 16;
  status.resumed = true;
  status.best.valid = true;
  status.best.candidate = 2;
  status.best.deviation_pct = 1.25;
  status.best.per_score_deviation_pct = {0.5, 1.0, 1.5, 2.0};
  status.best.indices = {0, 3, 5, 7};
  status.best.names = {"a", "d", "f", "h"};

  std::vector<JobResponse> responses;
  for (const JobOp op : {JobOp::Submit, JobOp::Status, JobOp::Watch,
                         JobOp::Cancel, JobOp::List}) {
    JobResponse response;
    response.id = "j";
    response.ok = true;
    response.op = op;
    response.trace_id = 0xfeedull;
    response.worker = op == JobOp::Status ? 1 : -1;
    if (op == JobOp::List) {
      response.jobs = {status, status};
      response.jobs[1].id = "ffeeddccbbaa0099";
      response.jobs[1].best = {};
    } else {
      response.status = status;
    }
    response.duplicate = op == JobOp::Submit;
    if (op == JobOp::Watch) {
      jobs::JobProgress record;
      record.seq = 4;
      record.evaluated = 3;
      record.total = 16;
      record.best = status.best;
      response.progress = {record};
      response.next = 5;
    }
    responses.push_back(response);
  }
  JobResponse error;
  error.id = "j";
  error.error = "bad_request";
  error.message = "unknown job '0000000000000000'";
  error.trace_id = 9;
  responses.push_back(error);

  for (const JobResponse& response : responses) {
    const std::string line = serialize_job_response(response);
    JobResponse back;
    ASSERT_TRUE(parse_job_response(line, back)) << line;
    EXPECT_EQ(serialize_job_response(back), line);
  }
}

TEST(ServeProtocol, IntegerFieldsBeyondTwoPow53AreRejected) {
  // A double from 2^53 on cannot tell neighbouring integers apart (so
  // 2^53 + 1 reads as 2^53), and casting one past 2^64 is undefined: each
  // such value is a bad_request naming its field.
  struct Case {
    const char* field;
    std::string prefix;  // the request up to the field
    std::string suffix;  // the rest of the request
  };
  const std::vector<Case> cases = {
      {"instructions", R"({"suite":"nbench","instructions":)", "}"},
      {"deadline_ms", R"({"suite":"nbench","deadline_ms":)", "}"},
      {"deadline_ms",
       R"({"op":"drop_workload","suite":"s","workload":"a","deadline_ms":)",
       "}"},
      {"size", R"({"op":"generate_submit","suite":"nbench","size":)", "}"},
      {"candidates", R"({"op":"generate_submit","suite":"nbench","candidates":)",
       "}"},
      {"seed", R"({"op":"generate_submit","suite":"nbench","seed":)", "}"},
      {"from", R"({"op":"job_watch","job":"00112233445566ff","from":)", "}"},
  };
  for (const Case& c : cases) {
    for (const char* value : {"1e300", "18446744073709551616",
                              "9007199254740993", "9007199254740992"}) {
      SCOPED_TRACE(c.prefix + value);
      const ParsedRequest parsed = parse_request_line(c.prefix + value + c.suffix);
      EXPECT_FALSE(parsed.ok);
      EXPECT_EQ(parsed.error, "bad_request");
      EXPECT_NE(parsed.message.find(std::string("'") + c.field + "'"),
                std::string::npos)
          << parsed.message;
      EXPECT_NE(parsed.message.find("2^53"), std::string::npos)
          << parsed.message;
    }
    const ParsedRequest largest =
        parse_request_line(c.prefix + "9007199254740991" + c.suffix);
    EXPECT_TRUE(largest.ok) << c.field << ": " << largest.message;
  }
  // The one that used to alias seed 0 onto a huge seed.
  const ParsedRequest zero = parse_request_line(
      R"({"op":"generate_submit","suite":"nbench","seed":-0.0})");
  ASSERT_TRUE(zero.ok) << zero.message;
  EXPECT_EQ(zero.job.spec.seed, 0u);
}

}  // namespace
}  // namespace perspector::serve
