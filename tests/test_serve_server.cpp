// serve::Session transport tests, run over plain pipes/socketpairs so
// every scenario is deterministic: the whole request burst is written
// (and half-closed) before the session starts, which pins down exactly
// what each drain pass sees — the same property the admission-control
// acceptance test relies on (`--max-queue 1` + a saturating pipelined
// client → one scored request, the rest answered `overloaded`).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "core/trend_score.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perspector::serve {
namespace {

std::string score_line(const std::string& id, std::uint64_t deadline_ms = 0) {
  std::string line = R"({"id":")" + id +
                     R"(","suite":"nbench","instructions":20000)";
  if (deadline_ms > 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  return line + "}\n";
}

/// Writes `input` to a pipe, half-closes it, runs one session, returns
/// every response line. The pipe capacities (64 KiB) bound how much a
/// single test may pump through; these bursts stay far below that.
struct SessionRun {
  std::vector<std::string> lines;
  SessionResult result;
};

SessionRun run_over_pipes(Engine& engine, const std::string& input,
                          const SessionOptions& options) {
  int in[2];
  int out[2];
  if (::pipe(in) != 0 || ::pipe(out) != 0) {
    throw std::runtime_error("pipe failed");
  }
  EXPECT_EQ(::write(in[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(in[1]);  // EOF after the burst: the session drains and returns

  SessionRun run;
  run.result = run_session(engine, in[0], out[1], options);
  ::close(in[0]);
  ::close(out[1]);

  std::string bytes;
  char chunk[65536];
  ssize_t n;
  while ((n = ::read(out[0], chunk, sizeof chunk)) > 0) {
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out[0]);

  std::size_t start = 0;
  while (start < bytes.size()) {
    const std::size_t nl = bytes.find('\n', start);
    EXPECT_NE(nl, std::string::npos) << "responses must be newline-framed";
    if (nl == std::string::npos) break;
    run.lines.push_back(bytes.substr(start, nl - start));
    start = nl + 1;
  }
  return run;
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& snapshot : obs::counters_snapshot()) {
    if (snapshot.name == name) return snapshot.value;
  }
  return 0;
}

TEST(ServeSession, PipelinedBurstAnsweredInOrder) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  const SessionRun run = run_over_pipes(
      engine,
      "{\"id\":\"p\",\"op\":\"ping\"}\n" + score_line("a") + score_line("b") +
          "{\"id\":\"m\",\"op\":\"metrics\"}\n",
      options);

  ASSERT_EQ(run.lines.size(), 4u);
  EXPECT_EQ(run.result.responses, 4u);
  EXPECT_FALSE(run.result.shutdown_requested);

  const json::Value ping = json::parse(run.lines[0]);
  EXPECT_EQ(ping.find("id")->string, "p");
  EXPECT_TRUE(ping.find("pong")->boolean);

  const json::Value a = json::parse(run.lines[1]);
  const json::Value b = json::parse(run.lines[2]);
  EXPECT_EQ(a.find("id")->string, "a");
  EXPECT_EQ(a.find("cache")->string, "miss");
  EXPECT_EQ(b.find("id")->string, "b");
  EXPECT_EQ(b.find("cache")->string, "hit");  // identical request coalesced
  EXPECT_EQ(a.find("report")->string, b.find("report")->string);

  // The metrics snapshot is taken at serve time, after both scores in the
  // same pipeline executed.
  const json::Value metrics = json::parse(run.lines[3]);
  const json::Value* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("serve.requests")->number, 2.0);
  EXPECT_DOUBLE_EQ(counters->find("serve.cache_hit")->number, 1.0);
  EXPECT_DOUBLE_EQ(counters->find("serve.cache_miss")->number, 1.0);
  EXPECT_DOUBLE_EQ(counters->find("serve.admitted")->number, 2.0);
}

TEST(ServeSession, OverloadAnsweredStructurallyNeverDropped) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  options.max_queue = 1;  // the acceptance scenario
  const SessionRun run = run_over_pipes(
      engine, score_line("0") + score_line("1") + score_line("2"), options);

  // Every request got an answer: one scored, two rejected.
  ASSERT_EQ(run.lines.size(), 3u);
  const json::Value first = json::parse(run.lines[0]);
  EXPECT_TRUE(first.find("ok")->boolean);
  for (std::size_t i = 1; i < 3; ++i) {
    const json::Value rejected = json::parse(run.lines[i]);
    EXPECT_EQ(rejected.find("id")->string, std::to_string(i));
    EXPECT_FALSE(rejected.find("ok")->boolean);
    EXPECT_EQ(rejected.find("error")->string, "overloaded");
    EXPECT_NE(rejected.find("message")->string.find("max-queue=1"),
              std::string::npos);
  }
  EXPECT_EQ(counter_value("serve.admitted"), 1u);
  EXPECT_EQ(counter_value("serve.rejected"), 2u);
}

TEST(ServeSession, QueueWaitDeadlineYieldsTimeoutError) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  // Injected clock: every observation advances 100 ms, so each admitted
  // request "waits" a deterministic ~200 ms between enqueue and its
  // deadline check — no real sleeping, no flakiness.
  auto ticks = std::make_shared<int>(0);
  options.now = [ticks] {
    *ticks += 1;
    return std::chrono::steady_clock::time_point(
        std::chrono::milliseconds(100 * *ticks));
  };
  const SessionRun run = run_over_pipes(
      engine, score_line("slowok", 100'000) + score_line("expired", 50),
      options);

  ASSERT_EQ(run.lines.size(), 2u);
  const json::Value ok = json::parse(run.lines[0]);
  EXPECT_EQ(ok.find("id")->string, "slowok");
  EXPECT_TRUE(ok.find("ok")->boolean);
  const json::Value timed_out = json::parse(run.lines[1]);
  EXPECT_EQ(timed_out.find("id")->string, "expired");
  EXPECT_FALSE(timed_out.find("ok")->boolean);
  EXPECT_EQ(timed_out.find("error")->string, "timeout");
  EXPECT_EQ(counter_value("serve.timeouts"), 1u);
}

TEST(ServeSession, ShutdownOpDrainsAndRequestsExit) {
  Engine engine;
  SessionOptions options;
  const SessionRun run = run_over_pipes(
      engine, score_line("a") + "{\"id\":\"s\",\"op\":\"shutdown\"}\n",
      options);
  ASSERT_EQ(run.lines.size(), 2u);
  EXPECT_TRUE(json::parse(run.lines[0]).find("ok")->boolean);
  EXPECT_TRUE(json::parse(run.lines[1]).find("shutting_down")->boolean);
  EXPECT_TRUE(run.result.shutdown_requested);
}

TEST(ServeSession, MalformedLinesGetBadRequestAndSessionContinues) {
  Engine engine;
  SessionOptions options;
  const SessionRun run = run_over_pipes(
      engine, "this is not json\n" + score_line("fine"), options);
  ASSERT_EQ(run.lines.size(), 2u);
  const json::Value bad = json::parse(run.lines[0]);
  EXPECT_FALSE(bad.find("ok")->boolean);
  EXPECT_EQ(bad.find("error")->string, "bad_request");
  EXPECT_TRUE(json::parse(run.lines[1]).find("ok")->boolean);
}

TEST(ServeSession, UnterminatedFinalLineIsServedAtEof) {
  Engine engine;
  SessionOptions options;
  std::string input = score_line("only");
  input.pop_back();  // strip the trailing newline
  const SessionRun run = run_over_pipes(engine, input, options);
  ASSERT_EQ(run.lines.size(), 1u);
  EXPECT_EQ(json::parse(run.lines[0]).find("id")->string, "only");
}

TEST(ServeSession, WorksOverASocketpairWithSharedFd) {
  // The TCP path hands the same fd in both positions; exercise that
  // shape directly with a socketpair.
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string input = score_line("sock");
  ASSERT_EQ(::write(fds[0], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::shutdown(fds[0], SHUT_WR);

  Engine engine;
  SessionOptions options;
  const SessionResult result = run_session(engine, fds[1], fds[1], options);
  ::close(fds[1]);
  EXPECT_EQ(result.responses, 1u);

  std::string bytes;
  char chunk[65536];
  ssize_t n;
  while ((n = ::read(fds[0], chunk, sizeof chunk)) > 0) {
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  const json::Value response = json::parse(bytes);
  EXPECT_EQ(response.find("id")->string, "sock");
  EXPECT_TRUE(response.find("ok")->boolean);
}

TEST(ServeSession, CrlfRequestLinesAreAccepted) {
  Engine engine;
  SessionOptions options;
  std::string line = score_line("crlf");
  line.insert(line.size() - 1, "\r");  // "...}\r\n"
  const SessionRun run = run_over_pipes(engine, line, options);
  ASSERT_EQ(run.lines.size(), 1u);
  const json::Value response = json::parse(run.lines[0]);
  EXPECT_EQ(response.find("id")->string, "crlf");
  EXPECT_TRUE(response.find("ok")->boolean);
}

TEST(ServeSession, ScoreResponsesCarryTraceIds) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  const SessionRun run = run_over_pipes(
      engine, score_line("a") + score_line("b") + score_line("c"), options);
  ASSERT_EQ(run.lines.size(), 3u);

  std::vector<std::string> traces;
  for (const auto& line : run.lines) {
    const json::Value response = json::parse(line);
    const json::Value* trace = response.find("trace");
    ASSERT_NE(trace, nullptr) << line;
    ASSERT_TRUE(trace->is_string());
    // 16 lowercase hex digits, never the zero sentinel.
    EXPECT_EQ(trace->string.size(), 16u);
    EXPECT_EQ(trace->string.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_NE(trace->string, "0000000000000000");
    traces.push_back(trace->string);
  }
  // Identical request content still gets distinct trace ids: the session
  // sequence number is part of the derivation.
  EXPECT_NE(traces[0], traces[1]);
  EXPECT_NE(traces[1], traces[2]);
  EXPECT_NE(traces[0], traces[2]);
}

TEST(ServeSession, TraceIdsAreDeterministicAcrossSessions) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  const std::string input = score_line("x") + score_line("y");
  const SessionRun first = run_over_pipes(engine, input, options);
  const SessionRun second = run_over_pipes(engine, input, options);
  ASSERT_EQ(first.lines.size(), 2u);
  ASSERT_EQ(second.lines.size(), 2u);
  // Same content + same per-session sequence → same trace id: the id is
  // derived, not random, so replays are correlatable.
  for (std::size_t i = 0; i < 2; ++i) {
    const json::Value a = json::parse(first.lines[i]);
    const json::Value b = json::parse(second.lines[i]);
    EXPECT_EQ(a.find("trace")->string, b.find("trace")->string);
  }
}

TEST(ServeSession, StatsOpReportsLatencyPercentiles) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  // Distinct contents (different instruction budgets): identical
  // requests in one pipelined batch coalesce into a single score() call,
  // which would leave only one histogram sample.
  const SessionRun run = run_over_pipes(
      engine,
      score_line("a") +
          "{\"id\":\"b\",\"suite\":\"nbench\",\"instructions\":21000}\n" +
          "{\"id\":\"s\",\"op\":\"stats\"}\n",
      options);
  ASSERT_EQ(run.lines.size(), 3u);

  const json::Value stats = json::parse(run.lines[2]);
  EXPECT_EQ(stats.find("id")->string, "s");
  EXPECT_TRUE(stats.find("ok")->boolean);
  const json::Value* histograms = stats.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* latency = histograms->find("serve.request.latency");
  ASSERT_NE(latency, nullptr)
      << "stats response must include the request-latency histogram";
  // Both scores in this pipeline ran before the stats snapshot.
  EXPECT_DOUBLE_EQ(latency->find("count")->number, 2.0);
  for (const char* percentile : {"p50", "p90", "p99", "p999"}) {
    const json::Value* value = latency->find(percentile);
    ASSERT_NE(value, nullptr) << percentile;
    EXPECT_GT(value->number, 0.0) << percentile;
  }
  EXPECT_GE(latency->find("p999")->number, latency->find("p50")->number);
}

TEST(ServeSession, StatsOpReportsResidentBytes) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  // A small live suite: the whole burst must fit the 64 KiB pipe.
  std::vector<std::string> names;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < 6; ++w) {
    names.push_back("w" + std::to_string(w));
    std::vector<std::vector<double>> per_counter(2);
    for (std::size_t t = 0; t < 8; ++t) {
      per_counter[0].push_back(static_cast<double>((w + 1) * (t % 3)));
      per_counter[1].push_back(static_cast<double>(w * t + 1));
    }
    values.append_row(std::vector<double>{
        static_cast<double>(w + 1), static_cast<double>(7 * w % 5)});
    series.push_back(std::move(per_counter));
  }
  const core::CounterMatrix suite("live", names, {"c0", "c1"}, values,
                                  series);
  MutateRequest load;
  load.op = MutateOp::LoadSuite;
  load.suite = "live";
  load.csv_text = core::write_aggregates_csv_text(suite);
  load.series_text = core::write_series_csv_text(suite);
  const SessionRun run = run_over_pipes(
      engine,
      score_line("a") + serialize_mutate_request(load) +
          "{\"id\":\"s\",\"op\":\"stats\"}\n",
      options);
  ASSERT_EQ(run.lines.size(), 3u);

  const json::Value stats = json::parse(run.lines[2]);
  EXPECT_TRUE(stats.find("ok")->boolean);
  const json::Value* resident = stats.find("resident");
  ASSERT_NE(resident, nullptr);
  // Two reports (the nbench score and the load's re-score) are cached.
  EXPECT_DOUBLE_EQ(resident->find("result_cache_bytes")->number,
                   static_cast<double>(engine.cache_bytes_used()));
  EXPECT_GT(engine.cache_bytes_used(), 0u);
  const json::Value* workspaces = resident->find("workspace_bytes");
  ASSERT_NE(workspaces, nullptr);
  const json::Value* live = workspaces->find("live");
  ASSERT_NE(live, nullptr);
  // The primed trend cache: m per-counter n x n distance matrices plus
  // n x m normalized trends of the default grid.
  const double n = static_cast<double>(suite.num_workloads());
  const double m = static_cast<double>(suite.num_counters());
  const double grid =
      static_cast<double>(core::TrendScoreOptions{}.grid_points);
  EXPECT_DOUBLE_EQ(live->number, 8.0 * m * (n * n + n * grid));
}

// The metrics reply has no "distributions" object: request latency is the
// serve.request.latency histogram alone.
TEST(ServeSession, MetricsResponseIncludesDistributionsAndHistograms) {
  obs::reset_metrics();
  Engine engine;
  SessionOptions options;
  const SessionRun run = run_over_pipes(
      engine, score_line("a") + "{\"id\":\"m\",\"op\":\"metrics\"}\n",
      options);
  ASSERT_EQ(run.lines.size(), 2u);

  const json::Value metrics = json::parse(run.lines[1]);
  EXPECT_EQ(metrics.find("distributions"), nullptr);

  const json::Value* histograms = metrics.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* latency = histograms->find("serve.request.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->find("count")->number, 1.0);
  EXPECT_GT(latency->find("mean")->number, 0.0);
  EXPECT_GT(latency->find("p50")->number, 0.0);
}

}  // namespace
}  // namespace perspector::serve
