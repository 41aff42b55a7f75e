// serve::Router: the multi-process tier. Byte-identity across worker
// counts, crash handling (structured unavailable, never a hang or a
// silent retry), rehash-on-death shard stability, restart-on-crash, and
// the shared disk-backed cache.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "serve/backend.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"

namespace fs = std::filesystem;
using namespace perspector;
using serve::Key128;
using serve::Router;
using serve::RouterOptions;
using serve::ScoreRequest;
using serve::ScoreResponse;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/perspector_router_" + name;
  fs::remove_all(path);
  return path;
}

ScoreRequest builtin_request(const std::string& suite,
                             std::uint64_t instructions,
                             const std::string& id, std::uint64_t trace) {
  ScoreRequest request;
  request.id = id;
  request.builtin = suite;
  request.instructions = instructions;
  request.trace_id = trace;
  return request;
}

RouterOptions router_options(std::size_t workers) {
  RouterOptions options;
  options.workers = workers;
  options.engine.cache_bytes = 16ull << 20;
  return options;
}

/// The value of counter `name` in a metrics line; 0 when absent.
std::uint64_t counter_value(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size()));
}

// The count of one histogram in a metrics line; 0 if it is not there yet.
std::uint64_t histogram_count(const std::string& line,
                              const std::string& name) {
  const std::string key = "\"" + name + "\":{\"count\":";
  const auto at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size()));
}

void pause_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

TEST(Router, ByteIdenticalResponsesAcrossWorkerCounts) {
  // The tentpole invariant: the full serialized response stream — ids,
  // cache labels, trace ids, report bytes — must not depend on how many
  // workers the tier runs.
  const std::size_t counts[] = {1, 2, 8};
  std::vector<std::string> transcripts;
  for (const std::size_t workers : counts) {
    Router router(router_options(workers));
    std::string transcript;
    std::uint64_t trace = 0;
    for (const char* suite : {"nbench", "sebs", "lmbench"}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        const auto request = builtin_request(
            suite, 2000, std::string(suite) + "-" + std::to_string(repeat),
            ++trace);
        transcript += serve::serialize_response(router.score(request));
      }
    }
    transcripts.push_back(std::move(transcript));
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);
}

TEST(Router, RepeatRequestHitsTheRouterCache) {
  Router router(router_options(2));
  const auto request = builtin_request("nbench", 2000, "r", 7);
  const ScoreResponse first = router.score(request);
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_FALSE(first.cache_hit);
  const ScoreResponse second = router.score(request);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);  // served by the router, not a worker
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(second.trace_id, 7u);
}

TEST(Router, ErrorsComeBackStructuredFromWorkers) {
  Router router(router_options(2));
  auto request = builtin_request("no-such-suite", 2000, "e", 1);
  const ScoreResponse response = router.score(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_NE(response.message.find("no-such-suite"), std::string::npos);
}

TEST(Router, ShardAssignmentIsStableAndCoversWorkers) {
  Router router(router_options(8));
  std::vector<bool> seen(8, false);
  for (std::uint64_t i = 0; i < 256; ++i) {
    // Two unrelated multipliers, like real content digests — hi and lo
    // must not be correlated or Key128Hash's fold degenerates.
    const Key128 key{(i + 1) * 0x9e3779b97f4a7c15ull,
                     (i + 1) * 0xc2b2ae3d27d4eb4full};
    const int shard = router.shard_of(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(shard, router.shard_of(key));  // deterministic
    seen[static_cast<std::size_t>(shard)] = true;
  }
  // 256 well-mixed keys over 64 vnodes/worker reach every worker.
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_TRUE(seen[w]) << "worker " << w << " owns no sampled shard";
  }
}

TEST(Router, WorkerCrashMidRequestReturnsUnavailable) {
  RouterOptions options = router_options(2);
  options.restart_on_crash = false;
  Router router(options);

  // A deliberately slow request (heavyweight suite simulation) so the
  // kill lands while the worker is computing, after the request was sent.
  // It must take well over the 200 ms pause below: at 100k instructions
  // per workload it took about 200 ms on a 4-vCPU host, so the reply
  // sometimes beat the kill. The kill still ends the test at ~200 ms.
  auto slow = builtin_request("spec17", 1'000'000, "slow", 3);
  const Key128 key =
      serve::result_cache_key(router.content_key(slow), slow.events);
  const int shard = router.shard_of(key);
  ASSERT_GE(shard, 0);

  ScoreResponse response;
  std::thread scorer([&] { response = router.score(slow); });
  pause_ms(200);  // let the request reach the worker and start computing
  ASSERT_TRUE(router.kill_worker(static_cast<std::size_t>(shard)));
  scorer.join();  // must return — a crashed worker never hangs the router

  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "unavailable");
  EXPECT_NE(response.message.find("crashed"), std::string::npos);
  EXPECT_EQ(response.trace_id, 3u);
  EXPECT_FALSE(router.worker_alive(static_cast<std::size_t>(shard)));
}

TEST(Router, RehashOnDeathKeepsOtherShardsUnchanged) {
  RouterOptions options = router_options(4);
  options.restart_on_crash = false;
  Router router(options);

  std::vector<Key128> keys;
  std::vector<int> before;
  for (std::uint64_t i = 0; i < 200; ++i) {
    keys.push_back(Key128{i * 0x2545f4914f6cdd1dull + 5, i ^ 0xffull});
    before.push_back(router.shard_of(keys.back()));
  }
  const std::size_t victim = static_cast<std::size_t>(before[0]);

  ASSERT_TRUE(router.kill_worker(victim));
  pause_ms(100);           // let the kernel close the worker's socket
  router.metrics_line("");  // touches every worker: death is observed here
  ASSERT_FALSE(router.worker_alive(victim));

  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int after = router.shard_of(keys[i]);
    if (static_cast<std::size_t>(before[i]) == victim) {
      // Orphaned shards slide to some alive worker...
      EXPECT_NE(after, static_cast<int>(victim));
      EXPECT_TRUE(router.worker_alive(static_cast<std::size_t>(after)));
    } else {
      // ...while every other shard keeps its assignment.
      EXPECT_EQ(after, before[i]) << "key " << i;
    }
  }
}

TEST(Router, CrashedWorkerIsRestartedAndServes) {
  Router router(router_options(2));  // restart_on_crash defaults to true
  const std::int64_t original_pid = router.worker_pid(0);

  ASSERT_TRUE(router.kill_worker(0));
  pause_ms(100);

  // Keep scoring distinct requests until one routes to the dead worker;
  // the failed send triggers the respawn, and the request is served by
  // the restarted process (or a sibling) — never dropped.
  for (std::uint64_t n = 0; n < 20; ++n) {
    const auto response = router.score(
        builtin_request("nbench", 1000 + n, std::to_string(n), n + 1));
    ASSERT_TRUE(response.ok) << response.error << ": " << response.message;
  }
  EXPECT_GE(router.total_restarts(), 1u);
  EXPECT_TRUE(router.worker_alive(0));
  EXPECT_NE(router.worker_pid(0), original_pid);
}

TEST(Router, DurableCacheSurvivesRouterRestart) {
  const std::string dir = fresh_dir("durable");
  const auto request = builtin_request("nbench", 2000, "d", 9);
  std::string cold_report;
  {
    RouterOptions options = router_options(2);
    options.cache_dir = dir;
    Router router(options);
    const auto response = router.score(request);
    ASSERT_TRUE(response.ok) << response.message;
    EXPECT_FALSE(response.cache_hit);
    cold_report = response.report;
  }  // destructor flushes the store
  RouterOptions options = router_options(2);
  options.cache_dir = dir;
  Router router(options);
  const auto warm = router.score(request);
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_TRUE(warm.cache_hit);  // served from disk, no worker involved
  EXPECT_EQ(warm.report, cold_report);
}

TEST(Router, ShardStatsReportsEveryWorker) {
  Router router(router_options(3));
  router.score(builtin_request("nbench", 2000, "s", 1));
  const std::string line = router.shard_stats_line("42");
  EXPECT_NE(line.find("\"id\":\"42\""), std::string::npos);
  EXPECT_NE(line.find("\"mode\":\"router\""), std::string::npos);
  EXPECT_NE(line.find("\"worker\":0"), std::string::npos);
  EXPECT_NE(line.find("\"worker\":1"), std::string::npos);
  EXPECT_NE(line.find("\"worker\":2"), std::string::npos);
  EXPECT_NE(line.find("\"alive\":true"), std::string::npos);
}

TEST(Router, MetricsLineMergesWorkerRegistries) {
  Router router(router_options(2));
  // The router's counters live in the process-wide registry, so earlier
  // tests in this process have already moved them: assert the rise.
  const std::string before = router.metrics_line("");
  router.score(builtin_request("nbench", 2000, "m1", 1));
  router.score(builtin_request("sebs", 2000, "m2", 2));
  const std::string line = router.metrics_line("");
  // Router-local counters and worker-side serve.* counters appear in one
  // merged snapshot.
  EXPECT_EQ(counter_value(line, "router.requests"),
            counter_value(before, "router.requests") + 2);
  EXPECT_EQ(counter_value(line, "router.forwarded"),
            counter_value(before, "router.forwarded") + 2);
  EXPECT_NE(line.find("\"serve.requests\""), std::string::npos);
  // Request latency behind a router is the router's own forward timer.
  EXPECT_EQ(histogram_count(line, "router.forward.latency"),
            histogram_count(before, "router.forward.latency") + 2);
}

TEST(Router, BatchMatchesSequentialScoring) {
  // One batch through the pipelined per-shard path must produce the
  // same responses (order, labels, bytes) as one-at-a-time scoring.
  std::vector<ScoreRequest> requests;
  std::uint64_t trace = 0;
  for (const char* suite : {"nbench", "sebs", "lmbench", "nbench"}) {
    const std::string label = "b" + std::to_string(trace);
    ++trace;
    requests.push_back(builtin_request(suite, 2500, label, trace));
  }
  Router batch_router(router_options(4));
  const auto batched = batch_router.score_batch(requests);

  Router serial_router(router_options(4));
  std::vector<ScoreResponse> serial;
  serial.reserve(requests.size());
  for (const auto& request : requests) {
    serial.push_back(serial_router.score(request));
  }

  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(serve::serialize_response(batched[i]),
              serve::serialize_response(serial[i]))
        << "request " << i;
  }
}

TEST(Router, MutateSequenceMatchesInProcessEngine) {
  // The same load/add/drop sequence through the router (which forwards
  // every op of a suite name to one worker) and through an in-process
  // Engine must produce byte-identical reports and version numbers.
  const core::CounterMatrix base = serve::simulate_builtin("sebs", 2000);
  const core::CounterMatrix extra =
      serve::simulate_builtin("riotbench", 2000).select_workloads({0});

  serve::MutateRequest load;
  load.id = "l";
  load.op = serve::MutateOp::LoadSuite;
  load.suite = "live";
  load.csv_text = core::write_aggregates_csv_text(base);
  load.series_text = core::write_series_csv_text(base);

  serve::MutateRequest add;
  add.id = "a";
  add.op = serve::MutateOp::AddWorkload;
  add.suite = "live";
  add.csv_text = core::write_aggregates_csv_text(extra);
  add.series_text = core::write_series_csv_text(extra);

  serve::MutateRequest drop;
  drop.id = "d";
  drop.op = serve::MutateOp::DropWorkload;
  drop.suite = "live";
  drop.workload = extra.workload_names()[0];

  Router router(router_options(2));
  serve::Engine engine;
  for (const auto* request : {&load, &add, &drop}) {
    const auto from_router = router.mutate(*request);
    const auto from_engine = engine.mutate(*request);
    ASSERT_TRUE(from_router.ok) << from_router.message;
    ASSERT_TRUE(from_engine.ok) << from_engine.message;
    EXPECT_EQ(from_router.version, from_engine.version) << request->id;
    EXPECT_EQ(from_router.cache_hit, from_engine.cache_hit) << request->id;
    EXPECT_EQ(from_router.report, from_engine.report) << request->id;
  }

  // The resident name scores through the same worker, bypassing the
  // router cache tiers — the report is the drop re-score's bytes.
  ScoreRequest by_name;
  by_name.id = "s";
  by_name.builtin = "live";
  const ScoreResponse scored = router.score(by_name);
  ASSERT_TRUE(scored.ok) << scored.message;
  EXPECT_TRUE(scored.cache_hit);  // the worker's honest content-cache hit
  EXPECT_EQ(scored.report, engine.score(by_name).report);
  EXPECT_EQ(router.cache_entries(), 0u);  // nothing leaked into the router

  // Batch scoring routes resident names the same way.
  const auto batched = router.score_batch({by_name});
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].report, scored.report);
  EXPECT_EQ(router.cache_entries(), 0u);
}

TEST(Router, MutateErrorsAreStructured) {
  Router router(router_options(2));
  serve::MutateRequest drop;
  drop.id = "x";
  drop.op = serve::MutateOp::DropWorkload;
  drop.suite = "never-loaded";
  drop.workload = "w";
  const auto response = router.mutate(drop);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_NE(response.message.find("unknown resident suite"),
            std::string::npos);
}

TEST(Router, RespawnedWorkerLosesResidentsHonestly) {
  // Residents live in worker memory only. After the owning worker is
  // killed and respawned, a mutation must come back as an honest
  // bad_request — never a hang, a stale answer, or a silent retry.
  const core::CounterMatrix base = serve::simulate_builtin("sebs", 2000);
  serve::MutateRequest load;
  load.id = "l";
  load.op = serve::MutateOp::LoadSuite;
  load.suite = "live";
  load.csv_text = core::write_aggregates_csv_text(base);
  load.series_text = core::write_series_csv_text(base);

  Router router(router_options(2));  // restart_on_crash defaults to true
  ASSERT_TRUE(router.mutate(load).ok);

  for (std::size_t w = 0; w < router.worker_count(); ++w) {
    ASSERT_TRUE(router.kill_worker(w));
  }
  pause_ms(100);
  router.metrics_line("");  // observe the deaths, trigger respawns

  serve::MutateRequest drop;
  drop.id = "d";
  drop.op = serve::MutateOp::DropWorkload;
  drop.suite = "live";
  drop.workload = base.workload_names()[0];
  const auto response = router.mutate(drop);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "bad_request");
  EXPECT_NE(response.message.find("unknown resident suite"),
            std::string::npos);
}

TEST(Router, AgreesWithInProcessEngineOnMatrixRequests) {
  // Direct-API requests (an in-memory CounterMatrix) travel to workers
  // as lossless CSV; the report must match the in-process Engine's
  // byte-for-byte. The router forks before the engine spins its pool.
  Router router(router_options(2));
  serve::Engine engine;

  const auto matrix = std::make_shared<const core::CounterMatrix>(
      serve::simulate_builtin("nbench", 5000));
  ScoreRequest request;
  request.id = "x";
  request.data = matrix;
  request.trace_id = 4;

  const auto from_router = router.score(request);
  const auto from_engine = engine.score(request);
  ASSERT_TRUE(from_router.ok) << from_router.message;
  ASSERT_TRUE(from_engine.ok) << from_engine.message;
  EXPECT_EQ(from_router.report, from_engine.report);
}
