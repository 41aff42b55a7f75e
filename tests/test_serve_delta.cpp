// serve::Engine live-suite mutation ops (load_suite / add_workload /
// drop_workload / append_samples).
//
// The determinism contract extends the engine's: every mutate response's
// `report` must be byte-identical to a cold one-shot score of the same
// content, at every thread count, and the cache label must be honest
// content addressing (an add→drop round-trip back to previous content is
// a hit). Runs under the debug-tsan CI job via the test_serve binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/io.hpp"
#include "core/perspector.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "serve/engine.hpp"

namespace perspector::serve {
namespace {

constexpr std::uint64_t kInstructions = 20'000;

struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

/// Exactly what a cold `perspector score` of `data` prints.
std::string one_shot_report(const core::CounterMatrix& data) {
  const auto scores = core::Perspector().score_suite(data);
  return core::suite_report(data, scores);
}

/// A resident-suite fixture: nbench as the base CSV payload, the first
/// lmbench workload as the add_workload payload (distinct name, same 14
/// counters).
struct LiveSuiteData {
  std::string base_agg, base_ser;
  std::string add_agg, add_ser;
  core::CounterMatrix base;

  LiveSuiteData() : base(simulate_builtin("nbench", kInstructions)) {
    base_agg = core::write_aggregates_csv_text(base);
    base_ser = core::write_series_csv_text(base);
    const core::CounterMatrix extra =
        simulate_builtin("lmbench", kInstructions).select_workloads({0});
    add_agg = core::write_aggregates_csv_text(extra);
    add_ser = core::write_series_csv_text(extra);
  }
};

MutateRequest load_request(const LiveSuiteData& d, const std::string& id) {
  MutateRequest request;
  request.id = id;
  request.op = MutateOp::LoadSuite;
  request.suite = "live";
  request.csv_text = d.base_agg;
  request.series_text = d.base_ser;
  return request;
}

MutateRequest add_request(const LiveSuiteData& d, const std::string& id) {
  MutateRequest request;
  request.id = id;
  request.op = MutateOp::AddWorkload;
  request.suite = "live";
  request.csv_text = d.add_agg;
  request.series_text = d.add_ser;
  return request;
}

MutateRequest drop_request(const std::string& workload,
                           const std::string& id) {
  MutateRequest request;
  request.id = id;
  request.op = MutateOp::DropWorkload;
  request.suite = "live";
  request.workload = workload;
  return request;
}

TEST(ServeDelta, LoadSuiteScoresAndBecomesScorableByName) {
  ThreadCountGuard guard;
  par::set_thread_count(2);
  const LiveSuiteData d;
  const std::string expected =
      one_shot_report(core::read_with_series_csv_text("live", d.base_agg,
                                                      d.base_ser));
  Engine engine;
  const MutateResponse loaded = engine.mutate(load_request(d, "load"));
  ASSERT_TRUE(loaded.ok) << loaded.message;
  EXPECT_EQ(loaded.suite, "live");
  EXPECT_EQ(loaded.version, 1u);
  EXPECT_FALSE(loaded.cache_hit);
  EXPECT_EQ(loaded.report, expected);

  // The resident name now scores like a suite — warm from the cache.
  ScoreRequest by_name;
  by_name.id = "score";
  by_name.builtin = "live";
  const ScoreResponse scored = engine.score(by_name);
  ASSERT_TRUE(scored.ok) << scored.message;
  EXPECT_TRUE(scored.cache_hit);
  EXPECT_EQ(scored.report, expected);
}

TEST(ServeDelta, DeltaRescoresMatchColdScoresAtEveryThreadCount) {
  ThreadCountGuard guard;
  const LiveSuiteData d;

  // Expected states, built through the same io-layer delta helpers the
  // engine uses, then scored cold (fresh Perspector, fresh workspace).
  const core::CounterMatrix loaded =
      core::read_with_series_csv_text("live", d.base_agg, d.base_ser);
  const core::CounterMatrix added =
      core::append_workloads_csv_text(loaded, d.add_agg, d.add_ser);
  std::vector<std::size_t> keep;
  for (std::size_t w = 0; w < added.num_workloads(); ++w) {
    if (added.workload_names()[w] != "numeric-sort") keep.push_back(w);
  }
  const core::CounterMatrix dropped = added.select_workloads(keep);

  par::set_thread_count(1);
  const std::string expect_loaded = one_shot_report(loaded);
  const std::string expect_added = one_shot_report(added);
  const std::string expect_dropped = one_shot_report(dropped);

  for (std::size_t threads : {1u, 2u, 8u}) {
    par::set_thread_count(threads);
    Engine engine;
    const MutateResponse l = engine.mutate(load_request(d, "l"));
    ASSERT_TRUE(l.ok) << l.message;
    EXPECT_EQ(l.report, expect_loaded) << "threads=" << threads;

    const MutateResponse a = engine.mutate(add_request(d, "a"));
    ASSERT_TRUE(a.ok) << a.message;
    EXPECT_EQ(a.version, 2u);
    EXPECT_EQ(a.report, expect_added) << "threads=" << threads;

    const MutateResponse r = engine.mutate(drop_request("numeric-sort", "d"));
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(r.version, 3u);
    EXPECT_EQ(r.report, expect_dropped) << "threads=" << threads;
  }
}

TEST(ServeDelta, AppendSamplesRescoreMatchesColdScore) {
  ThreadCountGuard guard;
  par::set_thread_count(2);
  const LiveSuiteData d;
  const core::CounterMatrix loaded =
      core::read_with_series_csv_text("live", d.base_agg, d.base_ser);

  // Extend one workload's first counter by two samples, continuing its
  // dense index range.
  const std::string& workload = loaded.workload_names()[0];
  const std::string& counter = loaded.counter_names()[0];
  const std::size_t next = loaded.series(0, 0).size();
  std::string series = "workload,counter,sample,value\n";
  for (std::size_t k = 0; k < 2; ++k) {
    series += workload + "," + counter + "," + std::to_string(next + k) +
              ",1234.5\n";
  }
  const core::CounterMatrix appended =
      core::append_samples_csv_text(loaded, series);

  Engine engine;
  ASSERT_TRUE(engine.mutate(load_request(d, "l")).ok);
  MutateRequest append;
  append.id = "s";
  append.op = MutateOp::AppendSamples;
  append.suite = "live";
  append.series_text = series;
  const MutateResponse response = engine.mutate(append);
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.version, 2u);
  EXPECT_EQ(response.report, one_shot_report(appended));
}

TEST(ServeDelta, AppendSamplesReusesTheClusterScoreMemo) {
  ThreadCountGuard guard;
  par::set_thread_count(2);
  const LiveSuiteData d;
  const core::CounterMatrix loaded =
      core::read_with_series_csv_text("live", d.base_agg, d.base_ser);
  const std::string& workload = loaded.workload_names()[1];
  const std::string& counter = loaded.counter_names()[2];
  const std::size_t next = loaded.series(1, 2).size();
  const std::string series = "workload,counter,sample,value\n" + workload +
                             "," + counter + "," + std::to_string(next) +
                             ",777.25\n";
  const core::CounterMatrix appended =
      core::append_samples_csv_text(loaded, series);

  Engine engine;
  ASSERT_TRUE(engine.mutate(load_request(d, "l")).ok);
  MutateRequest append;
  append.id = "s";
  append.op = MutateOp::AppendSamples;
  append.suite = "live";
  append.series_text = series;
  const obs::Counter& kmeans = obs::counter("kmeans.calls");
  const obs::Counter& cluster_hits = obs::counter("cache.cluster_hits");
  const std::uint64_t kmeans_before = kmeans.value();
  const std::uint64_t hits_before = cluster_hits.value();
  const MutateResponse response = engine.mutate(append);
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_FALSE(response.cache_hit);
  // Appended samples leave the aggregates as they were: ClusterScore is
  // the memo's, and no k-means runs.
  EXPECT_EQ(kmeans.value() - kmeans_before, 0u);
  EXPECT_EQ(cluster_hits.value() - hits_before, 1u);

  // A cold score of the same content sent inline as CSV, on a fresh
  // engine.
  ScoreRequest cold;
  cold.id = "cold";
  cold.data = std::make_shared<const core::CounterMatrix>(
      core::read_with_series_csv_text(
          "live", core::write_aggregates_csv_text(appended),
          core::write_series_csv_text(appended)));
  Engine fresh;
  const ScoreResponse cold_response = fresh.score(cold);
  ASSERT_TRUE(cold_response.ok) << cold_response.message;
  EXPECT_FALSE(cold_response.cache_hit);
  EXPECT_EQ(response.report, cold_response.report);
}

TEST(ServeDelta, AddDropRoundTripIsAnHonestCacheHit) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const LiveSuiteData d;
  Engine engine;

  const MutateResponse loaded = engine.mutate(load_request(d, "l"));
  ASSERT_TRUE(loaded.ok);
  EXPECT_FALSE(loaded.cache_hit);

  const MutateResponse added = engine.mutate(add_request(d, "a"));
  ASSERT_TRUE(added.ok);
  EXPECT_FALSE(added.cache_hit);

  // Dropping the added workload restores the loaded content exactly —
  // content addressing must serve the v1 report from cache.
  const std::string new_workload =
      core::read_aggregates_csv_text("x", d.add_agg).workload_names()[0];
  const MutateResponse dropped =
      engine.mutate(drop_request(new_workload, "d"));
  ASSERT_TRUE(dropped.ok) << dropped.message;
  EXPECT_EQ(dropped.version, 3u);
  EXPECT_TRUE(dropped.cache_hit);
  EXPECT_EQ(dropped.report, loaded.report);

  // Re-adding the same workload hits the v2 result the same way.
  const MutateResponse readded = engine.mutate(add_request(d, "a2"));
  ASSERT_TRUE(readded.ok);
  EXPECT_EQ(readded.version, 4u);
  EXPECT_TRUE(readded.cache_hit);
  EXPECT_EQ(readded.report, added.report);
}

/// A series payload that appends `value` to series (w, c) of `data`.
std::string append_text(const core::CounterMatrix& data, std::size_t w,
                        std::size_t c, const std::string& value) {
  return "workload,counter,sample,value\n" + data.workload_names()[w] + "," +
         data.counter_names()[c] + "," +
         std::to_string(data.series(w, c).size()) + "," + value + "\n";
}

TEST(ServeDelta, ResidentKeyEqualsAColdHashAfterEveryEdit) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const LiveSuiteData d;
  Engine engine;
  core::CounterMatrix expected =
      core::read_with_series_csv_text("live", d.base_agg, d.base_ser);

  // A score of `expected` sent as an in-process matrix is keyed by a cold
  // hash_counter_matrix of it. It hits the entry each mutation stored
  // under the resident's incrementally kept key only if the keys are equal.
  const auto expect_cold_key_hits = [&](const MutateResponse& mutated,
                                        const std::string& step) {
    ASSERT_TRUE(mutated.ok) << step << ": " << mutated.message;
    ScoreRequest cold;
    cold.id = step;
    cold.data = std::make_shared<const core::CounterMatrix>(expected);
    const ScoreResponse scored = engine.score(cold);
    ASSERT_TRUE(scored.ok) << step << ": " << scored.message;
    EXPECT_TRUE(scored.cache_hit) << step;
    EXPECT_EQ(scored.report, mutated.report) << step;
  };
  const auto append = [&](std::size_t w, std::size_t c,
                          const std::string& value, const std::string& id) {
    MutateRequest request;
    request.id = id;
    request.op = MutateOp::AppendSamples;
    request.suite = "live";
    request.series_text = append_text(expected, w, c, value);
    expected = core::append_samples_csv_text(expected, request.series_text);
    return engine.mutate(request);
  };

  expect_cold_key_hits(engine.mutate(load_request(d, "load")), "load");
  expect_cold_key_hits(append(0, 0, "1234.5", "a1"), "append 1");
  expect_cold_key_hits(append(3, 5, "0", "a2"), "append 2");
  expect_cold_key_hits(append(0, 0, "17", "a3"), "append 3");

  const core::CounterMatrix before_add = expected;
  expected = core::append_workloads_csv_text(expected, d.add_agg, d.add_ser);
  expect_cold_key_hits(engine.mutate(add_request(d, "add")), "add");

  // Dropping the added workload returns to the content before the add:
  // the key is a function of content alone, so the drop is a hit.
  const std::string added = expected.workload_names().back();
  expected = before_add;
  const MutateResponse dropped = engine.mutate(drop_request(added, "drop"));
  EXPECT_TRUE(dropped.cache_hit);
  expect_cold_key_hits(dropped, "drop");

  // -0 differs from 0 in its bits, so it is new content.
  const MutateResponse signed_zero = append(3, 5, "-0", "a4");
  EXPECT_FALSE(signed_zero.cache_hit);
  expect_cold_key_hits(signed_zero, "append 4");
}

TEST(ServeDelta, MutationErrorsAreStructuredBadRequests) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const LiveSuiteData d;
  Engine engine;

  // Mutating a suite that was never loaded.
  const MutateResponse unknown = engine.mutate(drop_request("w", "u"));
  EXPECT_EQ(unknown.error, "bad_request");
  EXPECT_NE(unknown.message.find("unknown resident suite"),
            std::string::npos);

  // Shadowing a built-in suite name is rejected.
  MutateRequest reserved = load_request(d, "r");
  reserved.suite = "nbench";
  EXPECT_EQ(engine.mutate(reserved).error, "bad_request");

  ASSERT_TRUE(engine.mutate(load_request(d, "l")).ok);

  // Dropping a workload the suite does not have.
  const MutateResponse missing = engine.mutate(drop_request("nope", "m"));
  EXPECT_EQ(missing.error, "bad_request");
  EXPECT_NE(missing.message.find("no workload"), std::string::npos);

  // A malformed delta payload (ragged CSV) is a bad_request, and the
  // resident suite is left untouched.
  MutateRequest ragged = add_request(d, "g");
  ragged.csv_text = "workload,c0\nonly-two-cells\n";
  EXPECT_EQ(engine.mutate(ragged).error, "bad_request");
  ScoreRequest by_name;
  by_name.builtin = "live";
  const ScoreResponse scored = engine.score(by_name);
  ASSERT_TRUE(scored.ok);
  EXPECT_TRUE(scored.cache_hit);  // still the v1 content

  // A failed mutation must not bump the version.
  const MutateResponse next = engine.mutate(add_request(d, "a"));
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.version, 2u);
}

TEST(ServeDelta, ReloadReplacesTheResidentAndRestartsVersioning) {
  ThreadCountGuard guard;
  par::set_thread_count(1);
  const LiveSuiteData d;
  Engine engine;
  ASSERT_TRUE(engine.mutate(load_request(d, "l1")).ok);
  ASSERT_TRUE(engine.mutate(add_request(d, "a")).ok);

  const MutateResponse reloaded = engine.mutate(load_request(d, "l2"));
  ASSERT_TRUE(reloaded.ok);
  EXPECT_EQ(reloaded.version, 1u);
  EXPECT_TRUE(reloaded.cache_hit);  // same content as the first load
}

}  // namespace
}  // namespace perspector::serve
