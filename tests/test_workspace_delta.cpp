// ScoringWorkspace delta ops (upsert_row / remove_row).
//
// The contract under test: after any add/drop/append sequence applied
// incrementally (one O(n·m) DTW strip per touched workload), cache
// lookups are BIT-identical to a cold workspace primed from scratch on
// the mutated suite — and a stale superseded row can only ever MISS
// (map_rows verifies normalized trends element-wise), never serve wrong
// bits.
//
// A soak run checks that row slots are reused, so residency and copy
// work stay bounded by the live size, not the mutation count. The
// ClusterScore memo must return bitwise the direct cluster_score, and
// only for bitwise the same aggregates.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster_score.hpp"
#include "core/counter_matrix.hpp"
#include "core/io.hpp"
#include "core/perspector.hpp"
#include "core/scoring_workspace.hpp"
#include "core/trend_score.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace perspector::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Same generator family as test_dtw_fast.cpp: deterministic, and
// phased_suite(n) is a row-prefix of phased_suite(n + 1), so "the suite
// after add_workload" is just the longer suite.
CounterMatrix phased_suite(std::size_t workloads) {
  stats::Rng rng(901);
  std::vector<std::string> names;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (std::size_t w = 0; w < workloads; ++w) {
    names.push_back(std::string("w").append(std::to_string(w)));
    std::vector<std::vector<double>> per_counter;
    for (std::size_t c = 0; c < 2; ++c) {
      std::vector<double> s(48, 1.0);
      const std::size_t step = 4 + (w * 5 + c * 3) % 40;
      for (std::size_t t = step; t < s.size(); ++t) {
        s[t] = 50.0 + rng.uniform(0.0, 1.0);
      }
      per_counter.push_back(std::move(s));
    }
    double t0 = 0.0, t1 = 0.0;
    for (double v : per_counter[0]) t0 += v;
    for (double v : per_counter[1]) t1 += v;
    values.append_row(std::vector<double>{t0, t1});
    series.push_back(std::move(per_counter));
  }
  return CounterMatrix("phased", names, {"c0", "c1"}, values, series);
}

void expect_trend_bitwise_equal(const TrendScoreResult& cached,
                                const TrendScoreResult& direct) {
  EXPECT_EQ(bits(cached.score), bits(direct.score));
  ASSERT_EQ(cached.per_event.size(), direct.per_event.size());
  for (std::size_t c = 0; c < cached.per_event.size(); ++c) {
    EXPECT_EQ(bits(cached.per_event[c]), bits(direct.per_event[c]));
  }
}

/// Asserts the delta-maintained workspace answers `suite` exactly like
/// the direct (uncached) trend_score — the cold-re-prime equivalence.
void expect_serves_exactly(const ScoringWorkspace& workspace,
                           const CounterMatrix& suite,
                           const TrendScoreOptions& options) {
  std::vector<std::size_t> rows;
  ASSERT_TRUE(workspace.map_rows(suite, options, rows));
  expect_trend_bitwise_equal(workspace.trend_score_from_cache(rows),
                             trend_score(suite, options));
}

TEST(WorkspaceDelta, UpsertOfNewRowMatchesColdPrime) {
  const TrendScoreOptions options;
  const CounterMatrix before = phased_suite(6);
  const CounterMatrix after = phased_suite(7);  // before + one workload

  ScoringWorkspace warm;
  warm.prime_trend(before, options);
  ASSERT_TRUE(warm.trend_usable());
  ASSERT_TRUE(warm.upsert_row(after, 6, options));

  expect_serves_exactly(warm, after, options);
  // The original rows are still live too (subset slicing unaffected).
  expect_serves_exactly(warm, before, options);
}

TEST(WorkspaceDelta, RemoveRowMasksExactlyThatWorkload) {
  const TrendScoreOptions options;
  const CounterMatrix suite = phased_suite(8);
  ScoringWorkspace warm;
  warm.prime_trend(suite, options);
  ASSERT_TRUE(warm.remove_row("w3"));

  // The surviving rows still slice bit-exactly...
  const CounterMatrix kept = suite.select_workloads({0, 1, 2, 4, 5, 6, 7});
  expect_serves_exactly(warm, kept, options);
  // ...and any view naming the dropped workload honestly misses.
  std::vector<std::size_t> rows;
  EXPECT_FALSE(warm.map_rows(suite, options, rows));
  EXPECT_FALSE(warm.remove_row("w3"));  // already gone
}

TEST(WorkspaceDelta, AddDropAddRoundTripMatchesColdPrime) {
  const TrendScoreOptions options;
  ScoringWorkspace warm;
  warm.prime_trend(phased_suite(5), options);

  // add w5, add w6, drop w2, drop w5 — then compare against a cold
  // workspace primed directly on the final suite.
  const CounterMatrix grown = phased_suite(7);
  ASSERT_TRUE(warm.upsert_row(grown, 5, options));
  ASSERT_TRUE(warm.upsert_row(grown, 6, options));
  ASSERT_TRUE(warm.remove_row("w2"));
  ASSERT_TRUE(warm.remove_row("w5"));

  const CounterMatrix final_suite = grown.select_workloads({0, 1, 3, 4, 6});
  expect_serves_exactly(warm, final_suite, options);

  ScoringWorkspace cold;
  cold.prime_trend(final_suite, options);
  std::vector<std::size_t> warm_rows, cold_rows;
  ASSERT_TRUE(warm.map_rows(final_suite, options, warm_rows));
  ASSERT_TRUE(cold.map_rows(final_suite, options, cold_rows));
  expect_trend_bitwise_equal(warm.trend_score_from_cache(warm_rows),
                             cold.trend_score_from_cache(cold_rows));
}

TEST(WorkspaceDelta, AppendSamplesUpsertSupersedesStaleRow) {
  const TrendScoreOptions options;
  const CounterMatrix before = phased_suite(6);
  ScoringWorkspace warm;
  warm.prime_trend(before, options);

  // append_samples touches w1 and w4; upsert exactly the touched rows.
  std::vector<std::size_t> touched;
  const CounterMatrix after = append_samples_csv_text(
      before,
      "workload,counter,sample,value\n"
      "w4,c0,48,9.5\n"
      "w1,c1,48,2.25\n"
      "w1,c1,49,2.5\n",
      &touched);
  ASSERT_EQ(touched, (std::vector<std::size_t>{1, 4}));
  for (const std::size_t row : touched) {
    ASSERT_TRUE(warm.upsert_row(after, row, options));
  }

  expect_serves_exactly(warm, after, options);
  // The pre-append suite's w1/w4 trends no longer match the live rows:
  // the stale view must miss, not resolve to the superseded data.
  std::vector<std::size_t> rows;
  EXPECT_FALSE(warm.map_rows(before, options, rows));
}

TEST(WorkspaceDelta, PreconditionsReturnFalseWithoutMutating) {
  const TrendScoreOptions options;
  const CounterMatrix suite = phased_suite(5);

  // Unusable cache (no series): every delta op refuses.
  const CounterMatrix bare("bare", {"a", "b"}, {"c0"},
                           la::Matrix{{1.0}, {2.0}});
  ScoringWorkspace unusable;
  unusable.prime_trend(bare, options);
  ASSERT_TRUE(unusable.trend_primed());
  ASSERT_FALSE(unusable.trend_usable());
  EXPECT_FALSE(unusable.upsert_row(suite, 0, options));
  EXPECT_FALSE(unusable.remove_row("a"));

  ScoringWorkspace warm;
  warm.prime_trend(suite, options);
  // Row out of range.
  EXPECT_FALSE(warm.upsert_row(suite, 5, options));
  // Different options than the primed ones.
  TrendScoreOptions banded;
  banded.dtw_band_fraction = 0.1;
  EXPECT_FALSE(warm.upsert_row(suite, 0, banded));
  // Different counter set.
  const CounterMatrix other = suite.select_counters({0});
  EXPECT_FALSE(warm.upsert_row(other, 0, options));
  // Unknown workload name.
  EXPECT_FALSE(warm.remove_row("nope"));
  // None of the refusals disturbed the cache.
  expect_serves_exactly(warm, suite, options);
}

/// One workload of the soak suite: a name and its per-counter series.
struct SoakWorkload {
  std::string name;
  std::vector<std::vector<double>> series;
};

constexpr std::size_t kSoakCounters = 2;

std::vector<std::vector<double>> soak_series(stats::Rng& rng) {
  std::vector<std::vector<double>> per_counter;
  for (std::size_t c = 0; c < kSoakCounters; ++c) {
    std::vector<double> s(12);
    for (double& v : s) v = rng.uniform(0.0, 60.0);
    per_counter.push_back(std::move(s));
  }
  return per_counter;
}

CounterMatrix soak_suite(const std::vector<SoakWorkload>& live) {
  std::vector<std::string> names;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (const SoakWorkload& w : live) {
    names.push_back(w.name);
    std::vector<double> totals;
    for (const auto& s : w.series) {
      double total = 0.0;
      for (double v : s) total += v;
      totals.push_back(total);
    }
    values.append_row(totals);
    series.push_back(w.series);
  }
  return CounterMatrix("soak", names, {"c0", "c1"}, values, series);
}

/// Thousands of random add / drop / append upserts, then an add-only
/// phase (matrix grows) and a drop-to-3 phase (compaction). After every
/// mutation, resident bytes stay within 4x the live-only size and the
/// cells copied stay within m·(live+1)²; at checkpoints the warm cache
/// equals a cold prime of the same suite bit for bit.
TEST(WorkspaceDelta, SoakKeepsResidencyAndCopiesBoundedByLiveSize) {
  TrendScoreOptions options;
  options.grid_points = 16;  // short trends keep the soak fast
  stats::Rng rng(4242);
  std::vector<SoakWorkload> live;
  std::size_t next_name = 0;
  for (; next_name < 6; ++next_name) {
    live.push_back({std::string("w").append(std::to_string(next_name)),
                    soak_series(rng)});
  }
  ScoringWorkspace warm;
  warm.prime_trend(soak_suite(live), options);
  ASSERT_TRUE(warm.trend_usable());
  const obs::Counter& copied = obs::counter("cache.delta_cells_copied");

  const auto live_only_bytes = [&] {
    const std::size_t n = live.size();
    return sizeof(double) * kSoakCounters * (n * n + n * options.grid_points);
  };
  const auto expect_bounded = [&](std::uint64_t copied_before) {
    const std::size_t n = live.size();
    EXPECT_LE(warm.resident_bytes(), 4 * live_only_bytes()) << "live=" << n;
    EXPECT_LE(copied.value() - copied_before,
              kSoakCounters * (n + 1) * (n + 1))
        << "live=" << n;
  };
  const auto expect_equals_cold = [&] {
    const CounterMatrix suite = soak_suite(live);
    ScoringWorkspace cold;
    cold.prime_trend(suite, options);
    EXPECT_EQ(cold.resident_bytes(), live_only_bytes());
    std::vector<std::size_t> warm_rows, cold_rows;
    ASSERT_TRUE(warm.map_rows(suite, options, warm_rows));
    ASSERT_TRUE(cold.map_rows(suite, options, cold_rows));
    expect_trend_bitwise_equal(warm.trend_score_from_cache(warm_rows),
                               cold.trend_score_from_cache(cold_rows));
  };
  const auto add = [&] {
    const std::uint64_t before = copied.value();
    live.push_back({std::string("w").append(std::to_string(next_name++)),
                    soak_series(rng)});
    ASSERT_TRUE(warm.upsert_row(soak_suite(live), live.size() - 1, options));
    expect_bounded(before);
  };
  const auto drop = [&](std::size_t i) {
    const std::uint64_t before = copied.value();
    const std::string name = live[i].name;
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    ASSERT_TRUE(warm.remove_row(name));
    expect_bounded(before);
  };
  const auto append = [&](std::size_t i) {
    const std::uint64_t before = copied.value();
    std::vector<double>& s = live[i].series[rng.uniform_int(0, 1)];
    const std::uint64_t samples = rng.uniform_int(1, 3);
    for (std::uint64_t k = 0; k < samples; ++k) {
      s.push_back(rng.uniform(0.0, 60.0));
    }
    ASSERT_TRUE(warm.upsert_row(soak_suite(live), i, options));
    expect_bounded(before);
  };

  for (std::size_t step = 1; step <= 3000; ++step) {
    const double op = rng.uniform();
    if (op < 0.25 && live.size() < 20) {
      ASSERT_NO_FATAL_FAILURE(add());
    } else if (op < 0.5 && live.size() > 3) {
      ASSERT_NO_FATAL_FAILURE(drop(rng.uniform_int(0, live.size() - 1)));
    } else {
      ASSERT_NO_FATAL_FAILURE(append(rng.uniform_int(0, live.size() - 1)));
    }
    if (step % 100 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_equals_cold());
    }
  }
  while (live.size() < 40) {
    ASSERT_NO_FATAL_FAILURE(add());
  }
  ASSERT_NO_FATAL_FAILURE(expect_equals_cold());
  while (live.size() > 3) {
    ASSERT_NO_FATAL_FAILURE(drop(0));
  }
  ASSERT_NO_FATAL_FAILURE(expect_equals_cold());
}

/// An aggregate-only suite: ClusterScore is all that reads it.
CounterMatrix aggregate_suite() {
  stats::Rng rng(77);
  std::vector<std::string> names;
  la::Matrix values;
  for (std::size_t w = 0; w < 9; ++w) {
    names.push_back(std::string("a").append(std::to_string(w)));
    values.append_row(std::vector<double>{rng.uniform(0.0, 10.0),
                                          rng.uniform(0.0, 10.0),
                                          rng.uniform(0.0, 10.0)});
  }
  return CounterMatrix("agg", names, {"c0", "c1", "c2"}, values);
}

void expect_cluster_bitwise_equal(const ClusterScoreResult& a,
                                  const ClusterScoreResult& b) {
  EXPECT_EQ(bits(a.score), bits(b.score));
  EXPECT_EQ(a.k_min, b.k_min);
  ASSERT_EQ(a.per_k.size(), b.per_k.size());
  for (std::size_t k = 0; k < a.per_k.size(); ++k) {
    EXPECT_EQ(bits(a.per_k[k]), bits(b.per_k[k])) << "k index " << k;
  }
}

/// `suite` with series (w, c) replaced by `samples` in fresh storage, so
/// map_rows cannot prove that series by identity; every other series
/// shares the suite's storage.
CounterMatrix with_series(const CounterMatrix& suite, std::size_t w,
                          std::size_t c, std::vector<double> samples) {
  std::vector<std::vector<CounterMatrix::SeriesPtr>> series;
  for (std::size_t i = 0; i < suite.num_workloads(); ++i) {
    std::vector<CounterMatrix::SeriesPtr> row;
    for (std::size_t j = 0; j < suite.num_counters(); ++j) {
      row.push_back(suite.series_ptr(i, j));
    }
    series.push_back(std::move(row));
  }
  series[w][c] =
      std::make_shared<const std::vector<double>>(std::move(samples));
  return CounterMatrix::with_shared_series(
      suite.suite_name(), suite.workload_names(), suite.counter_names(),
      suite.values(), std::move(series));
}

TEST(WorkspaceMapRows, ProvesBySameStorageThenByTrend) {
  const TrendScoreOptions options;
  CounterMatrix suite = phased_suite(4);
  std::vector<double> zeroed = suite.series(2, 1);
  zeroed[0] = 0.0;
  suite = with_series(suite, 2, 1, zeroed);
  ScoringWorkspace workspace;
  workspace.prime_trend(suite, options);
  const obs::Counter& normalized = obs::counter("cache.verify_normalized");
  std::vector<std::size_t> rows;

  // The primed suite and its row-views share its storage: nothing is
  // normalized to prove them.
  std::uint64_t before = normalized.value();
  EXPECT_TRUE(workspace.map_rows(suite, options, rows));
  EXPECT_TRUE(workspace.map_rows(suite.select_workloads({3, 1}), options,
                                 rows));
  EXPECT_EQ(normalized.value() - before, 0u);

  // An equal copy in fresh storage is not the same storage: it is proved
  // by normalizing it, and hits.
  before = normalized.value();
  EXPECT_TRUE(workspace.map_rows(with_series(suite, 2, 1, zeroed), options,
                                 rows));
  EXPECT_EQ(normalized.value() - before, 1u);

  // One flipped sample bit: not the same bytes, not the same trend.
  std::vector<double> flipped = zeroed;
  flipped[20] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(
                                          flipped[20]) ^
                                      (std::uint64_t{1} << 51));
  before = normalized.value();
  EXPECT_FALSE(workspace.map_rows(with_series(suite, 2, 1, flipped), options,
                                  rows));
  EXPECT_EQ(normalized.value() - before, 1u);

  // -0.0 in place of 0.0 is not the same storage either; its trend is
  // equal (0.0 == -0.0), so it still hits, as it did when every series was
  // normalized.
  std::vector<double> negative_zero = zeroed;
  negative_zero[0] = -0.0;
  before = normalized.value();
  EXPECT_TRUE(workspace.map_rows(with_series(suite, 2, 1, negative_zero),
                                 options, rows));
  EXPECT_EQ(normalized.value() - before, 1u);

  // A series that differs but normalizes to the same trend (the default
  // mean-relative trend is exactly scale-free under a power of two) hits.
  std::vector<double> doubled = zeroed;
  for (double& v : doubled) v *= 2.0;
  before = normalized.value();
  EXPECT_TRUE(workspace.map_rows(with_series(suite, 2, 1, doubled), options,
                                 rows));
  EXPECT_EQ(normalized.value() - before, 1u);
  expect_serves_exactly(workspace, with_series(suite, 2, 1, doubled),
                        options);
}

TEST(WorkspaceMapRows, KeepsNoSuiteAliveAndStillProvesByNormalizing) {
  const TrendScoreOptions options;
  ScoringWorkspace workspace;
  {
    const CounterMatrix primed = phased_suite(4);
    workspace.prime_trend(primed, options);
  }
  // The primed suite is gone, and its samples with it: an equal suite in
  // new storage is proved by normalizing every series, as before.
  const CounterMatrix again = phased_suite(4);
  const obs::Counter& normalized = obs::counter("cache.verify_normalized");
  const std::uint64_t before = normalized.value();
  std::vector<std::size_t> rows;
  EXPECT_TRUE(workspace.map_rows(again, options, rows));
  EXPECT_EQ(normalized.value() - before, 4u * 2u);
  expect_serves_exactly(workspace, again, options);
}

TEST(WorkspaceMapRows, ScoringASuiteTwiceNormalizesNothingToProveIt) {
  const CounterMatrix suite = phased_suite(5);
  ScoringWorkspace workspace;
  const Perspector perspector;
  const obs::Counter& normalized = obs::counter("cache.verify_normalized");
  const std::uint64_t before = normalized.value();
  const SuiteScores first = perspector.score_suites({suite}, workspace)[0];
  const SuiteScores second = perspector.score_suites({suite}, workspace)[0];
  EXPECT_EQ(normalized.value() - before, 0u);
  expect_trend_bitwise_equal(first.trend_detail, second.trend_detail);
}

TEST(WorkspaceClusterMemo, HitIsBitwiseTheDirectScoreAndSkipsKMeans) {
  const CounterMatrix suite = aggregate_suite();
  const Perspector perspector;
  ScoringWorkspace workspace;
  const obs::Counter& hits = obs::counter("cache.cluster_hits");
  const obs::Counter& kmeans = obs::counter("kmeans.calls");

  perspector.score_suites({suite}, workspace);  // records the memo
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t kmeans_before = kmeans.value();
  const SuiteScores again =
      perspector.score_suites({suite}, workspace).front();
  EXPECT_EQ(hits.value() - hits_before, 1u);
  EXPECT_EQ(kmeans.value() - kmeans_before, 0u);
  expect_cluster_bitwise_equal(again.cluster_detail,
                               cluster_score(suite, ClusterScoreOptions{}));
  EXPECT_EQ(bits(again.cluster), bits(again.cluster_detail.score));
}

TEST(WorkspaceClusterMemo, OneUlpOrAnotherOptionMisses) {
  const CounterMatrix suite = aggregate_suite();
  const ClusterScoreOptions options;
  ScoringWorkspace workspace;
  workspace.record_cluster(suite.values(), options,
                           cluster_score(suite, options));
  ASSERT_TRUE(workspace.find_cluster(suite.values(), options).has_value());

  // One ulp on one aggregate is a different key.
  la::Matrix nudged = suite.values();
  nudged(4, 1) = std::nextafter(nudged(4, 1), 1e300);
  EXPECT_FALSE(workspace.find_cluster(nudged, options).has_value());
  // So is any ClusterScoreOptions field, and another shape.
  ClusterScoreOptions reseeded = options;
  reseeded.seed += 1;
  EXPECT_FALSE(workspace.find_cluster(suite.values(), reseeded).has_value());
  ClusterScoreOptions restarts = options;
  restarts.kmeans_restarts += 1;
  EXPECT_FALSE(workspace.find_cluster(suite.values(), restarts).has_value());
  ClusterScoreOptions iters = options;
  iters.kmeans_max_iters += 1;
  EXPECT_FALSE(workspace.find_cluster(suite.values(), iters).has_value());
  EXPECT_FALSE(workspace
                   .find_cluster(suite.select_workloads({0, 1, 2, 3, 4})
                                     .values(),
                                 options)
                   .has_value());

  // Scoring the nudged suite misses, computes directly and records it.
  const CounterMatrix nudged_suite("agg", suite.workload_names(),
                                   suite.counter_names(), nudged);
  const Perspector perspector;
  const SuiteScores scored =
      perspector.score_suites({nudged_suite}, workspace).front();
  expect_cluster_bitwise_equal(scored.cluster_detail,
                               cluster_score(nudged_suite, options));
  const auto recorded = workspace.find_cluster(nudged, options);
  ASSERT_TRUE(recorded.has_value());
  expect_cluster_bitwise_equal(*recorded, scored.cluster_detail);
}

}  // namespace
}  // namespace perspector::core
