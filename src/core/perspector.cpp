#include "core/perspector.hpp"

#include <stdexcept>

#include "core/joint_normalize.hpp"
#include "core/scoring_workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perspector::core {

Perspector::Perspector(PerspectorOptions options)
    : options_(std::move(options)) {}

std::vector<SuiteScores> Perspector::score_suites(
    const std::vector<CounterMatrix>& suites) const {
  ScoringWorkspace workspace;
  return score_suites(suites, workspace);
}

std::vector<SuiteScores> Perspector::score_suites(
    const std::vector<CounterMatrix>& suites,
    ScoringWorkspace& workspace) const {
  if (suites.empty()) {
    throw std::invalid_argument("Perspector::score_suites: no suites");
  }
  obs::Span span("score_suites");

  // Focused scoring: restrict every suite to the selected event group.
  std::vector<CounterMatrix> filtered;
  filtered.reserve(suites.size());
  for (const auto& suite : suites) filtered.push_back(filter(suite));

  // Joint normalization across all suites (Eq. 9-10) for coverage/spread.
  std::vector<la::Matrix> normalized;
  {
    obs::Span normalize_span("joint_normalize");
    std::vector<const la::Matrix*> raw;
    raw.reserve(filtered.size());
    for (const auto& suite : filtered) raw.push_back(&suite.values());
    normalized = joint_minmax_normalize(raw);
  }

  std::vector<SuiteScores> results;
  results.reserve(filtered.size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    prime(filtered[i], workspace);
    results.push_back(score_normalized(filtered[i], normalized[i], workspace));
    workspace.record_cluster(filtered[i].values(), options_.cluster,
                             results.back().cluster_detail);
  }
  return results;
}

ScoredReference Perspector::score_reference(const CounterMatrix& suite,
                                            ScoringWorkspace& workspace) const {
  obs::Span span("score_reference");
  ScoredReference reference;
  reference.filtered = filter(suite);
  la::Matrix normalized;
  {
    obs::Span normalize_span("joint_normalize");
    reference.ranges = joint_ranges({&reference.filtered.values()});
    normalized =
        apply_joint_normalization(reference.filtered.values(), reference.ranges);
  }
  prime(reference.filtered, workspace);
  reference.scores =
      score_normalized(reference.filtered, normalized, workspace);
  workspace.record_cluster(reference.filtered.values(), options_.cluster,
                           reference.scores.cluster_detail);
  return reference;
}

SuiteScores Perspector::score_subset(const ScoredReference& reference,
                                     const std::vector<std::size_t>& rows,
                                     const ScoringWorkspace& workspace) const {
  obs::Span span("score_subset");
  // The subset's rows are copies of reference rows, so folding them into
  // the reference's min/max changes no bit: the reference's ranges are
  // the joint ranges of the pair.
  const CounterMatrix subset = reference.filtered.select_workloads(rows);
  la::Matrix normalized;
  {
    obs::Span normalize_span("joint_normalize");
    normalized = apply_joint_normalization(subset.values(), reference.ranges);
  }
  return score_normalized(subset, normalized, workspace);
}

CounterMatrix Perspector::filter(const CounterMatrix& suite) const {
  if (options_.events.is_all()) return suite;
  return suite.select_counters(
      options_.events.indices_in(suite.counter_names()));
}

void Perspector::prime(const CounterMatrix& filtered,
                       ScoringWorkspace& workspace) const {
  // The first series-bearing suite primes the workspace; row-views of the
  // primed suite (the suite itself, subsets, resamples) then score trend
  // by cache lookup — same doubles, same summation order, same bits.
  if (options_.compute_trend && filtered.has_series() &&
      !workspace.trend_primed()) {
    workspace.prime_trend(filtered, options_.trend);
  }
}

SuiteScores Perspector::score_normalized(
    const CounterMatrix& filtered, const la::Matrix& normalized,
    const ScoringWorkspace& workspace) const {
  SuiteScores s;
  s.suite = filtered.suite_name();

  {
    obs::Span phase("cluster_score");
    // ClusterScore reads only the aggregates: a memo hit is the result of
    // this exact matrix and these options (scoring_workspace.hpp).
    if (auto memo =
            workspace.find_cluster(filtered.values(), options_.cluster)) {
      s.cluster_detail = std::move(*memo);
    } else {
      s.cluster_detail = cluster_score(filtered, options_.cluster);
    }
    s.cluster = s.cluster_detail.score;
  }

  if (options_.compute_trend && filtered.has_series()) {
    obs::Span phase("trend_score");
    static obs::Counter& hits = obs::counter("cache.hits");
    static obs::Counter& misses = obs::counter("cache.misses");
    std::vector<std::size_t> rows;
    if (workspace.map_rows(filtered, options_.trend, rows)) {
      hits.increment();
      s.trend_detail = workspace.trend_score_from_cache(rows);
    } else {
      misses.increment();
      s.trend_detail = trend_score(filtered, options_.trend);
    }
    s.trend = s.trend_detail.score;
  }

  {
    obs::Span phase("coverage_score");
    s.coverage_detail = coverage_score(normalized, options_.coverage);
    s.coverage = s.coverage_detail.score;
  }

  {
    obs::Span phase("spread_score");
    s.spread_detail = spread_score(normalized, options_.spread);
    s.spread = s.spread_detail.score;
  }

  return s;
}

SuiteScores Perspector::score_suite(const CounterMatrix& suite) const {
  return score_suites({suite}).front();
}

}  // namespace perspector::core
