// Perspector: the top-level scoring engine.
//
// Scores one or many benchmark suites with the four paper metrics. When
// several suites are scored together, Coverage and Spread use the shared
// joint normalization (Eq. 9-10); Cluster and Trend are intrinsically
// per-suite. An EventGroup restricts scoring to a counter subset
// (focused scoring, Section IV-B).
//
// Scoring is two steps: joint normalization over every suite, then one
// per-suite step (score_normalized) that every entry point shares. Subset
// search uses the split: a row-subset's values are copies of reference
// rows, so the joint ranges of {reference, subset} are bit-for-bit the
// reference's own, and the reference's scores do not depend on which
// subset it is paired with. score_reference scores the reference once;
// score_subset then scores each subset alone under its ranges.
#pragma once

#include <string>
#include <vector>

#include "core/cluster_score.hpp"
#include "core/counter_matrix.hpp"
#include "core/coverage_score.hpp"
#include "core/event_group.hpp"
#include "core/joint_normalize.hpp"
#include "core/spread_score.hpp"
#include "core/trend_score.hpp"

namespace perspector::core {

class ScoringWorkspace;

/// All four scores for one suite, with full per-metric detail.
struct SuiteScores {
  std::string suite;
  double cluster = 0.0;   // lower is better
  double trend = 0.0;     // higher is better
  double coverage = 0.0;  // higher is better
  double spread = 0.0;    // lower is better

  ClusterScoreResult cluster_detail;
  TrendScoreResult trend_detail;
  CoverageScoreResult coverage_detail;
  SpreadScoreResult spread_detail;
};

/// Combined configuration for a scoring run.
struct PerspectorOptions {
  EventGroup events = EventGroup::all();
  ClusterScoreOptions cluster;
  TrendScoreOptions trend;
  CoverageScoreOptions coverage;
  SpreadScoreOptions spread;
  /// Trend scoring needs series; set false to skip it (e.g. aggregate-only
  /// data), leaving trend = 0.
  bool compute_trend = true;
};

/// A suite scored once as the reference for many row-subsets of itself
/// (Perspector::score_reference).
struct ScoredReference {
  CounterMatrix filtered;  // the suite restricted to the event group
  JointRanges ranges;      // its per-counter ranges (Eq. 9)
  SuiteScores scores;
};

/// The scoring engine. Stateless apart from its options.
class Perspector {
 public:
  explicit Perspector(PerspectorOptions options = {});

  /// Scores several suites together: coverage/spread share joint
  /// normalization over all of them. Result order matches input order.
  /// Uses a private ScoringWorkspace, so when later suites are row-views
  /// of the first (e.g. {full, subset}), their TrendScore is served from
  /// the cached pairwise DTW matrix.
  std::vector<SuiteScores> score_suites(
      const std::vector<CounterMatrix>& suites) const;

  /// Same, with a caller-owned workspace: the first series-bearing suite
  /// primes the trend cache (if not already primed), and every suite that
  /// proves to be a row-view of the primed one scores trend by cache
  /// lookup. Reusing one workspace across calls is how subset candidates
  /// and stability resamples skip the O(s^2) DTW sweep entirely; outputs
  /// are bit-identical either way (see scoring_workspace.hpp).
  std::vector<SuiteScores> score_suites(
      const std::vector<CounterMatrix>& suites, ScoringWorkspace& workspace)
      const;

  /// Scores a single suite in isolation (self-normalized coverage/spread).
  SuiteScores score_suite(const CounterMatrix& suite) const;

  /// Scores `suite` as the reference of a subset search and keeps what
  /// score_subset needs. `scores` is bit-identical to
  /// score_suites({suite, subset}, workspace)[0] for every row-subset of
  /// `suite`. Primes `workspace` with the suite when it has series.
  ScoredReference score_reference(const CounterMatrix& suite,
                                  ScoringWorkspace& workspace) const;

  /// Scores the row-subset `rows` of the reference under the reference's
  /// ranges and primed workspace: bit-identical to
  /// score_suites({suite, suite.select_workloads(rows)}, workspace)[1],
  /// without re-scoring the suite. `reference` must come from
  /// score_reference on an engine with the same options, and `workspace`
  /// must be the one it primed.
  SuiteScores score_subset(const ScoredReference& reference,
                           const std::vector<std::size_t>& rows,
                           const ScoringWorkspace& workspace) const;

  const PerspectorOptions& options() const noexcept { return options_; }

 private:
  /// The suite restricted to the options' event group.
  CounterMatrix filter(const CounterMatrix& suite) const;
  /// Primes `workspace` with `filtered` when trend is scored, the suite
  /// has series and nothing primed the workspace yet.
  void prime(const CounterMatrix& filtered, ScoringWorkspace& workspace) const;
  /// The per-suite step: the four scores of an event-filtered suite whose
  /// values were normalized under the joint ranges to `normalized`. Trend
  /// is a cache lookup when `workspace` holds a suite this one is a
  /// row-view of, and ClusterScore when its memo holds these aggregates;
  /// both are computed directly otherwise. Only score_suites and
  /// score_reference record into the memo.
  SuiteScores score_normalized(const CounterMatrix& filtered,
                               const la::Matrix& normalized,
                               const ScoringWorkspace& workspace) const;

  PerspectorOptions options_;
};

}  // namespace perspector::core
