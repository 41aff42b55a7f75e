// jobs::SubsetSearch — re-entrant candidate evaluation for one job
// (DESIGN.md section 15).
//
// The search mirrors core::generate_subset's LHS pipeline but exposes it
// candidate-at-a-time: candidate i's hypercube is derived from
// (seed, i) alone (sampling::latin_hypercube_candidate), mapped through
// the suite's per-counter ECDF quantile functions, matched to distinct
// workloads, and the subset is scored against the full suite.
//
// Everything about the full suite is candidate-invariant and lives in a
// SearchContext: the resolved suite, its normalized matrix and ECDFs, a
// ScoringWorkspace primed with its pairwise DTW matrices, and its four
// scores. The full suite's scores do not depend on the candidate: Cluster
// and Trend are per-suite, and a subset's rows are copies of suite rows,
// so the joint min/max over {full, subset} (Eq. 9) is bit-for-bit the full
// suite's own range. evaluate(i) therefore scores the subset alone
// (core::Perspector::score_subset) and gets the bytes that scoring the
// pair together would give. A context is immutable once built, so jobs on
// the same suite share one (jobs::Scheduler keeps them by context_key).
//
// evaluate(i) is a pure function of (spec, i): no state survives between
// calls that influences a result, so candidates may be evaluated in any
// order, a resumed process re-creates the context and continues from any
// frontier, and the final best subset is byte-identical to an
// uninterrupted run at any thread count (the inner scoring kernels run
// on the deterministic par:: pool).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/perspector.hpp"
#include "core/scoring_workspace.hpp"
#include "jobs/job.hpp"
#include "stats/ecdf.hpp"

namespace perspector::jobs {

/// The outcome of evaluating one candidate subset.
struct CandidateOutcome {
  std::vector<std::uint64_t> indices;  // suite rows, ascending
  std::vector<std::string> names;
  double deviation_pct = 0.0;  // mean score deviation vs the full suite
  std::vector<double> per_score_deviation_pct;  // cluster,trend,cov,spread
};

/// A 128-bit content digest. As a candidate key it covers everything that
/// determines a candidate's outcome (suite content, events, target size,
/// seed, index) and nothing that doesn't (client, candidate budget); as a
/// context key, only the suite content and events.
struct CandidateKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CandidateKey&, const CandidateKey&) = default;
  friend bool operator<(const CandidateKey& a, const CandidateKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// The full-suite half of a subset search, shared by every job on the same
/// suite. Immutable after construction.
struct SearchContext {
  /// Resolves the suite (simulating a built-in or parsing the CSV
  /// payload), normalizes it, builds the per-counter ECDFs, primes the
  /// workspace and scores the full suite under `spec.events`. Throws
  /// std::invalid_argument / std::runtime_error on a bad suite.
  explicit SearchContext(const JobSpec& spec);

  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  core::CounterMatrix suite;
  /// Subsets are selected in the full normalized counter space, exactly
  /// like core::select_subset; the event filter applies to scoring only.
  la::Matrix normalized;
  std::vector<stats::Ecdf> cdfs;  // one per counter column
  core::Perspector engine;
  core::ScoringWorkspace workspace;  // primed with the full suite
  core::ScoredReference full;
};

/// Key of the SearchContext a spec needs: digests builtin, instructions,
/// csv_name, csv_text, series_text and events — not target_size, seed,
/// candidates or client.
CandidateKey context_key(const JobSpec& spec);

class SubsetSearch {
 public:
  /// Validates the spec against the context's suite. Throws
  /// std::invalid_argument on a bad spec; the scheduler turns that into a
  /// Failed job. `context` must have been built from a spec with the same
  /// context_key.
  SubsetSearch(const JobSpec& spec,
               std::shared_ptr<const SearchContext> context);
  /// Same, on a context of its own.
  explicit SubsetSearch(const JobSpec& spec);

  SubsetSearch(const SubsetSearch&) = delete;
  SubsetSearch& operator=(const SubsetSearch&) = delete;

  /// Evaluates candidate `index`: draw, quantile-map, match, score.
  CandidateOutcome evaluate(std::uint64_t index) const;

  /// Dedupe key for candidate `index` (see CandidateKey).
  CandidateKey candidate_key(std::uint64_t index) const;

  std::size_t suite_size() const { return context_->suite.num_workloads(); }

 private:
  JobSpec spec_;
  std::shared_ptr<const SearchContext> context_;
  std::uint64_t spec_digest_hi_ = 0;
  std::uint64_t spec_digest_lo_ = 0;
};

/// Runs a whole search synchronously (the CLI's `subset --search scored`
/// reference mode and tests): evaluates candidates 0..spec.candidates-1
/// in order and returns the winner. Throws on a bad spec.
BestCandidate run_search(const JobSpec& spec);

}  // namespace perspector::jobs
