// ScoringWorkspace: the shared-computation cache of the score pipeline
// (DESIGN.md section 9).
//
// The TrendScore's pairwise-DTW sweep (Eq. 7-8) is the dominant cost of
// scoring, and the subset/stability flows recompute it wholesale: every
// subset candidate, bootstrap resample, and jackknife leave-one-out suite
// is a *row-view* of a suite whose pairwise distances are already known —
// the same normalized series pairs produce the same doubles. A
// ScoringWorkspace primes the full suite's per-counter pairwise DTW
// matrices once and then answers any row-subset's TrendScore with O(s^2)
// lookups instead of O(s^2) DTW dynamic programs.
//
// Cache-key invariants (why slicing is bit-exact):
//   * a lookup is only served after map_rows proves the candidate suite is
//     a row-view of the primed suite: identical counter names, identical
//     TrendScoreOptions, and — decisive — every candidate workload's
//     *normalized trend* equal element-wise to the primed workload it maps
//     to. Equal normalized inputs make the DTW dynamic program compute
//     identical doubles, so returning the cached value is returning the
//     value the direct path would have produced. Each slot keeps a weak
//     pointer to the raw series it normalized (the suite's own storage:
//     never a copy, and never kept alive by the slot), so map_rows proves
//     a series by the same storage without normalizing it; any other
//     series, and every series whose primed storage is gone, is proved by
//     a fresh normalization compared element-wise. The identity step only
//     skips work: the proof accepts exactly the series normalization
//     accepts on its own;
//   * row order and repetition are irrelevant: DTW with the absolute-value
//     local cost is exactly symmetric (the transposed DP table is equal
//     cell-by-cell) and d(s, s) is exactly 0.0, so bootstrap resamples
//     (unsorted, with repeats) slice correctly too;
//   * the cached TrendScore accumulates pair distances in the same
//     (i asc, j asc) order and with the same divisions as the direct
//     Eq. 7/8 evaluation — same values, same association, same bits.
//
// Threading: prime_trend is guarded by a mutex and publishes with a
// release store; readers (map_rows / trend_score_from_cache) only consume
// after trend_primed() observes the publication. Perspector primes on the
// first scored suite, so stability's parallel resamples only ever read.
//
// Row slots: the matrices hold one slot per live workload plus a LIFO
// list of free slots. An upsert of a known name overwrites its slot in
// place; a new name takes a free slot, and the matrices grow (one copy)
// only when the live count reaches a new high. A drop frees its slot, and
// once free slots reach the live count the live distances and trends are
// copied into live-sized matrices (compaction). Nothing is recomputed, so
// slot bookkeeping cannot change a bit, and residency stays under 4x the
// live-only size however many mutations the workspace has seen.
//
// ClusterScore memo: ClusterScore (Eq. 1-6) reads only the aggregate
// matrix, so one slot remembers the last ClusterScoreResult together with
// its key: the filtered aggregate matrix (shape and doubles, compared
// bitwise with memcmp, so row order, -0.0 and NaN payloads all count) and
// every ClusterScoreOptions field. cluster_score is a pure function of
// exactly that key, so a hit returns the bits a recompute would. A mutex
// guards the slot: stability's bootstrap resamples score in parallel on
// one shared workspace, and a hit's bits do not depend on which
// resample recorded last.
//
// Observability: `cache.primes`, `cache.hits`, `cache.misses` (trend
// lookups); `cache.verify_normalized` (series map_rows proved only by
// normalizing them); `cache.cluster_hits`, `cache.cluster_misses` (ClusterScore
// memo lookups); `cache.delta_upserts`, `cache.delta_drops` and
// `cache.delta_cells_copied` (matrix cells copied by grows and
// compactions) for the delta ops. All are exposed via --metrics like
// every obs counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cluster_score.hpp"
#include "core/counter_matrix.hpp"
#include "core/trend_score.hpp"
#include "la/matrix.hpp"

namespace perspector::core {

class ScoringWorkspace {
 public:
  ScoringWorkspace() = default;
  ScoringWorkspace(const ScoringWorkspace&) = delete;
  ScoringWorkspace& operator=(const ScoringWorkspace&) = delete;

  /// Computes, once, the per-counter full pairwise DTW matrices for
  /// `suite` under `options`. Subsequent calls are no-ops (the cache is
  /// write-once). Suites without series, with fewer than two workloads, or
  /// with duplicate workload names leave the cache unusable — every lookup
  /// then misses and callers fall back to direct computation.
  void prime_trend(const CounterMatrix& suite,
                   const TrendScoreOptions& options);

  /// True once prime_trend ran (whether or not the cache came out usable).
  bool trend_primed() const noexcept {
    return trend_primed_.load(std::memory_order_acquire);
  }

  /// True when the primed cache came out usable (series present, >= 2
  /// uniquely named workloads). The delta ops below require this.
  bool trend_usable() const noexcept {
    return trend_primed() && trend_usable_;
  }

  /// Incrementally extends the primed cache with workload `row` of the
  /// mutated suite `suite`: normalizes its m trends and computes one DTW
  /// strip against every other *live* row — O(n·m) dynamic programs
  /// instead of the O(n²·m) of a cold re-prime. An existing workload of
  /// the same name is overwritten in its own slot (the strip skips the
  /// stale version); a new name takes a freed slot, or grows the matrices
  /// by one when none is free. Returns false without mutating anything
  /// when the cache is unusable or `suite` is incompatible (different
  /// counters or options, no series, row out of range).
  ///
  /// Invariant kept inductively: every pair of live rows always has a
  /// populated distance — a drop only shrinks the live set, and an upsert
  /// pairs its row with every other live row. Slicing therefore stays
  /// bit-exact after any add/drop/append sequence (DTW symmetry makes the
  /// strip's argument order irrelevant, see the file comment).
  ///
  /// Unlike the write-once prime, delta ops mutate shared state: callers
  /// must externally serialize them against concurrent map_rows /
  /// trend_score_from_cache readers (the serving engine holds a per-suite
  /// writer lock across mutation + re-score).
  bool upsert_row(const CounterMatrix& suite, std::size_t row,
                  const TrendScoreOptions& options);

  /// Unmaps `workload` from the primed cache and frees its slot for the
  /// next new name. When free slots reach the live count, the live rows
  /// are compacted into live-sized matrices (copies, no DTW). Returns
  /// false when the cache is unusable or the name is unknown. Same
  /// external-synchronization contract as upsert_row.
  bool remove_row(const std::string& workload);

  /// Proves `suite` is a row-view of the primed suite under the same
  /// options and fills `rows` with the primed row index of every suite
  /// row. Returns false (a cache miss) when anything fails to match.
  bool map_rows(const CounterMatrix& suite, const TrendScoreOptions& options,
                std::vector<std::size_t>& rows) const;

  /// TrendScore of the row-view `rows` of the primed suite — pure lookups,
  /// no DTW. Bit-identical to trend_score on the materialized sub-suite.
  /// Requires a usable primed cache and at least two rows.
  TrendScoreResult trend_score_from_cache(
      std::span<const std::size_t> rows) const;

  /// The memoized ClusterScoreResult of `values` under `options`, if the
  /// memo slot holds exactly that key (bitwise); nullopt otherwise.
  std::optional<ClusterScoreResult> find_cluster(
      const la::Matrix& values, const ClusterScoreOptions& options) const;

  /// Records `result` as the ClusterScore of `values` under `options`,
  /// replacing whatever the memo slot held.
  void record_cluster(const la::Matrix& values,
                      const ClusterScoreOptions& options,
                      const ClusterScoreResult& result);

  /// Bytes held by the trend cache: every per-counter distance matrix
  /// (free slots included) plus the live normalized trends. The raw series
  /// are shared with the suites that supplied them and not counted.
  std::size_t resident_bytes() const;

 private:
  /// Moves slot keep[i]'s distances and trends to slot i of fresh
  /// `slots`-sized matrices (copies, no DTW; the other slots start empty).
  /// Caller holds prime_mutex_ and renumbers row_by_name_.
  void repack(const std::vector<std::size_t>& keep, std::size_t slots);

  mutable std::mutex prime_mutex_;
  std::atomic<bool> trend_primed_{false};
  bool trend_usable_ = false;

  std::vector<std::string> counters_;
  /// Ordered map: never iterated today, but the det-hash lint policy bans
  /// hash containers in scoring subsystems outright so an innocent future
  /// loop cannot leak iteration order into results.
  std::map<std::string, std::size_t> row_by_name_;
  TrendScoreOptions options_;
  /// Normalized trend of primed workload w, counter c at [w * m + c] —
  /// kept for map_rows' element-wise verification.
  std::vector<std::vector<double>> trends_;
  /// The raw series trends_[i] was normalized from — map_rows' identity
  /// check. Weak, so a slot never keeps a suite's samples alive
  /// after the suite is gone; an expired slot proves by normalizing.
  std::vector<std::weak_ptr<const std::vector<double>>> raw_;
  /// Per-counter slots x slots pairwise DTW distance matrices. Entries
  /// that involve a free slot are stale and never read.
  std::vector<la::Matrix> per_counter_;
  /// Freed slots, reused last-freed first.
  std::vector<std::size_t> free_slots_;

  /// The ClusterScore memo's one slot.
  struct ClusterMemo {
    bool valid = false;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<double> values;
    ClusterScoreOptions options;
    ClusterScoreResult result;
  };
  mutable std::mutex cluster_mutex_;
  ClusterMemo cluster_memo_;
};

}  // namespace perspector::core
