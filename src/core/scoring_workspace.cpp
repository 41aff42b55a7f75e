#include "core/scoring_workspace.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "dtw/dtw.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"

namespace perspector::core {

namespace {

bool same_options(const TrendScoreOptions& a, const TrendScoreOptions& b) {
  return a.grid_points == b.grid_points && a.normalization == b.normalization &&
         a.dtw_band_fraction == b.dtw_band_fraction;
}

}  // namespace

void ScoringWorkspace::prime_trend(const CounterMatrix& suite,
                                   const TrendScoreOptions& options) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (trend_primed_.load(std::memory_order_relaxed)) return;

  static obs::Counter& primes = obs::counter("cache.primes");
  const std::size_t n = suite.num_workloads();
  const std::size_t m = suite.num_counters();

  // Disqualifying shapes leave the cache primed-but-unusable; lookups then
  // miss and callers take the direct path (including its error behaviour).
  bool usable = suite.has_series() && n >= 2 && m >= 1;
  if (usable) {
    for (std::size_t w = 0; w < n; ++w) {
      if (!row_by_name_.emplace(suite.workload_names()[w], w).second) {
        usable = false;  // duplicate names make the mapping ambiguous
        row_by_name_.clear();
        break;
      }
    }
  }

  if (usable) {
    obs::Span span("cache.prime_trend");
    // Kernel-latency histogram companion to the span: always on, so the
    // stats op reports prime cost even when the tracer is disabled.
    static obs::Histogram& prime_latency =
        obs::histogram("cache.prime.latency");
    obs::LatencyTimer timer(prime_latency);
    counters_ = suite.counter_names();
    options_ = options;

    // Normalized trends: one per (workload, counter), each an independent
    // slot — deterministic for any thread count.
    trends_.resize(n * m);
    raw_.resize(n * m);
    for (std::size_t t = 0; t < n * m; ++t) {
      raw_[t] = suite.series_ptr(t / m, t % m);
    }
    par::parallel_for(n * m, [&](std::size_t t) {
      trends_[t] =
          dtw::normalize_trend(suite.series(t / m, t % m), options.grid_points,
                               options.normalization);
    });

    // Full pairwise DTW matrices: every counter's (i < j) pairs, in
    // (counter, i, j) order, run as one batched region; each distance
    // lands in its own slot and is scattered serially.
    dtw::DtwOptions dtw_options;
    dtw_options.band_fraction = options.dtw_band_fraction;
    std::vector<dtw::SeriesPair> pairs;
    pairs.reserve(m * n * (n - 1) / 2);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          pairs.push_back({trends_[i * m + c], trends_[j * m + c]});
        }
      }
    }
    const std::vector<double> dist = dtw::dtw_distances(pairs, dtw_options);
    per_counter_.assign(m, la::Matrix(n, n, 0.0));
    std::size_t p = 0;
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j, ++p) {
          per_counter_[c](i, j) = dist[p];
          per_counter_[c](j, i) = dist[p];
        }
      }
    }
    primes.increment();
  }

  trend_usable_ = usable;
  trend_primed_.store(true, std::memory_order_release);
}

bool ScoringWorkspace::upsert_row(const CounterMatrix& suite, std::size_t row,
                                  const TrendScoreOptions& options) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (!trend_primed_.load(std::memory_order_relaxed) || !trend_usable_) {
    return false;
  }
  if (!same_options(options, options_)) return false;
  if (!suite.has_series()) return false;
  if (suite.counter_names() != counters_) return false;
  if (row >= suite.num_workloads()) return false;

  static obs::Counter& upserts = obs::counter("cache.delta_upserts");
  obs::Span span("cache.delta_upsert");

  const std::size_t m = counters_.size();
  const std::string& name = suite.workload_names()[row];

  // Fresh normalized trends for the (re)computed workload.
  std::vector<std::vector<double>> fresh(m);
  par::parallel_for(m, [&](std::size_t c) {
    fresh[c] = dtw::normalize_trend(suite.series(row, c), options_.grid_points,
                                    options_.normalization);
  });

  // Every other live row, in name-sorted (deterministic) order; a known
  // name keeps its slot and skips its own stale version.
  const auto known = row_by_name_.find(name);
  std::vector<std::size_t> live;
  live.reserve(row_by_name_.size());
  for (const auto& [other, index] : row_by_name_) {
    if (known == row_by_name_.end() || index != known->second) {
      live.push_back(index);
    }
  }

  std::size_t r = 0;
  if (known != row_by_name_.end()) {
    r = known->second;
  } else if (!free_slots_.empty()) {
    r = free_slots_.back();
    free_slots_.pop_back();
  } else {
    // A new high of live rows (no slot is free, so every slot is live):
    // grow by one slot.
    r = trends_.size() / m;
    std::vector<std::size_t> all(r);
    std::iota(all.begin(), all.end(), std::size_t{0});
    repack(all, r + 1);
  }

  // One DTW strip — the row against every other live row, all counters —
  // as one batched region, scattered to (j, r)/(r, j) afterwards.
  dtw::DtwOptions dtw_options;
  dtw_options.band_fraction = options_.dtw_band_fraction;
  std::vector<dtw::SeriesPair> pairs;
  pairs.reserve(m * live.size());
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t j : live) pairs.push_back({trends_[j * m + c], fresh[c]});
  }
  const std::vector<double> dist = dtw::dtw_distances(pairs, dtw_options);
  std::size_t p = 0;
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t j : live) {
      per_counter_[c](j, r) = dist[p];
      per_counter_[c](r, j) = dist[p];
      ++p;
    }
  }

  for (std::size_t c = 0; c < m; ++c) {
    trends_[r * m + c] = std::move(fresh[c]);
    raw_[r * m + c] = suite.series_ptr(row, c);
  }
  row_by_name_.insert_or_assign(name, r);
  upserts.increment();
  return true;
}

bool ScoringWorkspace::remove_row(const std::string& workload) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (!trend_primed_.load(std::memory_order_relaxed) || !trend_usable_) {
    return false;
  }
  static obs::Counter& drops = obs::counter("cache.delta_drops");
  const auto it = row_by_name_.find(workload);
  if (it == row_by_name_.end()) return false;
  const std::size_t slot = it->second;
  row_by_name_.erase(it);
  const std::size_t m = counters_.size();
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<double>().swap(trends_[slot * m + c]);
    raw_[slot * m + c].reset();
  }
  free_slots_.push_back(slot);
  if (free_slots_.size() >= row_by_name_.size()) {
    // Compact: the live slots, in ascending order, become slots 0..n-1.
    std::vector<std::size_t> live;
    live.reserve(row_by_name_.size());
    for (const auto& [name, index] : row_by_name_) live.push_back(index);
    std::sort(live.begin(), live.end());
    repack(live, live.size());
    for (auto& [name, index] : row_by_name_) {
      index = static_cast<std::size_t>(
          std::lower_bound(live.begin(), live.end(), index) - live.begin());
    }
    free_slots_.clear();
  }
  drops.increment();
  return true;
}

void ScoringWorkspace::repack(const std::vector<std::size_t>& keep,
                              std::size_t slots) {
  static obs::Counter& copied = obs::counter("cache.delta_cells_copied");
  const std::size_t m = counters_.size();
  const std::size_t n = keep.size();
  for (la::Matrix& d : per_counter_) {
    la::Matrix packed(slots, slots, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) packed(i, j) = d(keep[i], keep[j]);
    }
    d = std::move(packed);
  }
  copied.add(m * n * n);

  std::vector<std::vector<double>> packed_trends(slots * m);
  std::vector<std::weak_ptr<const std::vector<double>>> packed_raw(slots * m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      packed_trends[i * m + c] = std::move(trends_[keep[i] * m + c]);
      packed_raw[i * m + c] = std::move(raw_[keep[i] * m + c]);
    }
  }
  trends_ = std::move(packed_trends);
  raw_ = std::move(packed_raw);
}

bool ScoringWorkspace::map_rows(const CounterMatrix& suite,
                                const TrendScoreOptions& options,
                                std::vector<std::size_t>& rows) const {
  if (!trend_primed() || !trend_usable_) return false;
  if (!same_options(options, options_)) return false;
  if (!suite.has_series()) return false;
  if (suite.counter_names() != counters_) return false;

  const std::size_t s = suite.num_workloads();
  const std::size_t m = counters_.size();
  rows.resize(s);
  for (std::size_t w = 0; w < s; ++w) {
    const auto it = row_by_name_.find(suite.workload_names()[w]);
    if (it == row_by_name_.end()) return false;
    rows[w] = it->second;
  }

  // The decisive check: every candidate series must normalize to exactly
  // the trend its primed slot holds — then the direct DTW evaluation
  // would reproduce the cached doubles bit for bit. The very storage the
  // slot was normalized from proves that without normalizing; every other
  // series is normalized and compared, each (w, c) independently, with
  // mismatch flags in index-owned slots.
  std::vector<std::size_t> unproved;
  for (std::size_t w = 0; w < s; ++w) {
    for (std::size_t c = 0; c < m; ++c) {
      if (suite.series_ptr(w, c) != raw_[rows[w] * m + c].lock()) {
        unproved.push_back(w * m + c);
      }
    }
  }
  static obs::Counter& normalized = obs::counter("cache.verify_normalized");
  normalized.add(unproved.size());
  std::vector<char> ok(unproved.size(), 0);
  par::parallel_for(unproved.size(), [&](std::size_t i) {
    const std::size_t w = unproved[i] / m;
    const std::size_t c = unproved[i] % m;
    ok[i] = dtw::normalize_trend(suite.series(w, c), options_.grid_points,
                                 options_.normalization) ==
            trends_[rows[w] * m + c];
  });
  return std::all_of(ok.begin(), ok.end(), [](char flag) { return flag; });
}

TrendScoreResult ScoringWorkspace::trend_score_from_cache(
    std::span<const std::size_t> rows) const {
  if (!trend_primed() || !trend_usable_) {
    throw std::logic_error("trend_score_from_cache: cache not primed");
  }
  if (rows.size() < 2) {
    throw std::invalid_argument("trend_score: need at least 2 workloads");
  }
  obs::Span span("trend_score.cached");
  const std::size_t m = counters_.size();
  const std::size_t s = rows.size();
  const std::size_t pairs = s * (s - 1) / 2;

  TrendScoreResult result;
  result.per_event.resize(m);
  // Mirrors trend_score: counters are independent tasks; within one, pair
  // distances accumulate in (i asc, j asc) order — the exact association
  // of the direct Eq. 7 sum, now over cached doubles.
  par::parallel_for(m, [&](std::size_t c) {
    const la::Matrix& d = per_counter_[c];
    double total = 0.0;
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = i + 1; j < s; ++j) {
        total += d(rows[i], rows[j]);
      }
    }
    result.per_event[c] = total / static_cast<double>(pairs);  // Eq. 7
  });
  double total = 0.0;
  for (double t_score : result.per_event) total += t_score;
  result.score = total / static_cast<double>(m);  // Eq. 8
  return result;
}

std::optional<ClusterScoreResult> ScoringWorkspace::find_cluster(
    const la::Matrix& values, const ClusterScoreOptions& options) const {
  static obs::Counter& hits = obs::counter("cache.cluster_hits");
  static obs::Counter& misses = obs::counter("cache.cluster_misses");
  const std::span<const double> data = values.data();
  std::lock_guard<std::mutex> lock(cluster_mutex_);
  const ClusterMemo& memo = cluster_memo_;
  if (memo.valid && memo.rows == values.rows() && memo.cols == values.cols() &&
      memo.options.kmeans_restarts == options.kmeans_restarts &&
      memo.options.kmeans_max_iters == options.kmeans_max_iters &&
      memo.options.seed == options.seed &&
      (data.empty() ||
       std::memcmp(memo.values.data(), data.data(),
                   data.size() * sizeof(double)) == 0)) {
    hits.increment();
    return memo.result;
  }
  misses.increment();
  return std::nullopt;
}

void ScoringWorkspace::record_cluster(const la::Matrix& values,
                                      const ClusterScoreOptions& options,
                                      const ClusterScoreResult& result) {
  const std::span<const double> data = values.data();
  std::lock_guard<std::mutex> lock(cluster_mutex_);
  cluster_memo_.valid = true;
  cluster_memo_.rows = values.rows();
  cluster_memo_.cols = values.cols();
  cluster_memo_.values.assign(data.begin(), data.end());
  cluster_memo_.options = options;
  cluster_memo_.result = result;
}

std::size_t ScoringWorkspace::resident_bytes() const {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  std::size_t cells = 0;
  for (const la::Matrix& d : per_counter_) cells += d.rows() * d.cols();
  for (const std::vector<double>& trend : trends_) cells += trend.size();
  return cells * sizeof(double);
}

}  // namespace perspector::core
