// Report formatting: fixed-width text tables and CSV output used by the
// examples and every bench binary.
#pragma once

#include <string>
#include <vector>

#include "core/perspector.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perspector::core {

/// Simple column-aligned text table with optional CSV rendering.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Fixed-width rendering with a header separator.
  std::string to_text() const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  std::string to_csv() const;

  /// Writes the CSV rendering to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double rendering ("0.1235").
std::string format_double(double value, int precision = 4);

/// Renders a scores-per-suite comparison (one row per suite, the four
/// Perspector scores as columns) — the textual Fig. 3 panel.
Table scores_table(const std::vector<SuiteScores>& scores);

/// One-line arrow annotation of which direction is better per score.
std::string score_legend();

/// Per-workload derived-rate table for one suite (LLC/TLB miss rates,
/// branch behaviour, stall fractions). Requires the Table IV counters.
Table workload_rates_table(const CounterMatrix& suite);

/// Full multi-section text report for one scored suite: the four scores
/// with per-metric detail, the per-workload rates table, and per-counter
/// trend contributions when series were collected.
std::string suite_report(const CounterMatrix& suite,
                         const SuiteScores& scores);

/// Per-phase wall-clock breakdown of recorded trace spans. Percentages are
/// relative to `wall_us` when positive, otherwise to the largest phase
/// total (nested spans overlap, so totals do not sum to the wall clock).
Table phase_timing_table(const std::vector<obs::PhaseStat>& summary,
                         double wall_us = 0.0);

/// All registered obs counters (name, value), sorted by name.
Table counters_table(const std::vector<obs::CounterSnapshot>& counters);

/// All registered obs histograms (count/min/mean/max + p50/p90/p99/
/// p99.9), sorted by name.
Table histograms_table(const std::vector<obs::HistogramSnapshot>& histograms);

}  // namespace perspector::core
