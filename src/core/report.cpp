#include "core/report.hpp"

#include "core/derived.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perspector::core {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: headers must not be empty");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: cell count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left
         << std::setw(static_cast<int>(widths[c])) << cells[c];
    }
    os << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "|") << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("Table::write_csv: cannot open '" + path + "'");
  }
  file << to_csv();
  if (!file) {
    throw std::runtime_error("Table::write_csv: write failed for '" + path +
                             "'");
  }
}

std::string format_double(double value, int precision) {
  // to_chars in fixed format with a precision is defined as printf's
  // "%.*f", which is what the stream path below prints; only a value too
  // wide for the buffer (|value| near 1e100 and up) takes the stream.
  char buffer[128];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value,
                                       std::chars_format::fixed, precision);
  if (ec == std::errc{}) return std::string(buffer, end);
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table scores_table(const std::vector<SuiteScores>& scores) {
  Table table({"suite", "cluster(v)", "trend(^)", "coverage(^)",
               "spread(v)", "pca-dims"});
  for (const auto& s : scores) {
    table.add_row({s.suite, format_double(s.cluster), format_double(s.trend, 2),
                   format_double(s.coverage), format_double(s.spread),
                   std::to_string(s.coverage_detail.components)});
  }
  return table;
}

std::string score_legend() {
  return "(v) lower is better, (^) higher is better";
}

Table workload_rates_table(const CounterMatrix& suite) {
  Table table({"workload", "llc-miss/kc", "tlb-miss/kc", "fault/kc",
               "br-miss%", "llc-miss%", "stall%", "mem/cyc"});
  for (const auto& m : derive_metrics(suite)) {
    table.add_row({m.workload, format_double(m.llc_miss_pkc, 2),
                   format_double(m.dtlb_miss_pkc, 2),
                   format_double(m.page_fault_pkc, 3),
                   format_double(100.0 * m.branch_miss_ratio, 1),
                   format_double(100.0 * m.llc_miss_ratio, 1),
                   format_double(100.0 * m.stall_fraction, 1),
                   format_double(m.memory_intensity, 3)});
  }
  return table;
}

std::string suite_report(const CounterMatrix& suite,
                         const SuiteScores& scores) {
  obs::Span span("core.report");
  std::ostringstream os;
  os << "=== Perspector report: " << suite.suite_name() << " ===\n"
     << suite.num_workloads() << " workloads x " << suite.num_counters()
     << " counters" << (suite.has_series() ? " (with time series)" : "")
     << "\n\n";

  os << scores_table({scores}).to_text() << score_legend() << "\n\n";

  os << "per-k silhouettes (k=2.." << suite.num_workloads() - 1 << "):";
  for (double s : scores.cluster_detail.per_k) {
    os << " " << format_double(s, 3);
  }
  os << "\n";
  os << "coverage: " << scores.coverage_detail.components
     << " PCA components at 98% variance; component variances:";
  for (double v : scores.coverage_detail.component_variances) {
    os << " " << format_double(v, 4);
  }
  os << "\n\n";

  os << "--- per-workload rates ---\n"
     << workload_rates_table(suite).to_text() << "\n";

  if (!scores.trend_detail.per_event.empty()) {
    os << "--- trend contribution per counter (TScore_z) ---\n";
    Table trend({"counter", "tscore"});
    for (std::size_t c = 0; c < scores.trend_detail.per_event.size(); ++c) {
      trend.add_row({suite.counter_names()[c],
                     format_double(scores.trend_detail.per_event[c], 1)});
    }
    os << trend.to_text();
  }
  return os.str();
}

Table phase_timing_table(const std::vector<obs::PhaseStat>& summary,
                         double wall_us) {
  double reference = wall_us;
  if (reference <= 0.0) {
    for (const auto& stat : summary) {
      reference = std::max(reference, stat.total_us);
    }
  }
  Table table({"phase", "calls", "total ms", "mean ms", "min ms", "max ms",
               "% wall"});
  for (const auto& stat : summary) {
    const double mean_us =
        stat.count ? stat.total_us / static_cast<double>(stat.count) : 0.0;
    const double pct =
        reference > 0.0 ? 100.0 * stat.total_us / reference : 0.0;
    table.add_row({stat.name, std::to_string(stat.count),
                   format_double(stat.total_us / 1000.0, 3),
                   format_double(mean_us / 1000.0, 3),
                   format_double(stat.min_us / 1000.0, 3),
                   format_double(stat.max_us / 1000.0, 3),
                   format_double(pct, 1)});
  }
  return table;
}

Table counters_table(const std::vector<obs::CounterSnapshot>& counters) {
  Table table({"metric", "value"});
  for (const auto& snapshot : counters) {
    table.add_row({snapshot.name, std::to_string(snapshot.value)});
  }
  return table;
}

Table histograms_table(
    const std::vector<obs::HistogramSnapshot>& histograms) {
  Table table({"metric", "count", "min", "mean", "max", "p50", "p90", "p99",
               "p99.9"});
  for (const auto& snapshot : histograms) {
    table.add_row({snapshot.name, std::to_string(snapshot.stats.count),
                   format_double(snapshot.stats.min, 4),
                   format_double(snapshot.stats.mean(), 4),
                   format_double(snapshot.stats.max, 4),
                   format_double(snapshot.stats.p50, 4),
                   format_double(snapshot.stats.p90, 4),
                   format_double(snapshot.stats.p99, 4),
                   format_double(snapshot.stats.p999, 4)});
  }
  return table;
}

}  // namespace perspector::core
