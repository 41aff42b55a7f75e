#include "core/counter_matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/pmu.hpp"
#include "suites/suite_factory.hpp"

namespace perspector::core {

namespace {

std::vector<std::vector<CounterMatrix::SeriesPtr>> share_series(
    std::vector<std::vector<std::vector<double>>> series) {
  std::vector<std::vector<CounterMatrix::SeriesPtr>> shared;
  shared.reserve(series.size());
  for (auto& per_workload : series) {
    std::vector<CounterMatrix::SeriesPtr> row;
    row.reserve(per_workload.size());
    for (auto& samples : per_workload) {
      row.push_back(
          std::make_shared<const std::vector<double>>(std::move(samples)));
    }
    shared.push_back(std::move(row));
  }
  return shared;
}

}  // namespace

CounterMatrix::CounterMatrix(
    std::string suite_name, std::vector<std::string> workloads,
    std::vector<std::string> counters, la::Matrix values,
    std::vector<std::vector<std::vector<double>>> series)
    : suite_name_(std::move(suite_name)),
      workloads_(std::move(workloads)),
      counters_(std::move(counters)),
      values_(std::move(values)),
      series_(share_series(std::move(series))) {
  check_shape();
}

CounterMatrix CounterMatrix::with_shared_series(
    std::string suite_name, std::vector<std::string> workloads,
    std::vector<std::string> counters, la::Matrix values,
    std::vector<std::vector<SeriesPtr>> series) {
  CounterMatrix matrix;
  matrix.suite_name_ = std::move(suite_name);
  matrix.workloads_ = std::move(workloads);
  matrix.counters_ = std::move(counters);
  matrix.values_ = std::move(values);
  matrix.series_ = std::move(series);
  matrix.check_shape();
  return matrix;
}

void CounterMatrix::check_shape() const {
  if (values_.rows() != workloads_.size() ||
      values_.cols() != counters_.size()) {
    throw std::invalid_argument(
        "CounterMatrix: matrix shape does not match name lists");
  }
  if (!series_.empty()) {
    if (series_.size() != workloads_.size()) {
      throw std::invalid_argument(
          "CounterMatrix: series workload count mismatch");
    }
    for (const auto& per_workload : series_) {
      if (per_workload.size() != counters_.size()) {
        throw std::invalid_argument(
            "CounterMatrix: series counter count mismatch");
      }
      for (const SeriesPtr& samples : per_workload) {
        if (!samples) {
          throw std::invalid_argument("CounterMatrix: null series");
        }
      }
    }
  }
}

CounterMatrix CounterMatrix::from_sim_results(
    std::string suite_name, const std::vector<sim::SimResult>& results) {
  if (results.empty()) {
    throw std::invalid_argument("CounterMatrix::from_sim_results: no results");
  }
  std::vector<std::string> workloads;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  const bool with_series = !results.front().series.empty();

  for (const auto& r : results) {
    workloads.push_back(r.workload);
    values.append_row(r.totals.as_vector());
    if (with_series) {
      if (r.series.empty()) {
        throw std::invalid_argument(
            "CounterMatrix::from_sim_results: inconsistent series presence");
      }
      series.push_back(r.series);
    }
  }
  return CounterMatrix(std::move(suite_name), std::move(workloads),
                       sim::pmu_event_names(), std::move(values),
                       std::move(series));
}

CounterMatrix CounterMatrix::merge(std::string name,
                                   const std::vector<CounterMatrix>& parts) {
  if (parts.empty()) {
    throw std::invalid_argument("CounterMatrix::merge: no parts");
  }
  const auto& counters = parts.front().counter_names();
  bool with_series = true;
  for (const auto& part : parts) {
    if (part.counter_names() != counters) {
      throw std::invalid_argument(
          "CounterMatrix::merge: counter name lists differ");
    }
    with_series = with_series && part.has_series();
  }

  std::vector<std::string> workloads;
  la::Matrix values;
  std::vector<std::vector<SeriesPtr>> series;
  for (const auto& part : parts) {
    for (std::size_t w = 0; w < part.num_workloads(); ++w) {
      workloads.push_back(part.suite_name() + "/" +
                          part.workload_names()[w]);
      values.append_row(part.values().row(w));
      if (with_series) series.push_back(part.series_[w]);
    }
  }
  return with_shared_series(std::move(name), std::move(workloads), counters,
                            std::move(values), std::move(series));
}

const CounterMatrix::SeriesPtr& CounterMatrix::series_ptr(
    std::size_t w, std::size_t c) const {
  if (series_.empty()) {
    throw std::logic_error("CounterMatrix::series: series not collected");
  }
  if (w >= series_.size() || c >= series_[w].size()) {
    throw std::out_of_range("CounterMatrix::series");
  }
  return series_[w][c];
}

std::size_t CounterMatrix::counter_index(const std::string& name) const {
  const auto it = std::find(counters_.begin(), counters_.end(), name);
  if (it == counters_.end()) {
    throw std::invalid_argument("CounterMatrix: unknown counter '" + name +
                                "'");
  }
  return static_cast<std::size_t>(it - counters_.begin());
}

std::size_t CounterMatrix::workload_index(const std::string& name) const {
  const auto it = std::find(workloads_.begin(), workloads_.end(), name);
  if (it == workloads_.end()) {
    throw std::invalid_argument("CounterMatrix: unknown workload '" + name +
                                "'");
  }
  return static_cast<std::size_t>(it - workloads_.begin());
}

CounterMatrix CounterMatrix::select_counters(
    const std::vector<std::size_t>& indices) const {
  std::vector<std::string> counters;
  for (std::size_t c : indices) {
    if (c >= counters_.size()) {
      throw std::out_of_range("CounterMatrix::select_counters");
    }
    counters.push_back(counters_[c]);
  }
  la::Matrix values = values_.select_cols(indices);
  std::vector<std::vector<SeriesPtr>> series;
  if (!series_.empty()) {
    series.reserve(series_.size());
    for (const auto& per_workload : series_) {
      std::vector<SeriesPtr> kept;
      kept.reserve(indices.size());
      for (std::size_t c : indices) kept.push_back(per_workload[c]);
      series.push_back(std::move(kept));
    }
  }
  return with_shared_series(suite_name_, workloads_, std::move(counters),
                            std::move(values), std::move(series));
}

CounterMatrix CounterMatrix::select_workloads(
    const std::vector<std::size_t>& indices) const {
  std::vector<std::string> workloads;
  for (std::size_t w : indices) {
    if (w >= workloads_.size()) {
      throw std::out_of_range("CounterMatrix::select_workloads");
    }
    workloads.push_back(workloads_[w]);
  }
  la::Matrix values = values_.select_rows(indices);
  std::vector<std::vector<SeriesPtr>> series;
  if (!series_.empty()) {
    series.reserve(indices.size());
    for (std::size_t w : indices) series.push_back(series_[w]);
  }
  return with_shared_series(suite_name_, std::move(workloads), counters_,
                            std::move(values), std::move(series));
}

CounterMatrix collect_counters(const sim::SuiteSpec& suite,
                               const sim::MachineConfig& machine,
                               const sim::SimOptions& options) {
  obs::Span span("collect_counters/" + suite.name);
  return CounterMatrix::from_sim_results(
      suite.name, sim::simulate_suite(suite, machine, options));
}

CounterMatrix simulate_builtin(const std::string& name,
                               std::uint64_t instructions) {
  suites::SuiteBuildOptions build;
  build.instructions_per_workload = instructions;
  sim::SimOptions sim_options;
  sim_options.sample_interval = std::max<std::uint64_t>(instructions / 100, 1);
  return collect_counters(suites::suite_by_name(name, build),
                          sim::MachineConfig::xeon_e2186g(), sim_options);
}

}  // namespace perspector::core
