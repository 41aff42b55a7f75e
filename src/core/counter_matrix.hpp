// CounterMatrix: the central data object of Perspector — one suite's PMU
// measurements. Rows are workloads, columns are counters (note the paper
// writes the transpose, m x n; the math is unchanged). Optionally carries
// the per-workload, per-counter sampled time series needed by the
// TrendScore.
//
// Series storage is shared: each (workload, counter) series sits behind a
// shared_ptr to an immutable vector, so a matrix derived from another
// (select_workloads, select_counters, merge, a copy, a live-suite edit)
// points at the same samples instead of copying them. A new vector is made
// only for a series whose samples change; a reader holding an older matrix
// keeps its snapshot alive and unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace perspector::core {

/// One benchmark suite's collected counter data.
class CounterMatrix {
 public:
  /// One sampled series, shared by every matrix that holds those samples.
  using SeriesPtr = std::shared_ptr<const std::vector<double>>;

  CounterMatrix() = default;

  /// Direct construction; series may be empty (aggregate-only data).
  /// `series[w][c]` is workload w's sampled series for counter c.
  /// Throws std::invalid_argument on any shape inconsistency.
  CounterMatrix(std::string suite_name, std::vector<std::string> workloads,
                std::vector<std::string> counters, la::Matrix values,
                std::vector<std::vector<std::vector<double>>> series = {});

  /// Construction over shared series storage: `series[w][c]` is workload
  /// w's series for counter c, taken without a copy. Same checks as the
  /// constructor above; a null pointer is a shape inconsistency too.
  static CounterMatrix with_shared_series(
      std::string suite_name, std::vector<std::string> workloads,
      std::vector<std::string> counters, la::Matrix values,
      std::vector<std::vector<SeriesPtr>> series);

  /// Builds from simulator output (counter order = Table IV enum order).
  static CounterMatrix from_sim_results(
      std::string suite_name, const std::vector<sim::SimResult>& results);

  /// Pools several suites into one candidate set (e.g. for suite design).
  /// All parts must share identical counter names; workload names are
  /// prefixed "<suite>/" to stay unique. Series are kept only if *every*
  /// part carries them.
  static CounterMatrix merge(std::string name,
                             const std::vector<CounterMatrix>& parts);

  const std::string& suite_name() const noexcept { return suite_name_; }
  const std::vector<std::string>& workload_names() const noexcept {
    return workloads_;
  }
  const std::vector<std::string>& counter_names() const noexcept {
    return counters_;
  }
  const la::Matrix& values() const noexcept { return values_; }
  bool has_series() const noexcept { return !series_.empty(); }

  std::size_t num_workloads() const noexcept { return workloads_.size(); }
  std::size_t num_counters() const noexcept { return counters_.size(); }

  /// Aggregate value of counter `c` for workload `w`.
  double value(std::size_t w, std::size_t c) const { return values_.at(w, c); }

  /// Sampled series of counter `c` for workload `w`; throws when series were
  /// not collected.
  const std::vector<double>& series(std::size_t w, std::size_t c) const {
    return *series_ptr(w, c);
  }
  /// The shared storage behind series(w, c); same throws. Two matrices
  /// whose pointers are equal hold the same samples.
  const SeriesPtr& series_ptr(std::size_t w, std::size_t c) const;

  /// Index of a counter by name; throws std::invalid_argument when missing.
  std::size_t counter_index(const std::string& name) const;
  /// Index of a workload by name; throws std::invalid_argument when missing.
  std::size_t workload_index(const std::string& name) const;

  /// New CounterMatrix restricted to the given counter columns (in order).
  CounterMatrix select_counters(const std::vector<std::size_t>& indices) const;

  /// New CounterMatrix restricted to the given workload rows (in order).
  CounterMatrix select_workloads(const std::vector<std::size_t>& indices) const;

 private:
  /// Throws std::invalid_argument on any shape inconsistency.
  void check_shape() const;

  std::string suite_name_;
  std::vector<std::string> workloads_;
  std::vector<std::string> counters_;
  la::Matrix values_;  // num_workloads x num_counters
  std::vector<std::vector<SeriesPtr>> series_;  // [w][c], never null
};

/// Runs the simulator over a whole suite and packages the result.
CounterMatrix collect_counters(const sim::SuiteSpec& suite,
                               const sim::MachineConfig& machine,
                               const sim::SimOptions& options = {});

/// Simulates a built-in suite the one way `demo`, the serving engine and
/// subset-search jobs all do: equal instruction budgets, sample interval =
/// instructions/100 (min 1), the Xeon E-2186G machine model. Throws
/// std::invalid_argument on an unknown name.
CounterMatrix simulate_builtin(const std::string& name,
                               std::uint64_t instructions);

}  // namespace perspector::core
