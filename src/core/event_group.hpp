// Event groups: named subsets of PMU counters for focused scoring
// (paper Section IV-B — all / LLC-only / TLB-only).
#pragma once

#include <string>
#include <vector>

namespace perspector::core {

/// A named filter over counter names.
class EventGroup {
 public:
  /// All counters (identity filter).
  static EventGroup all();
  /// LLC-loads/stores and their misses (Fig. 3b).
  static EventGroup llc();
  /// dTLB loads/stores, their misses, and walk-pending cycles (Fig. 3c).
  static EventGroup tlb();
  /// Branch instructions and mispredictions.
  static EventGroup branch();
  /// Arbitrary user-defined group; `counters` must be non-empty.
  static EventGroup custom(std::string name, std::vector<std::string> counters);

  const std::string& name() const noexcept { return name_; }

  /// True when this group keeps every counter.
  bool is_all() const noexcept { return counters_.empty(); }

  bool contains(const std::string& counter_name) const;

  /// Indices (into `available`) of the counters this group selects, in
  /// `available` order. Throws std::invalid_argument when the group selects
  /// nothing from `available`.
  std::vector<std::size_t> indices_in(
      const std::vector<std::string>& available) const;

 private:
  EventGroup(std::string name, std::vector<std::string> counters);

  std::string name_;
  std::vector<std::string> counters_;  // empty = all
};

/// The named group all / llc / tlb / branch. Throws std::invalid_argument
/// on any other name.
EventGroup event_group_by_name(const std::string& name);

}  // namespace perspector::core
