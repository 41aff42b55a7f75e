#include "core/event_group.hpp"

#include <algorithm>
#include <stdexcept>

namespace perspector::core {

EventGroup::EventGroup(std::string name, std::vector<std::string> counters)
    : name_(std::move(name)), counters_(std::move(counters)) {}

EventGroup EventGroup::all() { return EventGroup("all", {}); }

EventGroup EventGroup::llc() {
  return EventGroup("llc", {"LLC-loads", "LLC-stores", "LLC-load-misses",
                            "LLC-store-misses"});
}

EventGroup EventGroup::tlb() {
  return EventGroup("tlb",
                    {"dTLB-loads", "dTLB-stores", "dTLB-load-misses",
                     "dTLB-store-misses", "dtlb_misses.walk_pending"});
}

EventGroup EventGroup::branch() {
  return EventGroup("branch", {"branch-instructions", "branch-misses"});
}

EventGroup event_group_by_name(const std::string& name) {
  if (name == "all") return EventGroup::all();
  if (name == "llc") return EventGroup::llc();
  if (name == "tlb") return EventGroup::tlb();
  if (name == "branch") return EventGroup::branch();
  throw std::invalid_argument("unknown event group '" + name + "'");
}

EventGroup EventGroup::custom(std::string name,
                              std::vector<std::string> counters) {
  if (counters.empty()) {
    throw std::invalid_argument(
        "EventGroup::custom: counter list must not be empty "
        "(use EventGroup::all() for the identity filter)");
  }
  return EventGroup(std::move(name), std::move(counters));
}

bool EventGroup::contains(const std::string& counter_name) const {
  if (is_all()) return true;
  return std::find(counters_.begin(), counters_.end(), counter_name) !=
         counters_.end();
}

std::vector<std::size_t> EventGroup::indices_in(
    const std::vector<std::string>& available) const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < available.size(); ++i) {
    if (contains(available[i])) indices.push_back(i);
  }
  if (indices.empty()) {
    throw std::invalid_argument("EventGroup '" + name_ +
                                "': no matching counters available");
  }
  return indices;
}

}  // namespace perspector::core
