#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "obs/histogram.hpp"

namespace perspector::obs {

namespace {

// Nodes are heap-allocated and never destroyed while the process lives, so
// references handed out by counter()/histogram() stay valid
// even as the map rehashes. transparent less<> lets string_view probe
// without allocating.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  // lint:allow(par-static): the metrics registry; mutex-guarded, atomic cells
  static Registry* r = new Registry();  // never destroyed: see note above
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<CounterSnapshot> counters_snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<CounterSnapshot> out;
  out.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    out.push_back({name, c->value()});
  }
  return out;
}

std::vector<HistogramSnapshot> histograms_snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<HistogramSnapshot> out;
  out.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    out.push_back({name, h->stats()});
  }
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

}  // namespace perspector::obs
