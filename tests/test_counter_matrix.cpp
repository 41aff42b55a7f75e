#include "core/counter_matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perspector::core {
namespace {

CounterMatrix sample_matrix() {
  la::Matrix values{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  std::vector<std::vector<std::vector<double>>> series{
      {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}},
      {{4.0, 4.0}, {5.0, 5.0}, {6.0, 6.0}},
  };
  return CounterMatrix("demo", {"w0", "w1"}, {"c0", "c1", "c2"}, values,
                       series);
}

TEST(CounterMatrix, ValidatesShapes) {
  la::Matrix values(2, 3);
  EXPECT_THROW(CounterMatrix("s", {"w0"}, {"c0", "c1", "c2"}, values),
               std::invalid_argument);
  EXPECT_THROW(CounterMatrix("s", {"w0", "w1"}, {"c0"}, values),
               std::invalid_argument);
  // Series with wrong workload count.
  EXPECT_THROW(CounterMatrix("s", {"w0", "w1"}, {"c0", "c1", "c2"}, values,
                             {{{1.0}, {1.0}, {1.0}}}),
               std::invalid_argument);
  // Series with wrong counter count.
  EXPECT_THROW(CounterMatrix("s", {"w0", "w1"}, {"c0", "c1", "c2"}, values,
                             {{{1.0}}, {{1.0}}}),
               std::invalid_argument);
}

TEST(CounterMatrix, BasicAccessors) {
  const CounterMatrix m = sample_matrix();
  EXPECT_EQ(m.suite_name(), "demo");
  EXPECT_EQ(m.num_workloads(), 2u);
  EXPECT_EQ(m.num_counters(), 3u);
  EXPECT_DOUBLE_EQ(m.value(1, 2), 6.0);
  EXPECT_TRUE(m.has_series());
  EXPECT_EQ(m.series(0, 1), (std::vector<double>{2.0, 2.0}));
  EXPECT_THROW(m.series(2, 0), std::out_of_range);
}

TEST(CounterMatrix, NoSeriesVariant) {
  la::Matrix values(1, 1, 5.0);
  const CounterMatrix m("s", {"w"}, {"c"}, values);
  EXPECT_FALSE(m.has_series());
  EXPECT_THROW(m.series(0, 0), std::logic_error);
}

TEST(CounterMatrix, IndexLookups) {
  const CounterMatrix m = sample_matrix();
  EXPECT_EQ(m.counter_index("c1"), 1u);
  EXPECT_EQ(m.workload_index("w1"), 1u);
  EXPECT_THROW(m.counter_index("missing"), std::invalid_argument);
  EXPECT_THROW(m.workload_index("missing"), std::invalid_argument);
}

TEST(CounterMatrix, SelectCounters) {
  const CounterMatrix m = sample_matrix();
  const CounterMatrix sub = m.select_counters({2, 0});
  EXPECT_EQ(sub.num_counters(), 2u);
  EXPECT_EQ(sub.counter_names(), (std::vector<std::string>{"c2", "c0"}));
  EXPECT_DOUBLE_EQ(sub.value(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub.value(1, 1), 4.0);
  // Series filtered in the same order.
  EXPECT_EQ(sub.series(0, 0), (std::vector<double>{3.0, 3.0}));
  EXPECT_THROW(m.select_counters({5}), std::out_of_range);
}

TEST(CounterMatrix, SelectWorkloads) {
  const CounterMatrix m = sample_matrix();
  const CounterMatrix sub = m.select_workloads({1});
  EXPECT_EQ(sub.num_workloads(), 1u);
  EXPECT_EQ(sub.workload_names(), (std::vector<std::string>{"w1"}));
  EXPECT_DOUBLE_EQ(sub.value(0, 0), 4.0);
  EXPECT_EQ(sub.series(0, 2), (std::vector<double>{6.0, 6.0}));
  EXPECT_THROW(m.select_workloads({7}), std::out_of_range);
}

TEST(CounterMatrix, DerivedMatricesShareSeriesStorage) {
  const CounterMatrix m = sample_matrix();
  const CounterMatrix copy = m;
  const CounterMatrix rows = m.select_workloads({1, 0});
  const CounterMatrix cols = m.select_counters({2, 0});
  const CounterMatrix merged = CounterMatrix::merge("pool", {m});
  EXPECT_EQ(copy.series(1, 2).data(), m.series(1, 2).data());
  EXPECT_EQ(rows.series(0, 1).data(), m.series(1, 1).data());
  EXPECT_EQ(cols.series(1, 0).data(), m.series(1, 2).data());
  EXPECT_EQ(merged.series(0, 0).data(), m.series(0, 0).data());
  EXPECT_EQ(rows.series_ptr(1, 2), m.series_ptr(0, 2));
}

TEST(CounterMatrix, SharedSeriesConstructionValidates) {
  const CounterMatrix m = sample_matrix();
  std::vector<std::vector<CounterMatrix::SeriesPtr>> series = {
      {m.series_ptr(0, 0), m.series_ptr(0, 1), m.series_ptr(0, 2)},
      {m.series_ptr(1, 0), m.series_ptr(1, 1), nullptr}};
  EXPECT_THROW(CounterMatrix::with_shared_series("s", m.workload_names(),
                                                 m.counter_names(),
                                                 m.values(), series),
               std::invalid_argument);
  series[1].pop_back();
  EXPECT_THROW(CounterMatrix::with_shared_series("s", m.workload_names(),
                                                 m.counter_names(),
                                                 m.values(), series),
               std::invalid_argument);
  series[1].push_back(m.series_ptr(1, 2));
  const CounterMatrix shared = CounterMatrix::with_shared_series(
      "s", m.workload_names(), m.counter_names(), m.values(), series);
  EXPECT_EQ(shared.series(1, 2), m.series(1, 2));
  EXPECT_EQ(shared.series(1, 2).data(), m.series(1, 2).data());
}

TEST(CounterMatrix, MergePoolsSuites) {
  const CounterMatrix a = sample_matrix();
  la::Matrix values(1, 3, 9.0);
  std::vector<std::vector<std::vector<double>>> series{
      {{9.0}, {9.0}, {9.0}}};
  const CounterMatrix b("other", {"w9"}, {"c0", "c1", "c2"}, values, series);

  const CounterMatrix merged = CounterMatrix::merge("pool", {a, b});
  EXPECT_EQ(merged.suite_name(), "pool");
  EXPECT_EQ(merged.num_workloads(), 3u);
  EXPECT_EQ(merged.workload_names(),
            (std::vector<std::string>{"demo/w0", "demo/w1", "other/w9"}));
  EXPECT_DOUBLE_EQ(merged.value(2, 1), 9.0);
  EXPECT_TRUE(merged.has_series());
  EXPECT_EQ(merged.series(0, 0), a.series(0, 0));
  EXPECT_EQ(merged.series(2, 2), (std::vector<double>{9.0}));
}

TEST(CounterMatrix, MergeDropsSeriesWhenAnyPartLacksThem) {
  const CounterMatrix a = sample_matrix();
  la::Matrix values(1, 3, 1.0);
  const CounterMatrix bare("bare", {"w"}, {"c0", "c1", "c2"}, values);
  const CounterMatrix merged = CounterMatrix::merge("pool", {a, bare});
  EXPECT_FALSE(merged.has_series());
  EXPECT_EQ(merged.num_workloads(), 3u);
}

TEST(CounterMatrix, MergeValidates) {
  EXPECT_THROW(CounterMatrix::merge("pool", {}), std::invalid_argument);
  const CounterMatrix a = sample_matrix();
  la::Matrix values(1, 2, 1.0);
  const CounterMatrix mismatched("m", {"w"}, {"x", "y"}, values);
  EXPECT_THROW(CounterMatrix::merge("pool", {a, mismatched}),
               std::invalid_argument);
}

TEST(CounterMatrix, FromSimResults) {
  sim::SimResult r1, r2;
  r1.workload = "a";
  r1.totals[sim::PmuEvent::CpuCycles] = 100;
  r1.series.assign(sim::kPmuEventCount, {1.0, 2.0});
  r2.workload = "b";
  r2.totals[sim::PmuEvent::CpuCycles] = 200;
  r2.series.assign(sim::kPmuEventCount, {3.0, 4.0});

  const auto m = CounterMatrix::from_sim_results("suite", {r1, r2});
  EXPECT_EQ(m.num_workloads(), 2u);
  EXPECT_EQ(m.num_counters(), sim::kPmuEventCount);
  EXPECT_DOUBLE_EQ(m.value(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(m.value(1, 0), 200.0);
  EXPECT_EQ(m.counter_names()[0], "cpu-cycles");

  EXPECT_THROW(CounterMatrix::from_sim_results("s", {}),
               std::invalid_argument);
  // Inconsistent series presence rejected.
  sim::SimResult bare;
  bare.workload = "c";
  EXPECT_THROW(CounterMatrix::from_sim_results("s", {r1, bare}),
               std::invalid_argument);
}

}  // namespace
}  // namespace perspector::core
