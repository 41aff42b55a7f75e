#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perspector::core {
namespace {

TEST(Table, ValidatesConstruction) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowCellCountEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, TextRenderingAligned) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "22"});
  const std::string text = t.to_text();
  // Header, separator, and two data rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
  // All lines are the same width (fixed alignment).
  std::size_t width = text.find('\n');
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t next = text.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"plain"});
  t.add_row({"with,comma"});
  t.add_row({"with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("plain\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, WriteCsvRoundTrip) {
  Table t({"h1", "h2"});
  t.add_row({"a", "b"});
  const std::string path = ::testing::TempDir() + "/perspector_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
}

TEST(Table, WriteCsvBadPathThrows) {
  Table t({"h"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir/x/y.csv"), std::runtime_error);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 4), "1.0000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatDouble, MatchesTheStreamPathOnACorpus) {
  // The stream formatting format_double used before it took to_chars, and
  // still takes for values too wide for its buffer.
  const auto streamed = [](double value, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double corpus[] = {
      0.0, -0.0, 1.0, -1.0, 0.125, 0.375, 2.5, 3.5, -2.5, 0.5, 1.5, 0.05,
      0.0005, 123.456, 99.995, 9.9999996, 1e-5, 1e15, 1e22, 1e300, -1e300,
      inf, -inf, nan, -nan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::nextafter(0.125, 1.0), std::nextafter(2.5, 0.0), 1.0 / 3.0,
      2.0 / 3.0, 1234567.891011, 4.35, 0.045};
  for (int precision = 0; precision <= 6; ++precision) {
    for (const double value : corpus) {
      EXPECT_EQ(format_double(value, precision), streamed(value, precision))
          << "value " << std::hexfloat << value << " precision " << precision;
    }
  }
}

TEST(ScoresTable, OneRowPerSuite) {
  SuiteScores a, b;
  a.suite = "A";
  a.cluster = 0.1;
  a.trend = 2.0;
  b.suite = std::string("B");
  const Table t = scores_table({a, b});
  EXPECT_EQ(t.rows(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("A"), std::string::npos);
  EXPECT_NE(text.find("cluster(v)"), std::string::npos);
}

TEST(ScoreLegend, MentionsDirections) {
  const std::string legend = score_legend();
  EXPECT_NE(legend.find("lower"), std::string::npos);
  EXPECT_NE(legend.find("higher"), std::string::npos);
}

}  // namespace
}  // namespace perspector::core
