// CSV ingestion tests (src/ingest/ and the readers in core/io.cpp).
//
// The load-bearing guarantee is byte-identity with the reference readers
// in csv_oracle.hpp: the product readers must produce exactly the
// oracle's matrices and exactly its error messages, from in-memory text
// (one chunk) and from a file at every chunk size (including 1-byte
// chunks that split every CRLF and quoted cell across chunk boundaries,
// with the IO thread reading everything after the first chunk).
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/io.hpp"
#include "csv_oracle.hpp"
#include "ingest/csv_stream.hpp"
#include "ingest/name_index.hpp"
#include "ingest/number.hpp"

namespace perspector {
namespace {

using core::CounterMatrix;

// 1 byte shears every line, CRLF and quoted cell across a chunk boundary,
// 3 bytes also splits lines mid-cell with bytes on both sides of the cut;
// 1 MiB is the production chunk.
constexpr std::size_t kChunkSizes[] = {1, 3, 64, 4096, ingest::kChunkBytes};

std::vector<std::vector<std::string>> read_all_rows(ingest::CsvStream& stream) {
  std::vector<std::vector<std::string>> rows;
  while (stream.next_row()) {
    rows.emplace_back(stream.cells().begin(), stream.cells().end());
  }
  return rows;
}

std::vector<std::vector<std::string>> text_rows(const std::string& text) {
  ingest::CsvStream stream(text);
  return read_all_rows(stream);
}

std::vector<std::vector<std::string>> chunked_rows(const std::string& text,
                                                   std::size_t chunk) {
  std::istringstream in(text);
  ingest::CsvStream stream(in, chunk);
  return read_all_rows(stream);
}

TEST(CsvStream, SplitsCellsLikeTheSlurpReaderAtEveryChunkSize) {
  // Quoted commas, doubled quotes, CRLF endings, a blank interior line,
  // an interior CR, and a final line with no trailing newline.
  const std::string text =
      "workload,\"c,0\",c1\r\n"
      "\"w \"\"zero\"\"\",1.5,2\n"
      "\n"
      "cr\rin,side,\"q\"\r\n"
      "plain,3,4";
  const std::vector<std::vector<std::string>> expected = {
      {"workload", "c,0", "c1"},
      {"w \"zero\"", "1.5", "2"},
      {"crin", "side", "q"},
      {"plain", "3", "4"},
  };
  ASSERT_EQ(oracle::split_rows(text), expected);
  EXPECT_EQ(text_rows(text), expected);
  for (std::size_t chunk : kChunkSizes) {
    EXPECT_EQ(chunked_rows(text, chunk), expected) << "chunk=" << chunk;
  }
}

TEST(CsvStream, ReportsLineNumbersAndByteOffsets) {
  //           offset 0            12     19      26
  const std::string text = "h1,h2\r\nw0,1\nskip,2\nlast,3\n";
  const std::vector<std::pair<std::size_t, std::uint64_t>> expected = {
      {1, 0}, {2, 7}, {3, 12}, {4, 19}};
  const auto locations = [](ingest::CsvStream& stream) {
    std::vector<std::pair<std::size_t, std::uint64_t>> seen;
    while (stream.next_row()) {
      seen.emplace_back(stream.line_no(), stream.byte_offset());
    }
    return seen;
  };
  ingest::CsvStream text_stream(text);
  EXPECT_EQ(locations(text_stream), expected);
  std::istringstream in(text);
  ingest::CsvStream chunked(in, 1);  // every offset crosses a chunk
  EXPECT_EQ(locations(chunked), expected);
}

TEST(CsvStream, StripsBomOnlyOnLineOne) {
  const std::string text = "\xEF\xBB\xBFworkload,c0\nw0,1\n\xEF\xBB\xBFw1,2\n";
  EXPECT_EQ(text_rows(text)[0][0], "workload");
  for (std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    const auto rows = chunked_rows(text, chunk);
    ASSERT_EQ(rows.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(rows[0][0], "workload") << "chunk=" << chunk;
    EXPECT_EQ(rows[2][0], "\xEF\xBB\xBFw1") << "chunk=" << chunk;
  }
}

TEST(CsvStream, UnterminatedQuoteThrowsWithLocation) {
  const std::string text = "workload,c0\nw0,\"broken\n";
  ingest::CsvStream stream(text);
  ASSERT_TRUE(stream.next_row());
  try {
    stream.next_row();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CSV line 2 (byte 12): unterminated quote");
  }
}

TEST(CsvStream, CsvLocationFormat) {
  EXPECT_EQ(ingest::csv_location(7, 1234), "CSV line 7 (byte 1234)");
}

TEST(CsvStream, ScanCellsMatchesTheSlurpSplitter) {
  const char* lines[] = {
      "",         "a",          "a,b,,c,",      ",",          "a\r",
      "a,\"b\"\r", "\"x,y\",z", "\"q\"\"q\"",   "a\rb,c",     "\"\"",
      "\"a\"b",   "a\"b\"c",    "\"\r\",\"\r\"\r",
  };
  std::string escape;
  std::vector<std::string_view> cells;
  for (const char* line : lines) {
    ingest::scan_cells(line, 3, 9, escape, cells);
    EXPECT_EQ(std::vector<std::string>(cells.begin(), cells.end()),
              oracle::split_csv_line(line, 3, 9))
        << line;
  }
  EXPECT_THROW(ingest::scan_cells("a,\"b", 3, 9, escape, cells),
               std::runtime_error);
}

/// Live threads of this process (Linux /proc; nullopt elsewhere).
std::optional<std::size_t> live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  std::size_t n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) ++n;
  return n;
}

TEST(CsvStream, StartsTheIoThreadOnlyPastOneChunk) {
  const auto before = live_threads();
  if (!before) GTEST_SKIP() << "no /proc/self/task to count threads";
  const std::string small = "workload,c0\nw0,1\n";  // 17 bytes
  std::string large = "workload,c0\n";
  for (int w = 0; w < 100; ++w) {
    large += 'w';
    large += std::to_string(w);
    large += ",1\n";
  }
  {
    ingest::CsvStream text(large);
    ASSERT_TRUE(text.next_row());
    EXPECT_EQ(live_threads(), before) << "text source";
  }
  for (std::size_t chunk : {std::size_t{17}, std::size_t{64}}) {
    std::istringstream in(small);
    ingest::CsvStream stream(in, chunk);
    ASSERT_TRUE(stream.next_row());
    EXPECT_EQ(live_threads(), before) << "one chunk of " << chunk;
  }
  {
    // A 64-byte ring of 4 buffers cannot hold this input, so the IO
    // thread is still blocked on a free buffer when it is counted.
    std::istringstream in(large);
    ingest::CsvStream stream(in, 64);
    ASSERT_TRUE(stream.next_row());
    EXPECT_EQ(live_threads(), *before + 1) << "many chunks";
    auto rows = read_all_rows(stream);  // ... and resumes as buffers free
    rows.insert(rows.begin(), {"workload", "c0"});
    EXPECT_EQ(rows, oracle::split_rows(large));
  }
}

TEST(ColumnMap, RearrangesShuffledColumns) {
  const std::vector<std::string_view> header = {"workload", "b", "a", "c"};
  const std::vector<std::string> targets = {"a", "b", "c"};
  ingest::ColumnMap map(header, targets);
  EXPECT_EQ(map.source_cells(), 4u);
  std::vector<std::string_view> out;
  map.rearrange({"w0", "vb", "va", "vc"}, out);
  EXPECT_EQ(out, (std::vector<std::string_view>{"va", "vb", "vc"}));
}

TEST(ColumnMap, RejectsMissingDuplicateAndRaggedInput) {
  const std::vector<std::string> targets = {"a", "b"};
  EXPECT_THROW(ingest::ColumnMap({}, targets), std::invalid_argument);
  EXPECT_THROW(ingest::ColumnMap({"workload", "a"}, targets),
               std::invalid_argument);
  EXPECT_THROW(ingest::ColumnMap({"workload", "a", "b", "a"}, targets),
               std::invalid_argument);
  ingest::ColumnMap map({"workload", "a", "b"}, targets);
  std::vector<std::string_view> out;
  EXPECT_THROW(map.rearrange({"w0", "1"}, out), std::invalid_argument);
}

// ---- core readers vs the oracle -------------------------------------------

/// A read's matrix, or the text of what it threw.
struct Outcome {
  std::optional<CounterMatrix> matrix;
  std::string error;
};

template <typename Read>
Outcome outcome_of(Read read) {
  try {
    return {read(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// Field-wise identity (CounterMatrix has no operator==), series included.
void expect_identical(const CounterMatrix& a, const CounterMatrix& b,
                      const std::string& label) {
  EXPECT_EQ(a.suite_name(), b.suite_name()) << label;
  EXPECT_EQ(a.workload_names(), b.workload_names()) << label;
  EXPECT_EQ(a.counter_names(), b.counter_names()) << label;
  EXPECT_TRUE(a.values() == b.values()) << label;
  ASSERT_EQ(a.has_series(), b.has_series()) << label;
  if (!a.has_series()) return;
  for (std::size_t w = 0; w < a.num_workloads(); ++w) {
    for (std::size_t c = 0; c < a.num_counters(); ++c) {
      EXPECT_EQ(a.series(w, c), b.series(w, c)) << label;
    }
  }
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& label) {
  EXPECT_EQ(got.error, want.error) << label;
  ASSERT_EQ(got.matrix.has_value(), want.matrix.has_value()) << label;
  if (got.matrix) expect_identical(*got.matrix, *want.matrix, label);
}

// Aggregate inputs: the interchange hardening cases (BOM, CRLF, quoting,
// no final newline, hard numbers for the fast path) and every rejection.
const std::vector<std::pair<std::string, std::string>>& aggregate_cases() {
  static const std::vector<std::pair<std::string, std::string>> cases = {
      {"mix",
       "\xEF\xBB\xBFworkload,\"c,0\",c1\r\n"
       "\"w \"\"q\"\"\",1.5,-2e-3\r\n"
       "\n"
       "plain,0.25,17\n"
       "hard,9007199254740993,1.7976931348623157e308\n"
       "last,3,4"},
      {"ragged", "workload,c0,c1\nw0,1\n"},
      {"nonnum", "workload,c0\nw0,abc\n"},
      {"nonfinite", "workload,c0\nw0,1\nw1,inf\n"},
      {"dup", "workload,c0\nw0,1\nw0,2\n"},
      {"badheader", "nope,c0\nw0,1\n"},
      {"blankheader", "\nworkload,c0\nw0,1\n"},
      {"crline", "workload,c0\nw0,1\n\r\n"},
      {"headeronly", "workload,c0\n"},
      {"quote", "workload,c0\nw0,\"1\n"},
      {"empty", ""},
  };
  return cases;
}

// Series inputs over the aggregates "workload,c0,c1\nw0,1,2\nw1,3,4\n".
const std::vector<std::pair<std::string, std::string>>& series_cases() {
  static const std::vector<std::pair<std::string, std::string>> cases = {
      {"good",
       "\xEF\xBB\xBFworkload,counter,sample,value\r\n"
       "w0,c0,0,1\r\nw0,c1,0,2.5\nw1,c0,0,3\n\nw1,c1,0,4\nw0,c0,1,0.1"},
      {"unknownworkload", "workload,counter,sample,value\nzz,c0,0,1\n"},
      {"unknowncounter", "workload,counter,sample,value\nw0,cX,0,1\n"},
      {"nondense", "workload,counter,sample,value\nw0,c0,1,1\n"},
      {"badindex", "workload,counter,sample,value\nw0,c0,-1,1\n"},
      {"nonfinite", "workload,counter,sample,value\nw0,c0,0,nan\n"},
      {"threecells", "workload,counter,sample,value\nw0,c0,0\n"},
      {"coverage", "workload,counter,sample,value\nw0,c0,0,1\n"},
      {"badheader", "workload,counter,index,value\n"},
      {"empty", ""},
  };
  return cases;
}

constexpr const char* kSeriesBase = "workload,c0,c1\nw0,1,2\nw1,3,4\n";

class StreamedReadTest : public ::testing::Test {
 protected:
  // Files are named per test: ctest runs the cases of this fixture as
  // parallel processes over one temp directory.
  std::string make(const std::string& name, const std::string& content) {
    const std::string p =
        ::testing::TempDir() + "/perspector_ingest_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + name;
    std::ofstream out(p, std::ios::binary);
    out << content;
    out.close();
    created_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::vector<std::string> created_;
};

TEST_F(StreamedReadTest, MatchesSlurpAtEveryChunkSize) {
  // Text source and file source at every chunk size against the oracle,
  // under one origin so whole-input errors compare byte for byte too.
  for (const auto& [name, content] : aggregate_cases()) {
    const std::string p = make(name + ".csv", content);
    const Outcome want = outcome_of([&] {
      std::istringstream in(content);
      return oracle::read_aggregates("s", in, p);
    });
    expect_same(outcome_of([&] {
                  ingest::CsvStream rows(content);
                  return core::read_aggregates_rows("s", rows, p);
                }),
                want, name + " text");
    for (std::size_t chunk : kChunkSizes) {
      expect_same(outcome_of([&] {
                    std::ifstream in(p, std::ios::binary);
                    ingest::CsvStream rows(in, chunk);
                    return core::read_aggregates_rows("s", rows, p);
                  }),
                  want, name + " chunk=" + std::to_string(chunk));
    }
  }
  const CounterMatrix base = core::read_aggregates_csv_text("s", kSeriesBase);
  for (const auto& [name, content] : series_cases()) {
    const std::string p = make("series_" + name + ".csv", content);
    const Outcome want = outcome_of([&] {
      std::istringstream in(content);
      return oracle::attach_series(base, in, p);
    });
    expect_same(outcome_of([&] {
                  ingest::CsvStream rows(content);
                  return core::attach_series_rows(base, rows, p);
                }),
                want, "series " + name + " text");
    for (std::size_t chunk : kChunkSizes) {
      expect_same(outcome_of([&] {
                    std::ifstream in(p, std::ios::binary);
                    ingest::CsvStream rows(in, chunk);
                    return core::attach_series_rows(base, rows, p);
                  }),
                  want, "series " + name + " chunk=" + std::to_string(chunk));
    }
  }
}

TEST_F(StreamedReadTest, ErrorMessagesMatchSlurpByteForByte) {
  // The public entry points, each against its oracle twin.
  std::size_t errors = 0;
  for (const auto& [name, content] : aggregate_cases()) {
    const std::string p = make(name + ".csv", content);
    const Outcome file = outcome_of([&] {
      return core::read_aggregates_csv("s", p);
    });
    expect_same(file, outcome_of([&] {
                  return oracle::read_aggregates_csv("s", p);
                }),
                name + " file");
    expect_same(outcome_of([&] {
                  return core::read_aggregates_csv_text("s", content);
                }),
                outcome_of([&] {
                  return oracle::read_aggregates_csv_text("s", content);
                }),
                name + " text");
    if (!file.error.empty()) ++errors;
  }
  const std::string agg = make("series_base.csv", kSeriesBase);
  for (const auto& [name, content] : series_cases()) {
    const std::string p = make("series_" + name + ".csv", content);
    const Outcome file = outcome_of([&] {
      return core::read_with_series_csv("s", agg, p);
    });
    expect_same(file, outcome_of([&] {
                  return oracle::read_with_series_csv("s", agg, p);
                }),
                "series " + name + " file");
    expect_same(outcome_of([&] {
                  return core::read_with_series_csv_text("s", kSeriesBase,
                                                         content);
                }),
                outcome_of([&] {
                  return oracle::read_with_series_csv_text("s", kSeriesBase,
                                                           content);
                }),
                "series " + name + " text");
    if (!file.error.empty()) ++errors;
  }
  EXPECT_EQ(errors, aggregate_cases().size() + series_cases().size() - 2);
  const std::string missing = ::testing::TempDir() + "/perspector_no_such.csv";
  expect_same(outcome_of([&] {
                return core::read_aggregates_csv("s", missing);
              }),
              outcome_of([&] {
                return oracle::read_aggregates_csv("s", missing);
              }),
              "missing file");
}

TEST_F(StreamedReadTest, ErrorsCarryByteOffsets) {
  // "workload,c0\n" is 12 bytes; the bad row starts at byte 12.
  const std::string p = make("offset.csv", "workload,c0\nw0,nan\n");
  try {
    core::read_aggregates_csv("s", p);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CSV line 2 (byte 12)"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(StreamedReadTest, FileAndTextReadsAgree) {
  const std::string agg_text = "workload,c0,c1\r\nw0,1.25,2\nw1,2.5,0.1\n";
  const std::string series_text =
      "workload,counter,sample,value\nw0,c0,0,1\nw0,c1,0,2\n"
      "w1,c0,0,3\nw1,c1,0,4\nw1,c1,1,5\n";
  const std::string agg = make("small.csv", agg_text);
  const std::string ser = make("small_series.csv", series_text);
  expect_identical(core::read_aggregates_csv("s", agg),
                   core::read_aggregates_csv_text("s", agg_text),
                   "aggregates");
  expect_identical(core::read_with_series_csv("s", agg, ser),
                   core::read_with_series_csv_text("s", agg_text, series_text),
                   "series");
}

TEST_F(StreamedReadTest, FileLongerThanOneChunkMatchesOneChunkRead) {
  // ~1.5 MiB: the file reader reads the first 1 MiB chunk inline and the
  // rest on the IO thread; the text reader sees one chunk.
  std::string text = "workload,c0,c1,c2\n";
  for (std::size_t w = 0; text.size() < ingest::kChunkBytes * 3 / 2; ++w) {
    const std::string n = std::to_string(w);
    text += "\"workload," + n + "\"," + n + ".125,-" +
            std::to_string(w * 7 % 1000) + "e-3," + std::to_string(w * 31) +
            "\r\n";
  }
  const std::string p = make("large.csv", text);
  const CounterMatrix file = core::read_aggregates_csv("s", p);
  ASSERT_GT(file.num_workloads(), 20000u);
  expect_identical(file, core::read_aggregates_csv_text("s", text), "text");
  std::ifstream in(p, std::ios::binary);
  ingest::CsvStream one_chunk(in, text.size());
  expect_identical(file, core::read_aggregates_rows("s", one_chunk, "s"),
                   "one chunk");
  expect_identical(file, oracle::read_aggregates_csv("s", p), "oracle");
}

TEST_F(StreamedReadTest, FileSeriesUnknownNameReportsLocation) {
  const std::string agg = make("loc_agg.csv", "workload,c0\nw0,1\n");
  const std::string ser =
      make("loc_ser.csv", "workload,counter,sample,value\nw0,cX,0,1\n");
  try {
    core::read_with_series_csv("s", agg, ser);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "CSV line 2 (byte 30): CounterMatrix: unknown counter 'cX'");
  }
}

TEST(SeriesText, UnknownNameReportsLocation) {
  // The inline-CSV path of load_suite and score requests.
  try {
    core::read_with_series_csv_text(
        "s", "workload,c0\nw0,1\n",
        "workload,counter,sample,value\nw0,c0,0,1\nzz,c0,0,1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "CSV line 3 (byte 40): CounterMatrix: unknown workload 'zz'");
  }
}

// ---- delta ingestion helpers ----------------------------------------------

CounterMatrix series_suite() {
  la::Matrix values{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<std::vector<std::vector<double>>> series{
      {{1.0, 0.5}, {2.0, 1.0}},
      {{3.0, 1.5}, {4.0, 2.0}},
      {{5.0, 2.5}, {6.0, 3.0}},
  };
  return CounterMatrix("delta", {"w0", "w1", "w2"}, {"c0", "c1"}, values,
                       series);
}

TEST(AppendWorkloads, RearrangesShuffledPayloadColumns) {
  const CounterMatrix base = series_suite();
  // Payload header lists the counters in reverse order; ColumnMap must
  // permute them back into the base layout.
  const CounterMatrix grown = core::append_workloads_csv_text(
      base, "workload,c1,c0\nw3,8,7\n",
      "workload,counter,sample,value\nw3,c0,0,7\nw3,c1,0,8\n");
  ASSERT_EQ(grown.num_workloads(), 4u);
  EXPECT_EQ(grown.workload_names()[3], "w3");
  EXPECT_DOUBLE_EQ(grown.value(3, 0), 7.0);
  EXPECT_DOUBLE_EQ(grown.value(3, 1), 8.0);
  EXPECT_EQ(grown.series(3, 0), (std::vector<double>{7.0}));
}

TEST(AppendWorkloads, SeriesUnknownNameReportsLocation) {
  // The series payload may name only the new workloads.
  try {
    core::append_workloads_csv_text(
        series_suite(), "workload,c0,c1\nw3,1,2\n",
        "workload,counter,sample,value\nw3,c0,0,1\nw0,c1,0,2\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "CSV line 3 (byte 40): CounterMatrix: unknown workload 'w0'");
  }
}

TEST(AppendSamples, ReportsTouchedWorkloadRows) {
  const CounterMatrix base = series_suite();
  std::vector<std::size_t> touched;
  const CounterMatrix grown = core::append_samples_csv_text(
      base,
      "workload,counter,sample,value\n"
      "w2,c0,2,9\n"
      "w0,c1,2,8\n"
      "w2,c0,3,10\n",
      &touched);
  // Sorted and deduped: w2 gained two samples but appears once.
  EXPECT_EQ(touched, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(grown.series(2, 0), (std::vector<double>{5.0, 2.5, 9.0, 10.0}));
  EXPECT_EQ(grown.series(0, 1), (std::vector<double>{2.0, 1.0, 8.0}));
  // Untouched series and all aggregates are unchanged.
  EXPECT_EQ(grown.series(1, 0), base.series(1, 0));
  EXPECT_TRUE(grown.values() == base.values());
}

TEST(AppendSamples, RejectsNonDenseContinuation) {
  const CounterMatrix base = series_suite();
  // w0/c0 currently has 2 samples; index 5 is a gap.
  EXPECT_THROW(core::append_samples_csv_text(
                   base, "workload,counter,sample,value\nw0,c0,5,1\n"),
               std::runtime_error);
}

TEST(AppendSamples, UnknownNameReportsLocation) {
  try {
    core::append_samples_csv_text(
        series_suite(),
        "workload,counter,sample,value\nw0,c0,2,1\nw0,zz,0,1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "CSV line 3 (byte 40): CounterMatrix: unknown counter 'zz'");
  }
}

/// Every sample of `data`, bit for bit, in (workload, counter) order.
std::vector<std::uint64_t> sample_bits(const CounterMatrix& data) {
  std::vector<std::uint64_t> out;
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      for (double v : data.series(w, c)) {
        out.push_back(std::bit_cast<std::uint64_t>(v));
      }
    }
  }
  return out;
}

TEST(AppendSamples, LeavesTheSnapshotAndSharesUntouchedSeries) {
  const CounterMatrix base = series_suite();
  const std::vector<std::uint64_t> before = sample_bits(base);
  const CounterMatrix grown = core::append_samples_csv_text(
      base, "workload,counter,sample,value\nw1,c0,2,-0\n");

  // The earlier snapshot is bit-unchanged.
  EXPECT_EQ(sample_bits(base), before);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(grown.series(1, 0).back()),
            std::bit_cast<std::uint64_t>(-0.0));
  // Only the extended series got new storage; the others are the base's.
  for (std::size_t w = 0; w < base.num_workloads(); ++w) {
    for (std::size_t c = 0; c < base.num_counters(); ++c) {
      const bool touched = w == 1 && c == 0;
      EXPECT_EQ(grown.series(w, c).data() == base.series(w, c).data(),
                !touched)
          << "w" << w << " c" << c;
    }
  }
}

TEST(AppendWorkloads, SharesTheBaseSeriesStorage) {
  const CounterMatrix base = series_suite();
  const std::vector<std::uint64_t> before = sample_bits(base);
  const CounterMatrix grown = core::append_workloads_csv_text(
      base, "workload,c0,c1\nw3,7,8\n",
      "workload,counter,sample,value\nw3,c0,0,7\nw3,c1,0,8\n");
  EXPECT_EQ(sample_bits(base), before);
  for (std::size_t w = 0; w < base.num_workloads(); ++w) {
    for (std::size_t c = 0; c < base.num_counters(); ++c) {
      EXPECT_EQ(grown.series(w, c).data(), base.series(w, c).data());
    }
  }
}

TEST(PerfStatComments, UnbalancedQuoteInACommentIsSkipped) {
  // '#' lines are skipped before their cells are split, so a stray quote
  // in a comment never reaches the cell scanner.
  const auto records = core::parse_perf_stat(
      "# started on \"Tue\n123,,cpu-cycles,1,100.00\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event, "cpu-cycles");
  const auto data = core::parse_perf_stat_intervals(
      "# time,counts,\"unit\n1.0,5,,a,1\n1.0,6,,b,1\n2.0,7,,a,1\n"
      "2.0,8,,b,1\n");
  EXPECT_EQ(data.events, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(data.series[0], (std::vector<double>{5.0, 7.0}));
}

TEST(ParseNumber, FastPathIsBitIdenticalToFromChars) {
  // Cells the fast path accepts must carry exactly the bits from_chars
  // would produce — the streamed reader's byte-identity hinges on it.
  const char* cells[] = {
      "0",       "-0",        "0.0",     "-0.0",     "1",
      "42",      "123456789.012",        "0.000123", "00123.450",
      "1e22",    "1e-22",     "5e+3",    "-2.5e-3",  "9.5E2",
      "9007199254740991",     "1023.75", "0.1",      "-0.3",
      "3.14159", "250000000.001",
  };
  for (const char* cell : cells) {
    const std::string_view view(cell);
    double fast = 0.0;
    ASSERT_TRUE(ingest::parse_number(view, fast)) << cell;
    double general = 0.0;
    const auto [ptr, ec] =
        std::from_chars(view.data(), view.data() + view.size(), general);
    ASSERT_EQ(ec, std::errc{}) << cell;
    ASSERT_EQ(ptr, view.data() + view.size()) << cell;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast),
              std::bit_cast<std::uint64_t>(general))
        << cell;
  }
}

TEST(ParseNumber, DefersEverythingElseToTheFallback) {
  // Malformed cells AND correct-but-hard cells (long significands,
  // extreme exponents, bare decimal points, nan/inf) must return false
  // so from_chars keeps sole authority over accept/reject and rounding.
  const char* cells[] = {
      "",     "-",     ".",    "1.",     "1.e5",  "abc", "1,2",
      " 1",   "1 ",    "+1",   "nan",    "inf",   "e5",  "1e",
      "1e+",  "9007199254740993",        "1e23",  "1e-23",
      "1.7976931348623157e308",          "2.2250738585072014e-308",
  };
  for (const char* cell : cells) {
    double value = 0.0;
    EXPECT_FALSE(ingest::parse_number(std::string_view(cell), value)) << cell;
  }
}

TEST(NameIndex, DetectsDuplicatesWhileGrowingFromATinyHint) {
  // Hint of 1 forces several grow() rehashes along the way.
  ingest::NameIndex index(1);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 5000; ++i) {
    names.push_back("workload-" + std::to_string(i));
    ASSERT_EQ(index.insert(names.back(), i, names), ingest::NameIndex::npos)
        << names.back();
  }
  // Every re-insert reports the original row, none a false duplicate.
  EXPECT_EQ(index.insert("workload-0", 5000, names), 0u);
  EXPECT_EQ(index.insert("workload-2500", 5000, names), 2500u);
  EXPECT_EQ(index.insert("workload-4999", 5000, names), 4999u);
  names.push_back("workload-5000");
  EXPECT_EQ(index.insert(names.back(), 5000, names), ingest::NameIndex::npos);

  // find answers the same rows without inserting.
  EXPECT_EQ(index.find("workload-0", names), 0u);
  EXPECT_EQ(index.find("workload-4321", names), 4321u);
  EXPECT_EQ(index.find("workload-5000", names), 5000u);
  EXPECT_EQ(index.find("workload-5001", names), ingest::NameIndex::npos);
  EXPECT_EQ(index.find("", names), ingest::NameIndex::npos);
}

}  // namespace
}  // namespace perspector
