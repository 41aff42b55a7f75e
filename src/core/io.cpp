#include "core/io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "ingest/csv_stream.hpp"
#include "ingest/name_index.hpp"
#include "ingest/number.hpp"

namespace perspector::core {

namespace {

using ingest::csv_location;

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

/// The one cell -> double conversion of every reader: the ingest fast
/// path covers short plain decimals with a correctly-rounded (bit-identical
/// to from_chars) multiply, and everything it declines — long
/// significands, extreme exponents, nan/inf, malformed cells — re-parses
/// through from_chars, which alone decides what is rejected.
double parse_double(std::string_view cell, std::size_t line_no,
                    std::uint64_t byte_offset) {
  double value = 0.0;
  if (ingest::parse_number(cell, value)) return value;
  const char* first = cell.data();
  const char* last = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": expected a number, got '" +
                             std::string(cell) + "'");
  }
  // from_chars happily parses "nan"/"inf"/"infinity"; every score is
  // undefined over non-finite counters, so reject them at the boundary
  // instead of letting them poison normalization silently.
  if (!std::isfinite(value)) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": non-finite value '" + std::string(cell) +
                             "' is not allowed");
  }
  return value;
}

std::size_t parse_index(std::string_view cell, std::size_t line_no,
                        std::uint64_t byte_offset) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": expected an index, got '" + std::string(cell) +
                             "'");
  }
  return value;
}

std::ofstream open_for_write(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  return out;
}

std::ifstream open_for_read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  return in;
}

}  // namespace

void write_aggregates_csv(const CounterMatrix& data, const std::string& path) {
  auto out = open_for_write(path);
  out << "workload";
  for (const auto& counter : data.counter_names()) {
    out << ',' << csv_escape(counter);
  }
  out << '\n';
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    out << csv_escape(data.workload_names()[w]);
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      out << ',' << data.value(w, c);
    }
    out << '\n';
  }
  if (!out) throw std::runtime_error("write failed for '" + path + "'");
}

void write_series_csv(const CounterMatrix& data, const std::string& path) {
  if (!data.has_series()) {
    throw std::logic_error("write_series_csv: matrix carries no series");
  }
  auto out = open_for_write(path);
  out << "workload,counter,sample,value\n";
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      const auto& series = data.series(w, c);
      for (std::size_t s = 0; s < series.size(); ++s) {
        out << csv_escape(data.workload_names()[w]) << ','
            << csv_escape(data.counter_names()[c]) << ',' << s << ','
            << series[s] << '\n';
      }
    }
  }
  if (!out) throw std::runtime_error("write failed for '" + path + "'");
}

namespace {

// %.17g: enough digits that parsing the text recovers the exact double,
// so a matrix forwarded as CSV between processes round-trips bit-exactly.
void append_exact_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

std::string write_aggregates_csv_text(const CounterMatrix& data) {
  std::string out = "workload";
  for (const auto& counter : data.counter_names()) {
    out += ',';
    out += csv_escape(counter);
  }
  out += '\n';
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    out += csv_escape(data.workload_names()[w]);
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      out += ',';
      append_exact_double(out, data.value(w, c));
    }
    out += '\n';
  }
  return out;
}

std::string write_series_csv_text(const CounterMatrix& data) {
  if (!data.has_series()) {
    throw std::logic_error("write_series_csv_text: matrix carries no series");
  }
  std::string out = "workload,counter,sample,value\n";
  for (std::size_t w = 0; w < data.num_workloads(); ++w) {
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      const auto& series = data.series(w, c);
      for (std::size_t s = 0; s < series.size(); ++s) {
        out += csv_escape(data.workload_names()[w]);
        out += ',';
        out += csv_escape(data.counter_names()[c]);
        out += ',';
        out += std::to_string(s);
        out += ',';
        append_exact_double(out, series[s]);
        out += '\n';
      }
    }
  }
  return out;
}

namespace {

using Series = std::vector<std::vector<std::vector<double>>>;

/// Reads the data rows after an aggregate header onto `workloads` and
/// `values`. Each row carries a workload name not yet in `seen` (which
/// indexes `workloads`) and `counters` values, taken in `map`'s column
/// order when one is given.
void append_aggregate_rows(ingest::CsvStream& rows, std::size_t counters,
                           const ingest::ColumnMap* map,
                           ingest::NameIndex& seen,
                           std::vector<std::string>& workloads,
                           la::Matrix& values) {
  std::vector<std::string_view> rearranged;
  std::vector<double> row(counters);
  bool reserved = false;
  while (rows.next_row()) {
    const auto& cells = rows.cells();
    if (cells.size() != counters + 1) {
      throw std::runtime_error(rows.location() + ": expected " +
                               std::to_string(counters + 1) + " cells, got " +
                               std::to_string(cells.size()));
    }
    if (!reserved) {
      // Capacities estimated from the input size and the first row's
      // width, so a multi-million-row file pays no regrow or rehash.
      reserved = true;
      std::size_t line_bytes = cells.size();  // separators + newline
      for (const auto& cell : cells) line_bytes += cell.size();
      const std::size_t estimate =
          static_cast<std::size_t>(rows.size_hint() / line_bytes) + 16;
      workloads.reserve(workloads.size() + estimate);
      values.reserve(values.rows() + estimate, counters);
      seen.reserve(workloads.size() + estimate);
    }
    if (seen.insert(cells[0], workloads.size(), workloads) !=
        ingest::NameIndex::npos) {
      throw std::runtime_error(rows.location() + ": duplicate workload '" +
                               std::string(cells[0]) + "'");
    }
    workloads.emplace_back(cells[0]);
    const std::string_view* value_cells = cells.data() + 1;
    if (map != nullptr) {
      map->rearrange(cells, rearranged);
      value_cells = rearranged.data();
    }
    for (std::size_t c = 0; c < counters; ++c) {
      row[c] = parse_double(value_cells[c], rows.line_no(), rows.byte_offset());
    }
    values.append_row(row);
  }
}

/// Reads a long-format series CSV from `rows` onto `series`, indexed by
/// the workloads and counters of `names`; each sample must continue its
/// (workload, counter) series densely — after the samples `names` already
/// holds when `continues` is set, from 0 otherwise. Returns the number of
/// data rows and marks the workload of each in `touched` when given.
std::size_t read_series_rows(ingest::CsvStream& rows,
                             const std::string& origin,
                             const CounterMatrix& names, Series& series,
                             std::vector<bool>* touched, bool continues) {
  const bool header_ok = rows.next_row() && rows.cells().size() == 4 &&
                         rows.cells()[0] == "workload" &&
                         rows.cells()[1] == "counter" &&
                         rows.cells()[2] == "sample" &&
                         rows.cells()[3] == "value";
  if (!header_ok) {
    throw std::runtime_error(
        "'" + origin + "': header must be 'workload,counter,sample,value'");
  }
  // Hashed name lookups: a linear search per row made a series read
  // O(rows x workloads). A miss re-asks the matrix, which throws the error.
  const auto index = [](const std::vector<std::string>& list) {
    ingest::NameIndex by_name(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      by_name.insert(list[i], i, list);
    }
    return by_name;
  };
  const ingest::NameIndex workloads = index(names.workload_names());
  const ingest::NameIndex counters = index(names.counter_names());
  std::size_t count = 0;
  while (rows.next_row()) {
    const auto& cells = rows.cells();
    if (cells.size() != 4) {
      throw std::runtime_error(rows.location() + ": expected 4 cells");
    }
    std::size_t w = 0;
    std::size_t c = 0;
    try {
      w = workloads.find(cells[0], names.workload_names());
      if (w == ingest::NameIndex::npos) {
        w = names.workload_index(std::string(cells[0]));
      }
      c = counters.find(cells[1], names.counter_names());
      if (c == ingest::NameIndex::npos) {
        c = names.counter_index(std::string(cells[1]));
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(rows.location() + ": " + e.what());
    }
    const std::size_t s =
        parse_index(cells[2], rows.line_no(), rows.byte_offset());
    auto& target = series[w][c];
    const std::size_t expected =
        (continues ? names.series(w, c).size() : 0) + target.size();
    if (s != expected) {
      throw std::runtime_error(
          rows.location() + ": sample indices must be dense from 0 (expected " +
          std::to_string(expected) + ", got " + std::to_string(s) + ")");
    }
    target.push_back(
        parse_double(cells[3], rows.line_no(), rows.byte_offset()));
    if (touched != nullptr) (*touched)[w] = true;
    ++count;
  }
  return count;
}

}  // namespace

CounterMatrix read_aggregates_rows(const std::string& suite_name,
                                   ingest::CsvStream& rows,
                                   const std::string& origin) {
  if (!rows.next_row()) {
    throw std::runtime_error("'" + origin + "': empty file");
  }
  const auto& header = rows.cells();
  if (header.size() < 2 || header[0] != "workload") {
    throw std::runtime_error(
        "'" + origin + "': header must be 'workload,<counter>,...'");
  }
  std::vector<std::string> counters(header.begin() + 1, header.end());
  std::vector<std::string> workloads;
  la::Matrix values;
  ingest::NameIndex seen;
  append_aggregate_rows(rows, counters.size(), nullptr, seen, workloads,
                        values);
  if (workloads.empty()) {
    throw std::runtime_error("'" + origin + "': no data rows");
  }
  return CounterMatrix(suite_name, std::move(workloads), std::move(counters),
                       std::move(values));
}

CounterMatrix attach_series_rows(const CounterMatrix& aggregates,
                                 ingest::CsvStream& rows,
                                 const std::string& origin) {
  Series series(aggregates.num_workloads(),
                std::vector<std::vector<double>>(aggregates.num_counters()));
  read_series_rows(rows, origin, aggregates, series, nullptr, false);
  for (std::size_t w = 0; w < aggregates.num_workloads(); ++w) {
    for (std::size_t c = 0; c < aggregates.num_counters(); ++c) {
      if (series[w][c].empty()) {
        throw std::runtime_error(
            "'" + origin + "': no samples for workload '" +
            aggregates.workload_names()[w] + "' counter '" +
            aggregates.counter_names()[c] + "'");
      }
    }
  }
  return CounterMatrix(aggregates.suite_name(), aggregates.workload_names(),
                       aggregates.counter_names(), aggregates.values(),
                       std::move(series));
}

CounterMatrix read_aggregates_csv(const std::string& suite_name,
                                  const std::string& path) {
  auto in = open_for_read(path);
  ingest::CsvStream rows(in);
  return read_aggregates_rows(suite_name, rows, path);
}

CounterMatrix read_aggregates_csv_text(const std::string& suite_name,
                                       const std::string& csv_text) {
  ingest::CsvStream rows(csv_text);
  return read_aggregates_rows(suite_name, rows, "<inline csv>");
}

CounterMatrix read_with_series_csv(const std::string& suite_name,
                                   const std::string& aggregates_path,
                                   const std::string& series_path) {
  const CounterMatrix bare = read_aggregates_csv(suite_name, aggregates_path);
  auto in = open_for_read(series_path);
  ingest::CsvStream rows(in);
  return attach_series_rows(bare, rows, series_path);
}

CounterMatrix read_with_series_csv_text(const std::string& suite_name,
                                        const std::string& aggregates_text,
                                        const std::string& series_text) {
  const CounterMatrix bare =
      read_aggregates_csv_text(suite_name, aggregates_text);
  ingest::CsvStream rows(series_text);
  return attach_series_rows(bare, rows, "<inline series csv>");
}

CounterMatrix append_workloads_csv_text(const CounterMatrix& base,
                                        const std::string& aggregates_text,
                                        const std::string& series_text) {
  ingest::CsvStream rows(aggregates_text);
  if (!rows.next_row()) {
    throw std::runtime_error("'<delta aggregates csv>': empty file");
  }
  const auto& header = rows.cells();
  if (header.size() != base.num_counters() + 1 || header[0] != "workload") {
    throw std::runtime_error(
        "'<delta aggregates csv>': header must name 'workload' and exactly "
        "the base suite's counters");
  }
  // With the size pinned above, a successful map means the header is a
  // permutation of the base counters (ColumnMap throws on missing or
  // duplicated columns).
  const ingest::ColumnMap map(header, base.counter_names());

  const std::size_t first_added = base.num_workloads();
  std::vector<std::string> workloads = base.workload_names();
  ingest::NameIndex seen(first_added);
  for (std::size_t w = 0; w < first_added; ++w) {
    seen.insert(workloads[w], w, workloads);
  }
  la::Matrix added_values;
  append_aggregate_rows(rows, base.num_counters(), &map, seen, workloads,
                        added_values);
  if (workloads.size() == first_added) {
    throw std::runtime_error("'<delta aggregates csv>': no data rows");
  }
  la::Matrix values = base.values().vconcat(added_values);

  if (!base.has_series()) {
    if (!series_text.empty()) {
      throw std::logic_error(
          "append_workloads_csv_text: base has no series but series_text "
          "was supplied");
    }
    return CounterMatrix(base.suite_name(), std::move(workloads),
                         base.counter_names(), std::move(values));
  }

  // The series payload must cover exactly the new workloads; validating it
  // against a bare matrix of only those rows reuses the reader's dense-index
  // and full-coverage checks verbatim (a row naming a pre-existing workload
  // fails its workload lookup).
  const CounterMatrix delta(
      base.suite_name(),
      std::vector<std::string>(workloads.begin() + first_added,
                               workloads.end()),
      base.counter_names(), std::move(added_values));
  ingest::CsvStream series_rows(series_text);
  const CounterMatrix with_series =
      attach_series_rows(delta, series_rows, "<delta series csv>");

  // The base rows keep pointing at the base's series storage.
  std::vector<std::vector<CounterMatrix::SeriesPtr>> series;
  series.reserve(workloads.size());
  for (const CounterMatrix* part : {&base, &with_series}) {
    for (std::size_t w = 0; w < part->num_workloads(); ++w) {
      std::vector<CounterMatrix::SeriesPtr> row_series;
      row_series.reserve(base.num_counters());
      for (std::size_t c = 0; c < base.num_counters(); ++c) {
        row_series.push_back(part->series_ptr(w, c));
      }
      series.push_back(std::move(row_series));
    }
  }
  return CounterMatrix::with_shared_series(
      base.suite_name(), std::move(workloads), base.counter_names(),
      std::move(values), std::move(series));
}

CounterMatrix append_samples_csv_text(
    const CounterMatrix& base, const std::string& series_text,
    std::vector<std::size_t>* touched_workloads) {
  if (!base.has_series()) {
    throw std::logic_error(
        "append_samples_csv_text: base matrix carries no series");
  }
  // Only the appended samples are parsed, into `tail`; a series that gains
  // none keeps pointing at the base's storage, so an append copies just
  // the series it extends.
  const std::size_t n = base.num_workloads();
  const std::size_t m = base.num_counters();
  Series tail(n, std::vector<std::vector<double>>(m));
  ingest::CsvStream rows(series_text);
  std::vector<bool> touched(n, false);
  if (read_series_rows(rows, "<delta series csv>", base, tail, &touched,
                       true) == 0) {
    throw std::runtime_error("'<delta series csv>': no data rows");
  }
  if (touched_workloads != nullptr) {
    touched_workloads->clear();
    for (std::size_t w = 0; w < n; ++w) {
      if (touched[w]) touched_workloads->push_back(w);
    }
  }
  std::vector<std::vector<CounterMatrix::SeriesPtr>> series(n);
  for (std::size_t w = 0; w < n; ++w) {
    series[w].reserve(m);
    for (std::size_t c = 0; c < m; ++c) {
      const CounterMatrix::SeriesPtr& old = base.series_ptr(w, c);
      const std::vector<double>& added = tail[w][c];
      if (added.empty()) {
        series[w].push_back(old);
        continue;
      }
      auto grown = std::make_shared<std::vector<double>>();
      grown->reserve(old->size() + added.size());
      grown->insert(grown->end(), old->begin(), old->end());
      grown->insert(grown->end(), added.begin(), added.end());
      series[w].push_back(std::move(grown));
    }
  }
  return CounterMatrix::with_shared_series(
      base.suite_name(), base.workload_names(), base.counter_names(),
      base.values(), std::move(series));
}

std::vector<PerfStatRecord> parse_perf_stat(const std::string& text) {
  std::vector<PerfStatRecord> records;
  std::istringstream in(text);
  std::string line;
  std::string escape;
  std::vector<std::string_view> cells;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;
  std::uint64_t consumed = 0;
  while (std::getline(in, line)) {
    ++line_no;
    offset = consumed;
    consumed += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    ingest::scan_cells(line, line_no, offset, escape, cells);
    if (cells.size() < 3) {
      throw std::runtime_error("perf-stat line " + std::to_string(line_no) +
                               ": expected at least 3 fields");
    }
    PerfStatRecord record;
    record.event = std::string(cells[2]);
    if (record.event.empty()) {
      throw std::runtime_error("perf-stat line " + std::to_string(line_no) +
                               ": empty event name");
    }
    if (cells[0] == "<not counted>" || cells[0] == "<not supported>") {
      record.counted = false;
    } else {
      record.value = parse_double(cells[0], line_no, offset);
    }
    if (cells.size() >= 5 && !cells[4].empty()) {
      record.pct_running = parse_double(cells[4], line_no, offset);
    }
    records.push_back(std::move(record));
  }
  return records;
}

CounterMatrix counter_matrix_from_perf_stat(
    const std::string& suite_name,
    const std::vector<std::pair<std::string, std::string>>&
        workload_outputs) {
  if (workload_outputs.empty()) {
    throw std::invalid_argument(
        "counter_matrix_from_perf_stat: no workloads");
  }

  std::vector<std::string> counters;
  std::vector<std::string> workloads;
  la::Matrix values;
  for (const auto& [workload, text] : workload_outputs) {
    const auto records = parse_perf_stat(text);
    if (records.empty()) {
      throw std::runtime_error("perf-stat output for workload '" + workload +
                               "' contains no events");
    }
    std::vector<std::string> events;
    std::vector<double> row;
    for (const auto& record : records) {
      if (!record.counted) {
        throw std::runtime_error(
            "workload '" + workload + "': event '" + record.event +
            "' was not counted — request fewer events per run");
      }
      events.push_back(record.event);
      row.push_back(record.value);
    }
    if (counters.empty()) {
      counters = events;
    } else if (events != counters) {
      throw std::runtime_error("workload '" + workload +
                               "': event list differs from the first "
                               "workload's");
    }
    workloads.push_back(workload);
    values.append_row(row);
  }
  return CounterMatrix(suite_name, std::move(workloads), std::move(counters),
                       std::move(values));
}

PerfIntervalData parse_perf_stat_intervals(const std::string& text) {
  PerfIntervalData data;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;
  std::uint64_t consumed = 0;
  std::size_t cursor = 0;  // position within the current interval block
  double current_time = -1.0;
  std::string escape;
  std::vector<std::string_view> cells;

  while (std::getline(in, line)) {
    ++line_no;
    offset = consumed;
    consumed += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    ingest::scan_cells(line, line_no, offset, escape, cells);
    if (cells.size() < 4) {
      throw std::runtime_error("perf-interval line " +
                               std::to_string(line_no) +
                               ": expected at least 4 fields");
    }
    const double timestamp = parse_double(cells[0], line_no, offset);
    const std::string event(cells[3]);
    if (event.empty()) {
      throw std::runtime_error("perf-interval line " +
                               std::to_string(line_no) + ": empty event");
    }
    double value = 0.0;
    if (cells[1] != "<not counted>" && cells[1] != "<not supported>") {
      value = parse_double(cells[1], line_no, offset);
    }

    if (timestamp != current_time) {
      // New interval block begins.
      if (current_time >= 0.0 && cursor != data.events.size()) {
        throw std::runtime_error(
            "perf-interval line " + std::to_string(line_no) +
            ": previous interval is missing events");
      }
      current_time = timestamp;
      cursor = 0;
    }

    if (cursor >= data.events.size()) {
      // New event names may only appear while the first interval block is
      // being discovered (every series still has at most one sample).
      if (!data.series.empty() && data.series[0].size() > 1) {
        throw std::runtime_error("perf-interval line " +
                                 std::to_string(line_no) +
                                 ": unexpected extra event '" + event + "'");
      }
      data.events.push_back(event);
      data.series.emplace_back();
      data.totals.push_back(0.0);
    } else if (data.events[cursor] != event) {
      throw std::runtime_error("perf-interval line " +
                               std::to_string(line_no) + ": expected event '" +
                               data.events[cursor] + "', got '" + event +
                               "'");
    }
    data.series[cursor].push_back(value);
    data.totals[cursor] += value;
    ++cursor;
  }
  if (data.events.empty()) {
    throw std::runtime_error("perf-interval input contains no events");
  }
  if (cursor != data.events.size()) {
    throw std::runtime_error("perf-interval input: last interval truncated");
  }
  return data;
}

CounterMatrix counter_matrix_from_perf_intervals(
    const std::string& suite_name,
    const std::vector<std::pair<std::string, std::string>>&
        workload_outputs) {
  if (workload_outputs.empty()) {
    throw std::invalid_argument(
        "counter_matrix_from_perf_intervals: no workloads");
  }
  std::vector<std::string> counters;
  std::vector<std::string> workloads;
  la::Matrix values;
  std::vector<std::vector<std::vector<double>>> series;
  for (const auto& [workload, text] : workload_outputs) {
    const PerfIntervalData data = parse_perf_stat_intervals(text);
    if (counters.empty()) {
      counters = data.events;
    } else if (data.events != counters) {
      throw std::runtime_error("workload '" + workload +
                               "': event list differs from the first "
                               "workload's");
    }
    workloads.push_back(workload);
    values.append_row(data.totals);
    series.push_back(data.series);
  }
  return CounterMatrix(suite_name, std::move(workloads), std::move(counters),
                       std::move(values), std::move(series));
}

}  // namespace perspector::core
