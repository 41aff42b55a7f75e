// Reference CSV readers for tests: the getline-based aggregate and series
// readers that core/io.cpp used before ingest::CsvStream became the only
// row reader. They are written for obviousness, not speed — one
// std::string per line and per cell, std::set duplicate detection, plain
// from_chars — and define what the product readers must match: the
// accepted inputs, the parsed bits, and the error text byte for byte.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/counter_matrix.hpp"
#include "ingest/csv_stream.hpp"

namespace perspector::oracle {

using ingest::csv_location;

// Minimal RFC-4180-ish CSV line splitter (handles quoted cells with
// embedded commas and doubled quotes; drops '\r' outside quotes).
inline std::vector<std::string> split_csv_line(const std::string& line,
                                               std::size_t line_no,
                                               std::uint64_t byte_offset) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (ch != '\r') {
      cell += ch;
    }
  }
  if (quoted) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": unterminated quote");
  }
  cells.push_back(std::move(cell));
  return cells;
}

inline double parse_double(std::string_view cell, std::size_t line_no,
                           std::uint64_t byte_offset) {
  double value = 0.0;
  const char* first = cell.data();
  const char* last = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": expected a number, got '" +
                             std::string(cell) + "'");
  }
  if (!std::isfinite(value)) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": non-finite value '" + std::string(cell) +
                             "' is not allowed");
  }
  return value;
}

inline std::size_t parse_index(std::string_view cell, std::size_t line_no,
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

inline void strip_utf8_bom(std::string& line) {
  if (line.size() >= 3 && line[0] == '\xEF' && line[1] == '\xBB' &&
      line[2] == '\xBF') {
    line.erase(0, 3);
  }
}

/// The rows CsvStream must produce for `text`: every line's cells, the
/// header line even when empty, later blank lines skipped.
inline std::vector<std::vector<std::string>> split_rows(
    const std::string& text) {
  std::istringstream in(text);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t offset = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::uint64_t line_offset = offset;
    offset += line.size() + 1;
    if (line_no == 1) strip_utf8_bom(line);
    if (line.empty() && line_no > 1) continue;
    rows.push_back(split_csv_line(line, line_no, line_offset));
  }
  return rows;
}

/// Aggregate CSV from `in`; `origin` labels whole-input errors.
inline core::CounterMatrix read_aggregates(const std::string& suite_name,
                                           std::istream& in,
                                           const std::string& origin) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("'" + origin + "': empty file");
  }
  // Byte offset of the line just read; getline consumed line.size() bytes
  // plus one '\n' (the final line may lack one, but then no further line
  // follows and the over-count is never observed).
  std::uint64_t offset = 0;
  std::uint64_t consumed = line.size() + 1;
  strip_utf8_bom(line);
  auto header = split_csv_line(line, 1, 0);
  if (header.size() < 2 || header[0] != "workload") {
    throw std::runtime_error(
        "'" + origin + "': header must be 'workload,<counter>,...'");
  }
  std::vector<std::string> counters(header.begin() + 1, header.end());

  std::vector<std::string> workloads;
  std::set<std::string> seen;
  la::Matrix values;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    offset = consumed;
    consumed += line.size() + 1;
    if (line.empty()) continue;
    const auto cells = split_csv_line(line, line_no, offset);
    if (cells.size() != counters.size() + 1) {
      throw std::runtime_error(
          csv_location(line_no, offset) + ": expected " +
          std::to_string(counters.size() + 1) + " cells, got " +
          std::to_string(cells.size()));
    }
    if (!seen.insert(cells[0]).second) {
      throw std::runtime_error(csv_location(line_no, offset) +
                               ": duplicate workload '" + cells[0] + "'");
    }
    workloads.push_back(cells[0]);
    std::vector<double> row(counters.size());
    for (std::size_t c = 0; c < counters.size(); ++c) {
      row[c] = parse_double(cells[c + 1], line_no, offset);
    }
    values.append_row(row);
  }
  if (workloads.empty()) {
    throw std::runtime_error("'" + origin + "': no data rows");
  }
  return core::CounterMatrix(suite_name, std::move(workloads),
                             std::move(counters), std::move(values));
}

/// Series CSV from `in`, attached to `bare`.
inline core::CounterMatrix attach_series(const core::CounterMatrix& bare,
                                         std::istream& in,
                                         const std::string& origin) {
  std::vector<std::vector<std::vector<double>>> series(
      bare.num_workloads(),
      std::vector<std::vector<double>>(bare.num_counters()));

  std::string line;
  const bool have_header = static_cast<bool>(std::getline(in, line));
  std::uint64_t offset = 0;
  std::uint64_t consumed = have_header ? line.size() + 1 : 0;
  if (have_header) strip_utf8_bom(line);
  if (!have_header ||
      split_csv_line(line, 1, 0) !=
          std::vector<std::string>{"workload", "counter", "sample", "value"}) {
    throw std::runtime_error(
        "'" + origin + "': header must be 'workload,counter,sample,value'");
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    offset = consumed;
    consumed += line.size() + 1;
    if (line.empty()) continue;
    const auto cells = split_csv_line(line, line_no, offset);
    if (cells.size() != 4) {
      throw std::runtime_error(csv_location(line_no, offset) +
                               ": expected 4 cells");
    }
    std::size_t w = 0;
    std::size_t c = 0;
    try {
      w = bare.workload_index(cells[0]);
      c = bare.counter_index(cells[1]);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(csv_location(line_no, offset) + ": " +
                                  e.what());
    }
    const std::size_t s = parse_index(cells[2], line_no, offset);
    auto& target = series[w][c];
    if (s != target.size()) {
      throw std::runtime_error(csv_location(line_no, offset) +
                               ": sample indices must be dense from 0 "
                               "(expected " +
                               std::to_string(target.size()) + ", got " +
                               std::to_string(s) + ")");
    }
    target.push_back(parse_double(cells[3], line_no, offset));
  }
  for (std::size_t w = 0; w < bare.num_workloads(); ++w) {
    for (std::size_t c = 0; c < bare.num_counters(); ++c) {
      if (series[w][c].empty()) {
        throw std::runtime_error(
            "'" + origin + "': no samples for workload '" +
            bare.workload_names()[w] + "' counter '" +
            bare.counter_names()[c] + "'");
      }
    }
  }
  return core::CounterMatrix(bare.suite_name(), bare.workload_names(),
                             bare.counter_names(), bare.values(),
                             std::move(series));
}

inline std::ifstream open_for_read(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  return in;
}

inline core::CounterMatrix read_aggregates_csv(const std::string& suite_name,
                                               const std::string& path) {
  auto in = open_for_read(path);
  return read_aggregates(suite_name, in, path);
}

inline core::CounterMatrix read_aggregates_csv_text(
    const std::string& suite_name, const std::string& csv_text) {
  std::istringstream in(csv_text);
  return read_aggregates(suite_name, in, "<inline csv>");
}

inline core::CounterMatrix read_with_series_csv(
    const std::string& suite_name, const std::string& aggregates_path,
    const std::string& series_path) {
  const core::CounterMatrix bare =
      read_aggregates_csv(suite_name, aggregates_path);
  auto in = open_for_read(series_path);
  return attach_series(bare, in, series_path);
}

inline core::CounterMatrix read_with_series_csv_text(
    const std::string& suite_name, const std::string& aggregates_text,
    const std::string& series_text) {
  const core::CounterMatrix bare =
      read_aggregates_csv_text(suite_name, aggregates_text);
  std::istringstream in(series_text);
  return attach_series(bare, in, "<inline series csv>");
}

}  // namespace perspector::oracle
