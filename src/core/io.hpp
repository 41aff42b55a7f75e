// CounterMatrix persistence and interchange.
//
// The scoring engine is data-source-agnostic: anything that can produce a
// workloads x counters table (plus optional per-counter time series) can be
// scored. These routines define the on-disk formats:
//
//   * Aggregate CSV — header `workload,<counter>,<counter>,...`; one row per
//     workload. This is what `perf stat -x,` output reduces to after one
//     pivot.
//   * Series CSV (long format) — header `workload,counter,sample,value`;
//     one row per (workload, counter, sample index). Sample indices must be
//     dense from 0 within each (workload, counter) pair.
//
// Every reader validates shape and reports the offending line — as
// "CSV line N (byte M)", the byte offset making errors greppable with
// dd/tail in GB-scale files — on error.
//
// One row reader serves every format and source: ingest::CsvStream
// (src/ingest/). In-memory text is parsed in place as one chunk; a file is
// read in 1 MiB chunks, with an IO thread overlapping disk reads and
// parsing only when the file is longer than one chunk.
#pragma once

#include <cstddef>
#include <string>

#include "core/counter_matrix.hpp"

namespace perspector::ingest {
class CsvStream;
}  // namespace perspector::ingest

namespace perspector::core {

/// Writes the aggregate counter table as CSV.
/// Throws std::runtime_error on I/O failure.
void write_aggregates_csv(const CounterMatrix& data, const std::string& path);

/// Writes the sampled time series in long format.
/// Throws std::logic_error when the matrix carries no series.
void write_series_csv(const CounterMatrix& data, const std::string& path);

/// Reads an aggregate CSV (no series attached).
/// Throws std::runtime_error with a line- and byte-offset-numbered
/// message on malformed input (missing header, ragged rows, non-numeric
/// or non-finite cells, duplicate workloads).
///
/// Interchange hardening (external producers): a leading UTF-8 BOM is
/// skipped, CRLF line endings are accepted everywhere, and NaN/Inf cells
/// are rejected with the offending line number (the scores are undefined
/// over non-finite counters, so they must fail loudly at the boundary).
CounterMatrix read_aggregates_csv(const std::string& suite_name,
                                  const std::string& path);

/// Reads an aggregate CSV and a matching series CSV, attaching the series.
/// The series file must cover exactly the workloads and counters of the
/// aggregate file; every (workload, counter) pair needs at least one sample.
CounterMatrix read_with_series_csv(const std::string& suite_name,
                                   const std::string& aggregates_path,
                                   const std::string& series_path);

/// In-memory variants of the CSV readers (same validation and error
/// messages, for data that arrives over the wire instead of from disk —
/// the serving layer's inline-CSV requests use these).
CounterMatrix read_aggregates_csv_text(const std::string& suite_name,
                                       const std::string& csv_text);
CounterMatrix read_with_series_csv_text(const std::string& suite_name,
                                        const std::string& aggregates_text,
                                        const std::string& series_text);

/// The bodies the file and text readers above share, over any row source.
/// `origin` names the input in errors (the path, or "<inline csv>").
CounterMatrix read_aggregates_rows(const std::string& suite_name,
                                   ingest::CsvStream& rows,
                                   const std::string& origin);
/// Reads a series CSV from `rows` and returns `aggregates` with it
/// attached (the checks of read_with_series_csv).
CounterMatrix attach_series_rows(const CounterMatrix& aggregates,
                                 ingest::CsvStream& rows,
                                 const std::string& origin);

/// In-memory CSV writers, inverses of the text readers: every value is
/// rendered with %.17g so parsing the text recovers the exact doubles.
/// The serving router uses these to forward in-memory matrices to worker
/// processes without losing a bit. (The file writers above keep their
/// historical default precision; these are a separate, lossless channel.)
std::string write_aggregates_csv_text(const CounterMatrix& data);
/// Throws std::logic_error when the matrix carries no series.
std::string write_series_csv_text(const CounterMatrix& data);

// ---- delta ingestion (live-suite mutation payloads) ------------------------

/// Appends the workloads of a delta aggregates CSV to `base` and returns
/// the extended matrix. The payload header must name exactly the base
/// suite's counters (any order — columns are rearranged via
/// ingest::ColumnMap); new workload names must be unique and must not
/// collide with existing ones. When `base` carries series, `series_text`
/// must supply at least one sample for every (new workload, counter)
/// pair (long format, dense indices from 0); when it does not,
/// `series_text` must be empty. Errors use the same "CSV line N (byte
/// M)" convention as the readers above.
CounterMatrix append_workloads_csv_text(const CounterMatrix& base,
                                        const std::string& aggregates_text,
                                        const std::string& series_text);

/// Extends the sampled series of existing workloads of `base` and returns
/// the new matrix. Rows are the long series format; each (workload,
/// counter) row's sample index must continue densely from that series'
/// current length. Aggregate values are left unchanged (they remain the
/// totals of the originally ingested window; re-aggregation is the
/// caller's policy). Throws std::logic_error when `base` has no series.
/// When `touched_workloads` is non-null it receives the sorted, deduped
/// row indices that gained samples — the set a warm ScoringWorkspace
/// must re-prime incrementally.
CounterMatrix append_samples_csv_text(
    const CounterMatrix& base, const std::string& series_text,
    std::vector<std::size_t>* touched_workloads = nullptr);

// ---- Linux `perf stat -x,` ingestion --------------------------------------

/// One event record from `perf stat -x,` output
/// (format: value,unit,event,time_running,pct_running,...).
struct PerfStatRecord {
  std::string event;
  double value = 0.0;
  double pct_running = 100.0;  // <100 means the event was multiplexed
  bool counted = true;         // false for "<not counted>"/"<not supported>"
};

/// Parses the full text of one workload's `perf stat -x,` run. Comment
/// lines (leading '#') and blank lines are skipped before cells are split
/// (with ingest::scan_cells, as every CSV row is); malformed lines throw
/// std::runtime_error with the line number.
std::vector<PerfStatRecord> parse_perf_stat(const std::string& text);

/// Builds a CounterMatrix from one perf-stat text per workload
/// (pairs of workload name and raw `perf stat -x,` output). Every workload
/// must report the same events in the same order as the first one; an
/// uncounted event anywhere is an error naming the workload and event
/// (re-run with fewer events — the paper's footnote-1 advice).
CounterMatrix counter_matrix_from_perf_stat(
    const std::string& suite_name,
    const std::vector<std::pair<std::string, std::string>>& workload_outputs);

/// Parsed `perf stat -I <ms> -x,` (interval mode) output: per-event delta
/// series plus totals — the data the TrendScore needs from real hardware.
struct PerfIntervalData {
  std::vector<std::string> events;
  std::vector<std::vector<double>> series;  // [event][interval]
  std::vector<double> totals;               // per event, sum of deltas
};

/// Parses interval-mode output (lines: elapsed-seconds,value,unit,event,...).
/// Events must appear in a consistent order within every interval block;
/// "<not counted>" values become 0 for that interval. Throws
/// std::runtime_error with a line number on malformed input.
PerfIntervalData parse_perf_stat_intervals(const std::string& text);

/// Builds a CounterMatrix *with time series* from one interval-mode text
/// per workload. Event lists must agree across workloads.
CounterMatrix counter_matrix_from_perf_intervals(
    const std::string& suite_name,
    const std::vector<std::pair<std::string, std::string>>& workload_outputs);

}  // namespace perspector::core
