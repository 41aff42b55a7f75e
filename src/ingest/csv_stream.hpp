// CSV ingestion (DESIGN.md section 14): the one CSV row reader behind
// every aggregate and series payload, from files and from in-memory text.
//
//   * ChunkSource — hands the input to the parser in order. In-memory
//     text is one chunk (no copy, no buffer, no thread). A stream is read
//     in fixed-size chunks (1 MiB) into reusable mem::Scratch buffers; the
//     first chunk is read inline, and only an input longer than one chunk
//     starts a dedicated IO thread that reads the rest into a small ring
//     so disk reads overlap parsing. Chunks reach the consumer strictly in
//     input order, so the result never depends on thread interleaving.
//   * CsvStream — frames lines across chunk boundaries (a carry buffer
//     holds the partial tail of a chunk), strips a leading UTF-8 BOM, and
//     splits each line with scan_cells.
//   * scan_cells — the one CSV cell splitter (quoted commas, doubled
//     quotes, '\r' dropped outside quotes). Unquoted lines become
//     string_views straight into the line; only lines with quotes or
//     interior CRs are materialized into one reused escape buffer. Errors
//     carry the "CSV line N (byte M)" location.
//   * ColumnMap — header-driven column rearrangement: permutes a source
//     row's value cells into a caller-chosen counter order, so payloads
//     whose columns arrive shuffled (e.g. add_workload deltas) can feed a
//     fixed-layout CounterMatrix without per-row name lookups.
//
// Threading contract: CsvStream/ChunkSource must be constructed, consumed,
// and destroyed on one thread (the scratch buffers are thread-local
// pool borrows); only the internal IO thread is spawned by this module.
// No clocks, no randomness, no output ordering that depends on timing.
//
// Observability: `ingest.chunks`, `ingest.bytes`, `ingest.rows`.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mem/workspace.hpp"

namespace perspector::ingest {

/// Bytes per chunk of a stream source.
inline constexpr std::size_t kChunkBytes = 1 << 20;

/// "CSV line N (byte M)" — the shared location prefix of every CSV error.
std::string csv_location(std::size_t line_no, std::uint64_t byte_offset);

/// Splits one CSV line (without its '\n') into `cells`. The views point
/// into `line`, or into `escape` when the line holds quotes or interior
/// CRs; they stay valid while both are unchanged. Throws
/// std::runtime_error ("CSV line N (byte M): unterminated quote") on a
/// quote left open at end of line.
void scan_cells(std::string_view line, std::size_t line_no,
                std::uint64_t byte_offset, std::string& escape,
                std::vector<std::string_view>& cells);

/// Ordered chunk reader. next() returns the next chunk of the input
/// (valid until the following next() call), or an empty view at end of
/// input.
class ChunkSource {
 public:
  /// In-memory text: the whole text is the one chunk. `text` must outlive
  /// the source.
  explicit ChunkSource(std::string_view text);
  /// Reads `in` in chunks of `chunk_bytes` (the default everywhere but in
  /// the chunk-shearing tests).
  ChunkSource(std::istream& in, std::size_t chunk_bytes);
  ~ChunkSource();

  ChunkSource(const ChunkSource&) = delete;
  ChunkSource& operator=(const ChunkSource&) = delete;

  std::string_view next();

  /// Total input bytes when known up front (text, or a seekable stream),
  /// else 0. A capacity hint only.
  std::uint64_t size_hint() const noexcept { return size_hint_; }

 private:
  static constexpr std::size_t kRingBuffers = 4;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::string_view next_threaded();
  void io_loop();

  std::istream* in_ = nullptr;
  std::size_t chunk_bytes_ = 0;
  std::uint64_t size_hint_ = 0;
  std::string_view first_;  // the chunk the first next() returns
  bool threaded_ = false;
  std::vector<std::unique_ptr<mem::Scratch<char>>> buffers_;

  // Threaded mode: the IO thread pops buffer indices from free_, fills
  // them, and pushes (index, length) onto filled_ in read order.
  std::mutex mutex_;
  std::condition_variable space_;   // IO thread waits for a free buffer
  std::condition_variable ready_;   // consumer waits for a filled chunk
  std::deque<std::size_t> free_;
  std::deque<std::pair<std::size_t, std::size_t>> filled_;
  std::size_t lent_ = kNone;  // buffer currently viewed by the consumer
  bool eof_ = false;
  bool stop_ = false;
  std::thread io_thread_;
};

/// Pull-style CSV row reader (see file comment for semantics).
class CsvStream {
 public:
  /// Rows of in-memory text; `text` must outlive the stream.
  explicit CsvStream(std::string_view text);
  /// Rows of a stream, read in `chunk_bytes` chunks.
  explicit CsvStream(std::istream& in, std::size_t chunk_bytes = kChunkBytes);
  ~CsvStream();

  CsvStream(const CsvStream&) = delete;
  CsvStream& operator=(const CsvStream&) = delete;

  /// Advances to the next non-empty line and scans its cells. Returns
  /// false at end of input. The views in cells() stay valid until the
  /// next call. Throws std::runtime_error ("CSV line N (byte M):
  /// unterminated quote") on a quote left open at end of line.
  bool next_row();

  const std::vector<std::string_view>& cells() const noexcept {
    return cells_;
  }
  /// 1-based line number of the current row.
  std::size_t line_no() const noexcept { return line_no_; }
  /// Byte offset of the current row's first byte in the input.
  std::uint64_t byte_offset() const noexcept { return line_offset_; }
  /// csv_location() of the current row.
  std::string location() const { return csv_location(line_no_, line_offset_); }
  /// See ChunkSource::size_hint.
  std::uint64_t size_hint() const noexcept { return source_.size_hint(); }

 private:
  bool next_line(std::string_view& line);

  ChunkSource source_;
  std::string_view chunk_;  // unconsumed remainder of the current chunk
  std::string carry_;       // partial line accumulated across chunks
  std::string line_buf_;    // stable storage for a carry-assembled line
  std::string escape_;      // materialized cells of quoted/CR rows
  std::vector<std::string_view> cells_;
  std::size_t line_no_ = 0;
  std::uint64_t offset_ = 0;       // bytes consumed before the next line
  std::uint64_t line_offset_ = 0;  // byte offset of the current row
  std::uint64_t rows_seen_ = 0;    // flushed to ingest.rows on destruction
  bool eof_ = false;
};

/// Header-driven column rearrangement: maps a source row's value cells
/// (everything after the key cell at index 0) onto a target column order.
class ColumnMap {
 public:
  /// `header` is the source header row (cell 0 is the key column, e.g.
  /// "workload"); `targets` is the wanted value-column order. Throws
  /// std::invalid_argument when a target column is missing from the
  /// source or the source names a value column twice.
  ColumnMap(const std::vector<std::string_view>& header,
            std::span<const std::string> targets);

  /// Number of cells a source row must have (key cell included).
  std::size_t source_cells() const noexcept { return source_cells_; }

  /// Fills `out` with the value cells of `cells` permuted into target
  /// order (out[k] is the cell of target column k). `cells` must have
  /// exactly source_cells() entries.
  void rearrange(const std::vector<std::string_view>& cells,
                 std::vector<std::string_view>& out) const;

 private:
  std::vector<std::size_t> perm_;  // target k -> source value-cell index
  std::size_t source_cells_ = 0;
};

}  // namespace perspector::ingest
