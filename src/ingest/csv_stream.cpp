#include "ingest/csv_stream.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace perspector::ingest {

namespace {

obs::Counter& chunks_counter() {
  static obs::Counter& counter = obs::counter("ingest.chunks");
  return counter;
}

obs::Counter& bytes_counter() {
  static obs::Counter& counter = obs::counter("ingest.bytes");
  return counter;
}

obs::Counter& rows_counter() {
  static obs::Counter& counter = obs::counter("ingest.rows");
  return counter;
}

}  // namespace

std::string csv_location(std::size_t line_no, std::uint64_t byte_offset) {
  return "CSV line " + std::to_string(line_no) + " (byte " +
         std::to_string(byte_offset) + ")";
}

// ---- scan_cells ------------------------------------------------------------

void scan_cells(std::string_view line, std::size_t line_no,
                std::uint64_t byte_offset, std::string& escape,
                std::vector<std::string_view>& cells) {
  cells.clear();

  // Fast path: no quotes and no interior '\r' — every cell is a view
  // straight into the line (one trailing '\r' is trimmed, which is what
  // dropping unquoted CRs does to a CRLF line).
  std::string_view body = line;
  if (!body.empty() && body.back() == '\r') body.remove_suffix(1);
  if (body.find('"') == std::string_view::npos &&
      body.find('\r') == std::string_view::npos) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t comma = body.find(',', start);
      if (comma == std::string_view::npos) {
        cells.push_back(body.substr(start));
        return;
      }
      cells.push_back(body.substr(start, comma - start));
      start = comma + 1;
    }
  }

  // Slow path: unescape into `escape`. It is reserved up front so it
  // never reallocates mid-scan (output length <= input length), which
  // keeps the views already pushed valid.
  escape.clear();
  escape.reserve(line.size());
  const auto close_cell = [&](std::size_t cell_start) {
    cells.emplace_back(escape.data() + cell_start, escape.size() - cell_start);
  };
  std::size_t cell_start = 0;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          escape += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        escape += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      close_cell(cell_start);
      cell_start = escape.size();
    } else if (ch != '\r') {
      escape += ch;
    }
  }
  if (quoted) {
    throw std::runtime_error(csv_location(line_no, byte_offset) +
                             ": unterminated quote");
  }
  close_cell(cell_start);
}

// ---- ChunkSource -----------------------------------------------------------

ChunkSource::ChunkSource(std::string_view text)
    : size_hint_(text.size()), first_(text) {}

ChunkSource::ChunkSource(std::istream& in, std::size_t chunk_bytes)
    : in_(&in), chunk_bytes_(std::max<std::size_t>(chunk_bytes, 1)) {
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    if (end != std::istream::pos_type(-1) && end >= start) {
      size_hint_ = static_cast<std::uint64_t>(end - start);
    }
    in.seekg(start);
  }

  // The first chunk is read inline; only an input that continues past it
  // starts the IO thread, so inputs of one chunk never spawn one.
  buffers_.push_back(std::make_unique<mem::Scratch<char>>(chunk_bytes_));
  in.read(buffers_[0]->data(), static_cast<std::streamsize>(chunk_bytes_));
  const std::size_t n = static_cast<std::size_t>(in.gcount());
  first_ = {buffers_[0]->data(), n};
  threaded_ =
      n == chunk_bytes_ && in.peek() != std::istream::traits_type::eof();
  if (!threaded_) return;
  lent_ = 0;
  for (std::size_t i = 1; i < kRingBuffers; ++i) {
    buffers_.push_back(std::make_unique<mem::Scratch<char>>(chunk_bytes_));
    free_.push_back(i);
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

ChunkSource::~ChunkSource() {
  if (threaded_) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    space_.notify_all();
    io_thread_.join();
  }
}

void ChunkSource::io_loop() {
  for (;;) {
    std::size_t index;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_.wait(lock, [this] { return !free_.empty() || stop_; });
      if (stop_) return;
      index = free_.front();
      free_.pop_front();
    }
    in_->read(buffers_[index]->data(),
              static_cast<std::streamsize>(chunk_bytes_));
    const std::size_t n = static_cast<std::size_t>(in_->gcount());
    const bool at_end = n < chunk_bytes_;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (n > 0) {
        filled_.emplace_back(index, n);
      } else {
        free_.push_back(index);
      }
      if (at_end) eof_ = true;
    }
    ready_.notify_all();
    if (at_end) return;
  }
}

std::string_view ChunkSource::next() {
  std::string_view chunk;
  if (!first_.empty()) {
    chunk = first_;
    first_ = {};
  } else if (threaded_) {
    chunk = next_threaded();
  }
  if (!chunk.empty()) {
    chunks_counter().increment();
    bytes_counter().add(chunk.size());
  }
  return chunk;
}

std::string_view ChunkSource::next_threaded() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (lent_ != kNone) {
    free_.push_back(lent_);
    lent_ = kNone;
    space_.notify_all();
  }
  ready_.wait(lock, [this] { return !filled_.empty() || eof_; });
  if (filled_.empty()) return {};
  const auto [index, length] = filled_.front();
  filled_.pop_front();
  lent_ = index;
  return {buffers_[index]->data(), length};
}

// ---- CsvStream -------------------------------------------------------------

CsvStream::CsvStream(std::string_view text) : source_(text) {
  cells_.reserve(16);
}

CsvStream::CsvStream(std::istream& in, std::size_t chunk_bytes)
    : source_(in, chunk_bytes) {
  cells_.reserve(16);
}

// Rows are tallied locally and flushed in one bulk add — a relaxed atomic
// per parsed row would be the only contended write on the hot path.
CsvStream::~CsvStream() {
  if (rows_seen_ > 0) rows_counter().add(rows_seen_);
}

bool CsvStream::next_line(std::string_view& line) {
  for (;;) {
    if (chunk_.empty()) {
      if (eof_) {
        if (carry_.empty()) return false;
        // Final line without a trailing newline.
        line_buf_.swap(carry_);
        carry_.clear();
        line = line_buf_;
        return true;
      }
      chunk_ = source_.next();
      if (chunk_.empty()) {
        eof_ = true;
        continue;
      }
    }
    const std::size_t pos = chunk_.find('\n');
    if (pos == std::string_view::npos) {
      carry_.append(chunk_.data(), chunk_.size());
      chunk_ = {};
      continue;
    }
    if (carry_.empty()) {
      line = chunk_.substr(0, pos);
    } else {
      carry_.append(chunk_.data(), pos);
      line_buf_.swap(carry_);
      carry_.clear();
      line = line_buf_;
    }
    chunk_.remove_prefix(pos + 1);
    return true;
  }
}

bool CsvStream::next_row() {
  std::string_view line;
  while (next_line(line)) {
    ++line_no_;
    line_offset_ = offset_;
    // +1 for the consumed '\n'. The final newline-less line over-counts by
    // one, but its successor offset is never observed.
    offset_ += line.size() + 1;
    if (line_no_ == 1 && line.size() >= 3 && line[0] == '\xEF' &&
        line[1] == '\xBB' && line[2] == '\xBF') {
      line.remove_prefix(3);
    }
    // The header line is surfaced even when empty (the caller owns the
    // "bad header" diagnosis); later blank lines are skipped.
    if (line.empty() && line_no_ > 1) continue;
    scan_cells(line, line_no_, line_offset_, escape_, cells_);
    ++rows_seen_;
    return true;
  }
  return false;
}

// ---- ColumnMap -------------------------------------------------------------

ColumnMap::ColumnMap(const std::vector<std::string_view>& header,
                     std::span<const std::string> targets) {
  if (header.empty()) {
    throw std::invalid_argument("ColumnMap: empty header");
  }
  source_cells_ = header.size();
  perm_.reserve(targets.size());
  for (const std::string& target : targets) {
    std::size_t found = static_cast<std::size_t>(-1);
    for (std::size_t i = 1; i < header.size(); ++i) {
      if (header[i] == target) {
        if (found != static_cast<std::size_t>(-1)) {
          throw std::invalid_argument("ColumnMap: duplicate column '" +
                                      target + "' in source header");
        }
        found = i - 1;
      }
    }
    if (found == static_cast<std::size_t>(-1)) {
      throw std::invalid_argument("ColumnMap: column '" + target +
                                  "' missing from source header");
    }
    perm_.push_back(found);
  }
}

void ColumnMap::rearrange(const std::vector<std::string_view>& cells,
                          std::vector<std::string_view>& out) const {
  if (cells.size() != source_cells_) {
    throw std::invalid_argument(
        "ColumnMap: row has " + std::to_string(cells.size()) +
        " cells, header had " + std::to_string(source_cells_));
  }
  out.clear();
  out.reserve(perm_.size());
  for (const std::size_t source : perm_) {
    out.push_back(cells[1 + source]);
  }
}

}  // namespace perspector::ingest
