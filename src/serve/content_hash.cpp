#include "serve/content_hash.hpp"

#include <bit>

#include "core/counter_matrix.hpp"

namespace perspector::serve {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}

ContentHasher& ContentHasher::bytes(const void* data,
                                    std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hi_ = (hi_ ^ p[i]) * kFnvPrime;
    // The second stream perturbs each byte so the two digests are not
    // related by a fixed function of one another.
    lo_ = (lo_ ^ static_cast<unsigned char>(p[i] + 0x9eu)) * kFnvPrime;
  }
  return *this;
}

ContentHasher& ContentHasher::u64(std::uint64_t value) noexcept {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  return bytes(buf, sizeof buf);
}

ContentHasher& ContentHasher::f64(double value) noexcept {
  return u64(std::bit_cast<std::uint64_t>(value));
}

ContentHasher& ContentHasher::str(std::string_view text) noexcept {
  u64(text.size());
  return bytes(text.data(), text.size());
}

Key128 hash_counter_row(const core::CounterMatrix& data, std::size_t w) {
  ContentHasher hasher;
  hasher.str(data.workload_names().at(w));
  for (std::size_t c = 0; c < data.num_counters(); ++c) {
    hasher.f64(data.value(w, c));
  }
  if (data.has_series()) {
    for (std::size_t c = 0; c < data.num_counters(); ++c) {
      const auto& series = data.series(w, c);
      hasher.u64(series.size());
      for (double v : series) hasher.f64(v);
    }
  }
  return hasher.digest();
}

void fold_counter_matrix(ContentHasher& hasher,
                         const core::CounterMatrix& data,
                         std::span<const Key128> rows) {
  hasher.str(data.suite_name());
  hasher.u64(data.num_workloads());
  hasher.u64(data.num_counters());
  for (const auto& name : data.counter_names()) hasher.str(name);
  hasher.u64(data.has_series() ? 1 : 0);
  for (const Key128& row : rows) hasher.u64(row.hi).u64(row.lo);
}

void hash_counter_matrix(ContentHasher& hasher,
                         const core::CounterMatrix& data) {
  std::vector<Key128> rows(data.num_workloads());
  for (std::size_t w = 0; w < rows.size(); ++w) {
    rows[w] = hash_counter_row(data, w);
  }
  fold_counter_matrix(hasher, data, rows);
}

Key128 DigestCache::matrix_digest(
    const std::shared_ptr<const core::CounterMatrix>& data) {
  const void* ptr = data.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& entry : entries_) {
      // The weak_ptr must still resolve to the same address: an expired
      // owner means the address may now belong to a different matrix.
      if (entry.ptr == ptr && entry.alive.lock().get() == ptr) {
        return entry.digest;
      }
    }
  }
  ContentHasher hasher;
  hash_counter_matrix(hasher, *data);
  const Key128 digest = hasher.digest();
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() < capacity_) {
    entries_.push_back({ptr, data, digest});
  } else if (capacity_ > 0) {
    entries_[next_] = {ptr, data, digest};
    next_ = (next_ + 1) % capacity_;
  }
  return digest;
}

}  // namespace perspector::serve
