// Content addressing for the serving layer.
//
// A cache entry must never be served for inputs that differ in any byte
// that can influence the report, so the key digests the *full content* of
// a scoring request: every workload/counter name, every aggregate value,
// every series sample, the event-filter name, and the serving code
// version. Two independent FNV-1a streams (different offset basis, the
// second stream also perturbs each byte) give a 128-bit key; at that
// width an accidental collision across a cache of any realistic size is
// out of the question.
//
// All multi-byte values are fed in a canonical form — length-prefixed
// strings, bit-cast doubles, fixed-width integers — so the digest does
// not depend on struct layout or padding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

namespace perspector::core {
class CounterMatrix;
}

namespace perspector::serve {

/// 128-bit content digest, usable as an unordered_map key.
struct Key128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Key128&, const Key128&) = default;
};

struct Key128Hash {
  std::size_t operator()(const Key128& key) const noexcept {
    // hi and lo are already well-mixed digests; fold them.
    return static_cast<std::size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental two-stream FNV-1a hasher.
class ContentHasher {
 public:
  ContentHasher& bytes(const void* data, std::size_t size) noexcept;
  ContentHasher& u64(std::uint64_t value) noexcept;
  ContentHasher& f64(double value) noexcept;
  /// Length-prefixed, so {"ab","c"} and {"a","bc"} digest differently.
  ContentHasher& str(std::string_view text) noexcept;

  Key128 digest() const noexcept { return {hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t lo_ = 0x6c62272e07bb0142ull;  // high half of the 128-bit basis
};

/// Digest of row `w` of `data`: its workload name, its aggregate values
/// and (when present) every series sample with its series' length.
Key128 hash_counter_row(const core::CounterMatrix& data, std::size_t w);

/// Feeds the matrix digest into `hasher`: a header (suite name, shape,
/// counter names, whether series are present) and then `rows`, which must
/// be hash_counter_row of every row of `data`, in row order. A caller that
/// keeps row digests in step with its edits re-hashes only the rows an
/// edit touches and still gets the digest a cold hash would.
void fold_counter_matrix(ContentHasher& hasher,
                         const core::CounterMatrix& data,
                         std::span<const Key128> rows);

/// Digest of a CounterMatrix's full content: fold_counter_matrix over the
/// hash_counter_row of every row.
void hash_counter_matrix(ContentHasher& hasher,
                         const core::CounterMatrix& data);

/// Memoizes full-matrix digests so a resident matrix is hashed once, not
/// per request — the warm serving path must not walk every sample again
/// just to find its cache key. An entry is keyed by the matrix's address
/// and validated through a weak_ptr: if the original owner has expired,
/// a new matrix reusing the address can never be served the stale digest.
/// Bounded ring (replacement is FIFO); thread-safe.
class DigestCache {
 public:
  explicit DigestCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// The full-content digest of `*data`, from the memo when possible.
  Key128 matrix_digest(const std::shared_ptr<const core::CounterMatrix>& data);

 private:
  struct Entry {
    const void* ptr = nullptr;
    std::weak_ptr<const core::CounterMatrix> alive;
    Key128 digest;
  };

  const std::size_t capacity_;
  std::mutex mutex_;
  std::vector<Entry> entries_;
  std::size_t next_ = 0;  // ring replacement cursor
};

}  // namespace perspector::serve
