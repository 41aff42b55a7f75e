// Set-associative cache with selectable replacement policy (true LRU,
// random, tree-PLRU), write-allocate / write-back semantics, and a
// prefetch-fill port. One instance models one level (L1D, L2, or LLC).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"
#include "stats/rng.hpp"

namespace perspector::sim {

/// Kind of memory access as seen by the cache.
enum class AccessType : std::uint8_t { Load, Store };

/// Per-level cache statistics. Demand and prefetch traffic are separated:
/// prefetch fills never count as demand accesses or misses.
struct CacheStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t writebacks = 0;      // dirty evictions
  std::uint64_t prefetch_fills = 0;  // lines installed by the prefetcher

  std::uint64_t accesses() const { return loads + stores; }
  std::uint64_t misses() const { return load_misses + store_misses; }
  double miss_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses()) / static_cast<double>(a);
  }
};

/// One set-associative cache level.
///
/// Addresses are byte addresses; the cache works on line granularity.
/// Geometry must be consistent (size divisible by line*ways). Power-of-two
/// set counts index with a mask; other counts (e.g. a 12 MiB LLC) fall back
/// to modulo indexing, as sliced LLCs effectively do. Tree-PLRU requires a
/// power-of-two way count.
///
/// The valid ways of a set are always its first `fill` ways: a miss fills
/// the lowest invalid way and only flush() invalidates. A lookup scans the
/// filled ways once, finding the tag or, on a miss, the LRU victim. The way
/// rows come from the thread's buffer pool, so a new Cache resets its fill
/// counts instead of zeroing every line (DESIGN.md section 16).
class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry, std::uint64_t seed = 0xC0FFEE);
  ~Cache();

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Performs a demand access. Returns true on hit. On miss the line is
  /// filled (write-allocate); a dirty eviction increments `writebacks`.
  bool access(std::uint64_t address, AccessType type);

  /// Installs the line containing `address` without touching demand
  /// statistics (the prefetcher's fill port). Counted in `prefetch_fills`
  /// when the line was not already present. Returns true if a fill
  /// happened.
  bool prefetch_fill(std::uint64_t address);

  /// Probes without updating state or statistics (diagnostics).
  bool contains(std::uint64_t address) const;

  /// Invalidates all lines and leaves statistics untouched.
  void flush();

  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  std::uint64_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return geometry_.ways; }
  std::uint64_t line_bytes() const noexcept { return geometry_.line_bytes; }
  ReplacementPolicy replacement() const noexcept {
    return geometry_.replacement;
  }

 private:
  /// One valid way: its tag and `stamp << 1 | dirty`, where the stamp is
  /// the LRU clock at the way's last touch. Stamps are unique, so the
  /// smallest `meta` in a full set is the least recently used way.
  struct Way {
    std::uint64_t tag;
    std::uint64_t meta;
  };

  struct Location {
    std::size_t set;
    std::uint64_t tag;
  };

  /// Splits a byte address into set and tag (one division when the set
  /// count is not a power of two).
  Location locate(std::uint64_t address) const {
    const std::uint64_t line_addr = address >> line_shift_;
    if (pow2_sets_) {
      return {static_cast<std::size_t>(line_addr & (sets_ - 1)),
              line_addr >> set_shift_};
    }
    const std::uint64_t tag = line_addr / sets_;
    return {static_cast<std::size_t>(line_addr - tag * sets_), tag};
  }

  /// One pass over the filled ways of a set.
  struct Probe {
    std::uint32_t way;  // the way holding the tag, or ways() when absent
    std::uint32_t lru;  // on a miss: the least recently used filled way
  };

  Probe probe(std::size_t set, std::uint64_t tag) const;
  /// Picks a victim way in a full `set` per the replacement policy; `lru`
  /// is the set's least recently used way.
  std::uint32_t pick_victim(std::size_t set, std::uint32_t lru);
  /// Stamps `way` of `set` as most recently used, keeping its dirty bit
  /// unless `dirty` sets it, and updates the PLRU tree.
  void touch_way(std::size_t set, std::uint32_t way, bool dirty);
  /// Installs `tag` into `set` (evicting from a full set per the policy,
  /// `lru` from the probe that missed); returns the victim's dirtiness.
  bool install(std::size_t set, std::uint64_t tag, bool dirty,
               std::uint32_t lru);

  CacheGeometry geometry_;
  std::uint64_t sets_ = 0;
  bool pow2_sets_ = true;
  std::uint32_t set_shift_ = 0;   // log2(sets), valid when pow2_sets_
  std::uint64_t line_shift_ = 0;  // log2(line_bytes)
  std::uint64_t lru_clock_ = 0;
  std::vector<Way> ways_;         // sets_ * ways, row-major by set; pooled
  std::vector<std::uint32_t> fill_;       // per-set count of valid ways
  std::vector<std::uint32_t> plru_bits_;  // per-set PLRU tree state
  stats::Mt19937_64 rng_;         // Random policy victim draws
  CacheStats stats_;
};

}  // namespace perspector::sim
