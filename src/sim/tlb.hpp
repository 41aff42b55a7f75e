// Two-level data TLB with page-walk cost accounting.
//
// Produces the Table IV TLB counters: dTLB-loads/stores, dTLB-load/store
// misses (L1 dTLB misses), and dtlb_*_misses.walk_pending (cycles spent
// walking the page table, i.e. only after an STLB miss).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"

namespace perspector::sim {

/// TLB-side statistics, split by access direction.
struct TlbStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_misses = 0;   // L1 dTLB misses on loads
  std::uint64_t store_misses = 0;  // L1 dTLB misses on stores
  std::uint64_t stlb_hits = 0;     // L1 misses served by the STLB
  std::uint64_t page_walks = 0;    // STLB misses (full walks)
  std::uint64_t walk_pending_cycles = 0;  // total cycles spent in walks
};

/// Result of one TLB translation.
struct TlbAccess {
  bool l1_hit = false;
  bool stlb_hit = false;            // meaningful only when !l1_hit
  std::uint32_t latency_cycles = 0; // 0 on an L1 hit
};

/// Two-level (L1 dTLB + unified STLB) translation structure, true LRU.
class Tlb {
 public:
  Tlb(const TlbGeometry& l1, const TlbGeometry& stlb,
      std::uint64_t page_bytes, std::uint32_t stlb_hit_cycles,
      std::uint32_t page_walk_cycles);

  /// Translates a byte address; `is_store` routes statistics.
  TlbAccess access(std::uint64_t address, bool is_store);

  const TlbStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = TlbStats{}; }
  void flush();

 private:
  // A single set-associative translation array over page numbers. As in
  // Cache, the valid entries of a set are its first `fill[set]` ways: a
  // miss fills the lowest invalid way and only flush() invalidates.
  struct Level {
    explicit Level(const TlbGeometry& geometry);
    bool access_and_fill(std::uint64_t page);  // true on hit; fills on miss
    void flush();

    std::uint32_t ways;
    std::uint64_t sets;
    std::uint64_t clock = 0;
    struct Entry {
      std::uint64_t page;
      std::uint64_t lru;  // clock at the last touch; unique per entry
    };
    std::vector<Entry> entries;
    std::vector<std::uint32_t> fill;  // per-set count of valid entries
  };

  Level l1_;
  Level stlb_;
  std::uint64_t page_shift_;
  std::uint32_t stlb_hit_cycles_;
  std::uint32_t page_walk_cycles_;
  TlbStats stats_;
};

}  // namespace perspector::sim
