#include "sim/tlb.hpp"

#include <bit>
#include <stdexcept>

namespace perspector::sim {

Tlb::Level::Level(const TlbGeometry& geometry) : ways(geometry.ways) {
  if (geometry.ways == 0 || geometry.entries == 0 ||
      geometry.entries % geometry.ways != 0) {
    throw std::invalid_argument("Tlb: entries must be a multiple of ways");
  }
  sets = geometry.entries / geometry.ways;
  if (!std::has_single_bit(sets)) {
    throw std::invalid_argument("Tlb: set count must be a power of two");
  }
  entries.resize(geometry.entries);
  fill.assign(sets, 0);
}

bool Tlb::Level::access_and_fill(std::uint64_t page) {
  const std::size_t set = static_cast<std::size_t>(page & (sets - 1));
  Entry* base = &entries[set * ways];
  const std::uint32_t filled = fill[set];
  ++clock;
  // One pass finds the page or, for a full set, the LRU entry (selects,
  // not branches: where the oldest entry sits is unpredictable).
  std::uint32_t victim = 0;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < filled; ++w) {
    if (base[w].page == page) {
      base[w].lru = clock;
      return true;
    }
    const bool older = base[w].lru < oldest;
    victim = older ? w : victim;
    oldest = older ? base[w].lru : oldest;
  }
  if (filled < ways) {
    victim = filled;
    ++fill[set];
  }
  base[victim].page = page;
  base[victim].lru = clock;
  return false;
}

void Tlb::Level::flush() { fill.assign(fill.size(), 0); }

Tlb::Tlb(const TlbGeometry& l1, const TlbGeometry& stlb,
         std::uint64_t page_bytes, std::uint32_t stlb_hit_cycles,
         std::uint32_t page_walk_cycles)
    : l1_(l1),
      stlb_(stlb),
      page_shift_(0),
      stlb_hit_cycles_(stlb_hit_cycles),
      page_walk_cycles_(page_walk_cycles) {
  if (page_bytes == 0 || !std::has_single_bit(page_bytes)) {
    throw std::invalid_argument("Tlb: page_bytes must be a power of two");
  }
  page_shift_ = static_cast<std::uint64_t>(std::countr_zero(page_bytes));
}

TlbAccess Tlb::access(std::uint64_t address, bool is_store) {
  const std::uint64_t page = address >> page_shift_;
  if (is_store) {
    ++stats_.stores;
  } else {
    ++stats_.loads;
  }

  TlbAccess out;
  if (l1_.access_and_fill(page)) {
    out.l1_hit = true;
    return out;
  }
  if (is_store) {
    ++stats_.store_misses;
  } else {
    ++stats_.load_misses;
  }
  if (stlb_.access_and_fill(page)) {
    out.stlb_hit = true;
    out.latency_cycles = stlb_hit_cycles_;
    ++stats_.stlb_hits;
    return out;
  }
  ++stats_.page_walks;
  stats_.walk_pending_cycles += page_walk_cycles_;
  out.latency_cycles = page_walk_cycles_;
  return out;
}

void Tlb::flush() {
  l1_.flush();
  stlb_.flush();
}

}  // namespace perspector::sim
