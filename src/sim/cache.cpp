#include "sim/cache.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "mem/workspace.hpp"

namespace perspector::sim {

Cache::Cache(const CacheGeometry& geometry, std::uint64_t seed)
    : geometry_(geometry), rng_(seed) {
  if (geometry.line_bytes == 0 || !std::has_single_bit(geometry.line_bytes)) {
    throw std::invalid_argument("Cache: line_bytes must be a power of two");
  }
  if (geometry.ways == 0) {
    throw std::invalid_argument("Cache: ways must be > 0");
  }
  const std::uint64_t lines_total = geometry.size_bytes / geometry.line_bytes;
  if (lines_total == 0 || lines_total % geometry.ways != 0) {
    throw std::invalid_argument("Cache: size/line/ways geometry inconsistent");
  }
  sets_ = lines_total / geometry.ways;
  pow2_sets_ = std::has_single_bit(sets_);
  set_shift_ =
      pow2_sets_ ? static_cast<std::uint32_t>(std::countr_zero(sets_)) : 0;
  line_shift_ = static_cast<std::uint64_t>(std::countr_zero(geometry.line_bytes));

  if (geometry.replacement == ReplacementPolicy::Plru) {
    if (!std::has_single_bit(static_cast<std::uint64_t>(geometry.ways))) {
      throw std::invalid_argument(
          "Cache: tree-PLRU requires a power-of-two way count");
    }
    plru_bits_.assign(sets_, 0);
  }
  fill_.assign(sets_, 0);
  // Ways at or above a set's fill count are never read, so a pooled row
  // needs no clearing.
  ways_ = mem::detail::BufferPool<Way>::local().acquire(sets_ * geometry.ways);
}

Cache::~Cache() {
  mem::detail::BufferPool<Way>::local().release(std::move(ways_));
}

Cache::Probe Cache::probe(std::size_t set, std::uint64_t tag) const {
  const Way* base = &ways_[set * geometry_.ways];
  const std::uint32_t filled = fill_[set];
  Probe out{geometry_.ways, 0};
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < filled; ++w) {
    if (base[w].tag == tag) {
      out.way = w;
      return out;
    }
    // Selects, not branches: where the oldest way sits is unpredictable.
    const std::uint64_t meta = base[w].meta;
    const bool older = meta < oldest;
    out.lru = older ? w : out.lru;
    oldest = older ? meta : oldest;
  }
  return out;
}

std::uint32_t Cache::pick_victim(std::size_t set, std::uint32_t lru) {
  switch (geometry_.replacement) {
    case ReplacementPolicy::Lru:
      return lru;
    case ReplacementPolicy::Random: {
      return static_cast<std::uint32_t>(rng_() % geometry_.ways);
    }
    case ReplacementPolicy::Plru: {
      // Walk the tree following the cold direction at each node. Node
      // numbering: root = 1, children of n are 2n and 2n+1; leaves map to
      // ways. Bit set means "right subtree was used more recently", so the
      // cold path follows set bits to the LEFT... we use the standard
      // convention: bit==0 -> go left is cold? We store "last used side":
      // 0 = left used, so victim is right; 1 = right used, victim left.
      std::uint32_t node = 1;
      std::uint32_t levels = std::countr_zero(geometry_.ways);
      const std::uint32_t bits = plru_bits_[set];
      for (std::uint32_t level = 0; level < levels; ++level) {
        const bool right_used = (bits >> node) & 1u;
        node = 2 * node + (right_used ? 0 : 1);
      }
      return node - geometry_.ways;
    }
  }
  throw std::logic_error("Cache: unknown replacement policy");
}

void Cache::touch_way(std::size_t set, std::uint32_t way, bool dirty) {
  Way& w = ways_[set * geometry_.ways + way];
  w.meta = (++lru_clock_ << 1) | (w.meta & 1u) | (dirty ? 1u : 0u);
  if (geometry_.replacement == ReplacementPolicy::Plru) {
    // Update the path bits: record which side of each node was used.
    std::uint32_t leaf = way + geometry_.ways;
    std::uint32_t bits = plru_bits_[set];
    while (leaf > 1) {
      const std::uint32_t parent = leaf / 2;
      const bool is_right = (leaf & 1u) != 0;
      if (is_right) {
        bits |= (1u << parent);
      } else {
        bits &= ~(1u << parent);
      }
      leaf = parent;
    }
    plru_bits_[set] = bits;
  }
}

bool Cache::install(std::size_t set, std::uint64_t tag, bool dirty,
                    std::uint32_t lru) {
  // The lowest invalid way is way fill_[set]; only a full set evicts.
  Way* base = &ways_[set * geometry_.ways];
  std::uint32_t victim = fill_[set];
  bool writeback = false;
  if (victim < geometry_.ways) {
    ++fill_[set];
  } else {
    victim = pick_victim(set, lru);
    writeback = (base[victim].meta & 1u) != 0;
  }
  base[victim].tag = tag;
  base[victim].meta = 0;
  touch_way(set, victim, dirty);
  return writeback;
}

bool Cache::access(std::uint64_t address, AccessType type) {
  const auto [set, tag] = locate(address);
  const bool is_store = type == AccessType::Store;
  if (is_store) {
    ++stats_.stores;
  } else {
    ++stats_.loads;
  }

  const Probe found = probe(set, tag);
  if (found.way < geometry_.ways) {
    touch_way(set, found.way, is_store);
    return true;
  }

  if (is_store) {
    ++stats_.store_misses;
  } else {
    ++stats_.load_misses;
  }
  if (install(set, tag, is_store, found.lru)) ++stats_.writebacks;
  return false;
}

bool Cache::prefetch_fill(std::uint64_t address) {
  const auto [set, tag] = locate(address);
  const Probe found = probe(set, tag);
  if (found.way < geometry_.ways) return false;  // already present
  if (install(set, tag, /*dirty=*/false, found.lru)) ++stats_.writebacks;
  ++stats_.prefetch_fills;
  return true;
}

bool Cache::contains(std::uint64_t address) const {
  const auto [set, tag] = locate(address);
  return probe(set, tag).way < geometry_.ways;
}

void Cache::flush() {
  fill_.assign(fill_.size(), 0);
  if (!plru_bits_.empty()) {
    plru_bits_.assign(plru_bits_.size(), 0);
  }
}

}  // namespace perspector::sim
