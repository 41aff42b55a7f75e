// Demand-paged virtual address space: tracks first-touch pages so the core
// model can charge minor page faults (Table IV page-faults counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"

namespace perspector::sim {

/// Page-fault statistics.
struct PageStats {
  std::uint64_t faults = 0;        // first touches (minor faults)
  std::uint64_t resident_pages = 0;
};

/// Demand-paging model over a flat virtual address space.
class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t page_bytes);

  /// Touches the page containing `address`; returns true when this is the
  /// first touch (a page fault).
  bool touch(std::uint64_t address);

  /// True when the page containing `address` has been touched before.
  bool resident(std::uint64_t address) const;

  const PageStats& stats() const noexcept { return stats_; }
  void reset();

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The slot holding `page`, or the empty slot where it would go.
  std::size_t slot_of(std::uint64_t page) const;
  /// Doubles the table and re-inserts every page.
  void grow();

  std::uint64_t page_shift_;
  // Resident pages as an open-addressed set (linear probing, load factor at
  // most 1/2). Only membership and the count are ever read. kEmpty marks a
  // free slot, so the one page number equal to it (possible only with
  // 1-byte pages) is kept in a flag instead.
  std::vector<std::uint64_t> slots_;
  std::uint32_t hash_shift_ = 0;  // 64 - log2(slots_.size())
  bool empty_key_resident_ = false;
  PageStats stats_;
};

}  // namespace perspector::sim
