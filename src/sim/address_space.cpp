#include "sim/address_space.hpp"

#include <bit>
#include <stdexcept>

namespace perspector::sim {

namespace {

constexpr std::size_t kInitialSlots = 1024;

}  // namespace

AddressSpace::AddressSpace(std::uint64_t page_bytes)
    : slots_(kInitialSlots, kEmpty),
      hash_shift_(
          static_cast<std::uint32_t>(64 - std::countr_zero(kInitialSlots))) {
  if (page_bytes == 0 || !std::has_single_bit(page_bytes)) {
    throw std::invalid_argument(
        "AddressSpace: page_bytes must be a power of two");
  }
  page_shift_ = static_cast<std::uint64_t>(std::countr_zero(page_bytes));
}

std::size_t AddressSpace::slot_of(std::uint64_t page) const {
  // Fibonacci hashing: phase regions sit 2^34 bytes apart, so their page
  // numbers differ only in high bits that a plain mask would drop.
  const std::size_t mask = slots_.size() - 1;
  auto i = static_cast<std::size_t>((page * 0x9e3779b97f4a7c15ull) >>
                                    hash_shift_);
  while (slots_[i] != page && slots_[i] != kEmpty) i = (i + 1) & mask;
  return i;
}

void AddressSpace::grow() {
  std::vector<std::uint64_t> old(2 * slots_.size(), kEmpty);
  old.swap(slots_);
  --hash_shift_;
  for (std::uint64_t page : old) {
    if (page != kEmpty) slots_[slot_of(page)] = page;
  }
}

bool AddressSpace::touch(std::uint64_t address) {
  const std::uint64_t page = address >> page_shift_;
  if (page == kEmpty) {
    if (empty_key_resident_) return false;
    empty_key_resident_ = true;
  } else {
    const std::size_t slot = slot_of(page);
    if (slots_[slot] == page) return false;
    slots_[slot] = page;
    if (2 * (stats_.resident_pages + 1) > slots_.size()) grow();
  }
  ++stats_.faults;
  ++stats_.resident_pages;
  return true;
}

bool AddressSpace::resident(std::uint64_t address) const {
  const std::uint64_t page = address >> page_shift_;
  if (page == kEmpty) return empty_key_resident_;
  return slots_[slot_of(page)] == page;
}

void AddressSpace::reset() {
  slots_.assign(slots_.size(), kEmpty);
  empty_key_resident_ = false;
  stats_ = PageStats{};
}

}  // namespace perspector::sim
