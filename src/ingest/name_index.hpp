// Open-addressed workload-name index for the CSV readers.
//
// Duplicate detection over millions of rows must not pay a node
// allocation per insert (std::set / std::unordered_map both do). This
// table stores (hash, row) pairs flat with linear probing; names are
// compared exactly against the caller's name vector on a hash match, so
// 64-bit collisions between different names stay correct — they simply
// probe one slot further.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perspector::ingest {

class NameIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `expected` is a row-count hint (e.g. file size / first row bytes);
  /// the table grows itself when the hint was low. The initial footprint
  /// is capped so a wild hint cannot demand absurd memory up front.
  explicit NameIndex(std::size_t expected = 0) {
    std::size_t capacity = 16;
    while (capacity < expected * 2 && capacity < (1u << 28)) capacity <<= 1;
    slots_.assign(capacity, {0, 0});
    mask_ = capacity - 1;
  }

  /// Grows the table ahead of `expected` names, with the same cap as the
  /// constructor's hint.
  void reserve(std::size_t expected) {
    while (slots_.size() < expected * 2 && slots_.size() < (1u << 28)) grow();
  }

  /// Inserts `name` (stored as `names[row]` by the caller) and returns
  /// npos, or returns the existing row holding the same name without
  /// inserting. `names` must outlive the index and hold every previously
  /// inserted row.
  std::size_t insert(std::string_view name, std::size_t row,
                     const std::vector<std::string>& names) {
    if ((count_ + 1) * 2 > slots_.size()) grow();
    const std::uint64_t hash = std::hash<std::string_view>{}(name);
    std::size_t i = hash & mask_;
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.row_plus_1 == 0) {
        slot.hash = hash;
        slot.row_plus_1 = static_cast<std::uint64_t>(row) + 1;
        ++count_;
        return npos;
      }
      if (slot.hash == hash && names[slot.row_plus_1 - 1] == name) {
        return slot.row_plus_1 - 1;
      }
      i = (i + 1) & mask_;
    }
  }

  /// The row holding `name`, or npos. `names` is the vector the rows were
  /// inserted from.
  std::size_t find(std::string_view name,
                   const std::vector<std::string>& names) const {
    const std::uint64_t hash = std::hash<std::string_view>{}(name);
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.row_plus_1 == 0) return npos;
      if (slot.hash == hash && names[slot.row_plus_1 - 1] == name) {
        return slot.row_plus_1 - 1;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t hash;
    std::uint64_t row_plus_1;  // 0 = empty
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, {0, 0});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.row_plus_1 == 0) continue;
      std::size_t i = slot.hash & mask_;
      while (slots_[i].row_plus_1 != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

}  // namespace perspector::ingest
