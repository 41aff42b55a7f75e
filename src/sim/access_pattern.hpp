// Memory access-pattern generators.
//
// Each workload phase drives the cache/TLB substrate with a stream of byte
// addresses drawn from one of these generators; the pattern (plus working-set
// size) is what differentiates a streaming kernel from a pointer-chasing
// B-tree or a Zipf-skewed key-value lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace perspector::sim {

/// Kinds of synthetic access streams.
enum class AccessPatternKind : std::uint8_t {
  Sequential,    // linear scan at `stride_bytes`, wrapping in the working set
  Strided,       // like Sequential but intended for large strides
  RandomUniform, // independent uniform addresses in the working set
  PointerChase,  // a random Hamiltonian cycle over cache-line slots
  Zipf,          // skewed object popularity (hot/cold)
  GraphTraversal // sequential runs punctuated by random jumps
};

const char* to_string(AccessPatternKind kind);

/// Parameters of an access stream.
struct AccessPatternParams {
  AccessPatternKind kind = AccessPatternKind::Sequential;
  std::uint64_t working_set_bytes = 64 * 1024;
  std::uint64_t stride_bytes = 8;
  double zipf_s = 1.1;      // Zipf skew exponent
  double jump_prob = 0.05;  // GraphTraversal: probability of a random jump
};

/// Stateful generator of byte addresses within
/// [base_address, base_address + working_set_bytes).
class AccessPatternGen {
 public:
  /// Throws std::invalid_argument on a zero working set or zero stride.
  AccessPatternGen(const AccessPatternParams& params,
                   std::uint64_t base_address, stats::Rng rng);

  /// Next address in the stream (8-byte aligned).
  std::uint64_t next();

  const AccessPatternParams& params() const noexcept { return params_; }

 private:
  static constexpr std::uint64_t kSlotBytes = 64;  // pointer-chase node size
  static constexpr std::uint64_t kMaxZipfObjects = 1 << 14;

  std::uint64_t slots() const;

  /// Advances cursor_ by one stride within the working set.
  void step_cursor() {
    const std::uint64_t ws = params_.working_set_bytes;
    if (params_.stride_bytes < ws) {
      cursor_ += params_.stride_bytes;  // cursor_ < ws, so one wrap at most
      if (cursor_ >= ws) cursor_ -= ws;
    } else {
      cursor_ = (cursor_ + params_.stride_bytes) % ws;
    }
  }

  AccessPatternParams params_;
  std::uint64_t base_;
  stats::Rng rng_;
  std::uint64_t cursor_ = 0;  // byte offset (Sequential/Strided/Graph)
  // Pointer chase: the cycle's slots in visiting order, and the index of
  // the slot visited last.
  std::vector<std::uint32_t> chase_order_;
  std::size_t chase_pos_ = 0;
  std::vector<double> zipf_cdf_;           // cumulative popularity
  std::uint64_t zipf_objects_ = 0;
};

}  // namespace perspector::sim
