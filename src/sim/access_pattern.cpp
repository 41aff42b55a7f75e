#include "sim/access_pattern.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perspector::sim {

const char* to_string(AccessPatternKind kind) {
  switch (kind) {
    case AccessPatternKind::Sequential:
      return "sequential";
    case AccessPatternKind::Strided:
      return "strided";
    case AccessPatternKind::RandomUniform:
      return "random-uniform";
    case AccessPatternKind::PointerChase:
      return "pointer-chase";
    case AccessPatternKind::Zipf:
      return "zipf";
    case AccessPatternKind::GraphTraversal:
      return "graph-traversal";
  }
  return "unknown";
}

AccessPatternGen::AccessPatternGen(const AccessPatternParams& params,
                                   std::uint64_t base_address, stats::Rng rng)
    : params_(params), base_(base_address), rng_(rng) {
  if (params.working_set_bytes < 8) {
    throw std::invalid_argument("AccessPatternGen: working set too small");
  }
  if (params.stride_bytes == 0) {
    throw std::invalid_argument("AccessPatternGen: stride must be > 0");
  }

  switch (params_.kind) {
    case AccessPatternKind::PointerChase: {
      // Random Hamiltonian cycle over line-sized slots: dependent accesses
      // with zero spatial locality beyond the slot itself. The cycle
      // perm[0] -> perm[1] -> ... -> perm[n-1] -> perm[0] is walked in
      // order from perm[0]. Shuffling 32-bit slots in place draws exactly
      // what rng_.permutation(n) draws (std::shuffle's draws depend only
      // on the length).
      chase_order_.resize(slots());
      std::iota(chase_order_.begin(), chase_order_.end(), 0u);
      std::shuffle(chase_order_.begin(), chase_order_.end(), rng_.engine());
      break;
    }
    case AccessPatternKind::Zipf: {
      zipf_objects_ = std::min<std::uint64_t>(slots(), kMaxZipfObjects);
      zipf_cdf_.resize(zipf_objects_);
      double cum = 0.0;
      for (std::uint64_t k = 1; k <= zipf_objects_; ++k) {
        cum += 1.0 / std::pow(static_cast<double>(k), params_.zipf_s);
        zipf_cdf_[k - 1] = cum;
      }
      for (double& v : zipf_cdf_) v /= cum;
      break;
    }
    default:
      break;
  }
}

std::uint64_t AccessPatternGen::slots() const {
  return std::max<std::uint64_t>(params_.working_set_bytes / kSlotBytes, 1);
}

std::uint64_t AccessPatternGen::next() {
  const std::uint64_t ws = params_.working_set_bytes;
  switch (params_.kind) {
    case AccessPatternKind::Sequential:
    case AccessPatternKind::Strided: {
      const std::uint64_t addr = base_ + cursor_;
      step_cursor();
      return addr & ~std::uint64_t{7};
    }
    case AccessPatternKind::RandomUniform: {
      const std::uint64_t off = rng_.uniform_int(0, ws / 8 - 1) * 8;
      return base_ + off;
    }
    case AccessPatternKind::PointerChase: {
      if (++chase_pos_ == chase_order_.size()) chase_pos_ = 0;
      return base_ +
             static_cast<std::uint64_t>(chase_order_[chase_pos_]) * kSlotBytes;
    }
    case AccessPatternKind::Zipf: {
      const double u = rng_.uniform();
      const auto it =
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      const auto rank = static_cast<std::uint64_t>(
          std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(),
                                   static_cast<std::ptrdiff_t>(zipf_objects_) - 1));
      // Scatter ranks across the working set so hot objects do not share
      // cache sets.
      const std::uint64_t slot = (rank * 2654435761ull) % slots();
      return base_ + slot * kSlotBytes;
    }
    case AccessPatternKind::GraphTraversal: {
      if (rng_.bernoulli(params_.jump_prob)) {
        cursor_ = rng_.uniform_int(0, ws / 8 - 1) * 8;
      } else {
        step_cursor();
      }
      return (base_ + cursor_) & ~std::uint64_t{7};
    }
  }
  throw std::logic_error("AccessPatternGen: unknown kind");
}

}  // namespace perspector::sim
