// Deterministic random-number facade.
//
// Every stochastic component in the library (k-means seeding, LHS, the
// workload simulator) draws through this wrapper so runs are reproducible
// from a single seed.
//
// The simulator draws several numbers per simulated instruction, so the
// engine and the hottest draws (uniform, bernoulli, uniform_int) are inline
// here. They reproduce libstdc++ bit for bit (DESIGN.md section 16): the
// engine is MT19937-64 with std::mt19937_64's seeding, twist and tempering,
// and uniform() computes generate_canonical<double, 53> directly.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace perspector::stats {

/// MT19937-64, drawing the same sequence as std::mt19937_64 for the same
/// seed. Satisfies UniformRandomBitGenerator, so the std:: distributions
/// and std::shuffle draw the same values from it as from the std engine.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::uint64_t default_seed = 5489u;

  explicit Mt19937_64(std::uint64_t seed = default_seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (index_ >= kN) twist();
    std::uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  /// Regenerates the 312-word block.
  void twist();

  std::array<std::uint64_t, kN> state_;
  std::size_t index_ = kN;
};

/// libstdc++'s draws over a 64-bit engine, computed directly. Rng's
/// uniform and bernoulli draws are these; they take any engine so tests can
/// replay chosen 64-bit values through them.
namespace draw {

/// generate_canonical<double, 53>: one draw x gives double(x) * 2^-64,
/// clamped to nextafter(1, 0).
template <typename Engine>
double canonical(Engine& engine) {
  const std::uint64_t x = engine();
  // hi * 2^32 is exact, so the sum rounds once: the correctly rounded
  // double(x), without the unsigned conversion's sign branch.
  const double c = (static_cast<double>(static_cast<std::uint32_t>(x >> 32)) *
                        0x1p32 +
                    static_cast<double>(static_cast<std::uint32_t>(x))) *
                   0x1p-64;
  return c < 1.0 ? c : 0x1.fffffffffffffp-1;
}

/// std::uniform_real_distribution<double>(lo, hi).
template <typename Engine>
double uniform(Engine& engine, double lo, double hi) {
  return canonical(engine) * (hi - lo) + lo;
}

/// std::bernoulli_distribution(p) for p already in [0, 1].
template <typename Engine>
bool bernoulli(Engine& engine, double p) {
  return canonical(engine) < p;
}

}  // namespace draw

/// Seeded Mersenne-Twister wrapper with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return draw::canonical(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return draw::uniform(engine_, lo, hi);
  }

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal (mean 0, stddev 1) scaled/shifted.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with probability p of true (p clamped to [0, 1]).
  bool bernoulli(double p) {
    return draw::bernoulli(engine_, std::clamp(p, 0.0, 1.0));
  }

  /// Zipf-distributed rank in [0, n) with exponent s > 0 (rank 0 most
  /// frequent). Uses a precomputed CDF per call set; intended for modest n.
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples k distinct indices from {0, ..., n-1}; requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Weighted index draw proportional to non-negative weights
  /// (at least one weight must be positive).
  std::size_t weighted_index(std::span<const double> weights);

  Mt19937_64& engine() noexcept { return engine_; }

  /// Derives an independent child generator (for per-workload streams).
  Rng fork();

 private:
  Mt19937_64 engine_;
};

}  // namespace perspector::stats
