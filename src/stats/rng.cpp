#include "stats/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perspector::stats {

void Mt19937_64::twist() {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ull;
  const auto mix = [](std::uint64_t hi, std::uint64_t lo) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return (y >> 1) ^ ((0 - (y & 1u)) & kMatrix);  // no branch on the bit
  };
  std::size_t k = 0;
  for (; k < kN - kM; ++k) {
    state_[k] = state_[k + kM] ^ mix(state_[k], state_[k + 1]);
  }
  for (; k < kN - 1; ++k) {
    state_[k] = state_[k + kM - kN] ^ mix(state_[k], state_[k + 1]);
  }
  state_[kN - 1] = state_[kM - 1] ^ mix(state_[kN - 1], state_[0]);
  index_ = 0;
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("Rng::zipf: n must be > 0");
  if (s <= 0.0) throw std::invalid_argument("Rng::zipf: s must be > 0");
  // Inverse-CDF sampling over the (finite) Zipf mass function. The harmonic
  // normalizer is recomputed per call; callers with hot loops should cache
  // ranks themselves (the simulator does).
  double h = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) h += 1.0 / std::pow(k, s);
  double u = uniform(0.0, h);
  for (std::uint64_t k = 1; k <= n; ++k) {
    u -= 1.0 / std::pow(k, s);
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  std::shuffle(p.begin(), p.end(), engine_);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("Rng::sample_without_replacement: k > n");
  }
  auto p = permutation(n);
  p.resize(k);
  return p;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("Rng::weighted_index: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::weighted_index: all weights zero");
  }
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() {
  // Derive a child seed; splitmix-style scramble avoids correlated streams.
  std::uint64_t s = engine_();
  s ^= s >> 30;
  s *= 0xbf58476d1ce4e5b9ull;
  s ^= s >> 27;
  s *= 0x94d049bb133111ebull;
  s ^= s >> 31;
  return Rng(s);
}

}  // namespace perspector::stats
