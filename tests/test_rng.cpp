#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perspector::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
  EXPECT_THROW(rng.uniform_int(5, 3), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  // Degenerate probabilities never throw and behave as expected.
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-2.0));  // clamped
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<std::size_t>(rng.zipf(10, 1.2))];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
  EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.zipf(10, 0.0), std::invalid_argument);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(12);
  auto p = rng.permutation(20);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(13);
  auto s = rng.sample_without_replacement(10, 4);
  EXPECT_EQ(s.size(), 4u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  for (std::size_t i : s) EXPECT_LT(i, 10u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(14);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);

  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), std::invalid_argument);
  const std::vector<double> negative{-1.0, 2.0};
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.fork();
  // The child stream should not replicate the parent's next draws.
  Rng parent2(15);
  (void)parent2.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.uniform() == parent.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(16), b(16);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
  }
}

// ---- equivalence with libstdc++ -------------------------------------------
// The simulator's counters are pinned by golden digests computed with
// std::mt19937_64 and the std:: distributions; the in-tree engine and draws
// must reproduce them bit for bit.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Hands out a fixed list of 64-bit values, as an engine would.
class ReplayEngine {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit ReplayEngine(std::uint64_t value) : value_(value) {}
  result_type operator()() { return value_; }

 private:
  std::uint64_t value_;
};

TEST(Mt19937_64, MatchesStdEngineOnTenMillionDraws) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 5489ull,
                             0x9e3779b97f4a7c15ull, ~0ull}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 theirs(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 2'000'000; ++i) {
      if (ours() != theirs()) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64, TenThousandthOutputOfDefaultSeed) {
  // The value the C++ standard requires of mt19937_64 ([rand.predef]).
  Mt19937_64 engine;
  for (int i = 1; i < 10'000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
  Mt19937_64 seeded(5489);
  for (int i = 1; i < 10'000; ++i) seeded();
  EXPECT_EQ(seeded(), 9981545732273789042ull);
}

std::vector<std::uint64_t> canonical_test_values() {
  // Edge values around 0, 2^63 and the top of the range, where double(x)
  // rounds up to 2^64 (from 2^64 - 2^10 on) and the clamp applies.
  std::vector<std::uint64_t> values;
  for (std::uint64_t k = 0; k <= 2048; ++k) {
    values.push_back(~0ull - k);
    values.push_back(k);
    values.push_back((1ull << 63) + k);
    values.push_back((1ull << 63) - k);
    values.push_back((~0ull - 2047) - k);  // (2^64 - 2^11) - k
  }
  std::mt19937_64 random(2024);
  for (int i = 0; i < 300'000; ++i) values.push_back(random());
  return values;
}

TEST(RngDraw, CanonicalMatchesGenerateCanonical) {
  std::size_t mismatches = 0;
  for (std::uint64_t x : canonical_test_values()) {
    ReplayEngine ours(x), theirs(x);
    const double c = draw::canonical(ours);
    if (bits(c) != bits(std::generate_canonical<double, 53>(theirs))) {
      ++mismatches;
    }
    EXPECT_LT(c, 1.0);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RngDraw, UniformMatchesUniformRealDistribution) {
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {-0.08, 0.08}, {2.0, 3.0}, {0.0, 7.3}, {-1e6, 1e-3}};
  std::size_t mismatches = 0;
  for (std::uint64_t x : canonical_test_values()) {
    for (const auto& [lo, hi] : ranges) {
      ReplayEngine ours(x), theirs(x);
      std::uniform_real_distribution<double> dist(lo, hi);
      if (bits(draw::uniform(ours, lo, hi)) != bits(dist(theirs))) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RngDraw, BernoulliMatchesBernoulliDistribution) {
  std::size_t mismatches = 0;
  for (std::uint64_t x : canonical_test_values()) {
    ReplayEngine probe(x);
    const double c = draw::canonical(probe);
    // Thresholds at and either side of the draw itself, plus fixed ones.
    for (double p : {c, std::nextafter(c, 0.0), std::nextafter(c, 2.0), 0.0,
                     0.002, 0.3, 0.5, 1.0}) {
      ReplayEngine ours(x), theirs(x);
      std::bernoulli_distribution dist(p);
      if (draw::bernoulli(ours, p) != dist(theirs)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, DrawsMatchStdDistributionsOverStdEngine) {
  Rng ours(77);
  std::mt19937_64 theirs(77);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    if (bits(ours.uniform()) !=
        bits(std::generate_canonical<double, 53>(theirs))) {
      ++mismatches;
    }
    std::uniform_real_distribution<double> real(-0.08, 0.08);
    if (bits(ours.uniform(-0.08, 0.08)) != bits(real(theirs))) ++mismatches;
    // Out-of-range probabilities are clamped before the draw.
    for (double p : {0.002, 0.3, -2.0, 1.5}) {
      std::bernoulli_distribution coin(std::clamp(p, 0.0, 1.0));
      if (ours.bernoulli(p) != coin(theirs)) ++mismatches;
    }
    std::uniform_int_distribution<std::uint64_t> integer(3, 1'000'003);
    if (ours.uniform_int(3, 1'000'003) != integer(theirs)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, PermutationMatchesStdShuffle) {
  for (std::size_t n : {1u, 2u, 7u, 1000u, 100'000u}) {
    Rng ours(n);
    std::mt19937_64 theirs(n);
    std::vector<std::size_t> expected(n);
    std::iota(expected.begin(), expected.end(), 0u);
    std::shuffle(expected.begin(), expected.end(), theirs);
    EXPECT_EQ(ours.permutation(n), expected) << "n = " << n;
  }
}

}  // namespace
}  // namespace perspector::stats
