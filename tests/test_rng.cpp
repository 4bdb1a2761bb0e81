// Unit and statistical tests for the random number substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <random>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pimsim {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256pp>);
  Xoshiro256pp engine(7);
  EXPECT_NE(engine(), engine());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123, 5), b(123, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DistinctStreamsDiffer) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.uniform() == b.uniform());
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitGivesIndependentChildren) {
  Rng parent(9);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = Rng(9).split(1);
  EXPECT_DOUBLE_EQ(c1.uniform(), c1_again.uniform());
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (c1.uniform() == c2.uniform());
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BinomialMatchesMeanAndVariance) {
  Rng rng(29);
  const std::uint64_t n = 1000;
  const double p = 0.1;
  double sum = 0.0, sum2 = 0.0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    const double x = static_cast<double>(rng.binomial(n, p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / reps;
  const double var = sum2 / reps - mean * mean;
  EXPECT_NEAR(mean, static_cast<double>(n) * p, 1.0);         // 100 +/- 1
  EXPECT_NEAR(var, static_cast<double>(n) * p * (1 - p), 5.0);  // 90 +/- 5
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(31);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(37);
  const double p = 0.3;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  // Mean number of failures before success: (1-p)/p = 2.333...
  EXPECT_NEAR(sum / n, (1 - p) / p, 0.05);
}

TEST(Rng, GeometricWithPOneIsZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(GeometricSampler, MatchesStdGeometricDistributionBitForBit) {
  // 8 p values x 1.3 M draws: over 10^7 draws, from p near 0 (values in
  // the trillions) to p near 1 (almost all zeros).  Each side runs its
  // own copy of one stream, so a draw consumed differently shows up as
  // a mismatch from there on.
  const double ps[] = {1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9,
                       1.0 - 1e-15};
  constexpr int kDraws = 1'300'000;
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    const double p = ps[i];
    Rng sampler_rng(0x6e0, i);
    Rng std_rng(0x6e0, i);
    const GeometricSampler sample(p);
    std::geometric_distribution<std::uint64_t> dist(p);
    std::uint64_t mismatches = 0;
    for (int k = 0; k < kDraws; ++k) {
      mismatches += sample(sampler_rng) != dist(std_rng.engine()) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "p = " << p;
    EXPECT_EQ(sampler_rng.engine()(), std_rng.engine()()) << "p = " << p;
  }
}

TEST(GeometricSampler, CertainSuccessIsZeroWithoutADraw) {
  // std::geometric_distribution(1) also yields only zeros, but spends a
  // draw on each; the sampler, like Rng::geometric, spends none.
  Rng rng(59);
  Rng untouched(59);
  std::geometric_distribution<std::uint64_t> dist(1.0);
  const GeometricSampler sample(1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sample(rng), dist(untouched.engine()));
  }
  EXPECT_EQ(rng.engine()(), Rng(59).engine()());
}

TEST(GeometricSampler, RngGeometricIsTheSampler) {
  Rng a(61);
  Rng b(61);
  const GeometricSampler sample(0.3);
  for (int i = 0; i < 10'000; ++i) EXPECT_EQ(a.geometric(0.3), sample(b));
  EXPECT_THROW(GeometricSampler(0.0), ConfigError);
  EXPECT_THROW(GeometricSampler(1.5), ConfigError);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(47);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 4.0, 0.15);
}

TEST(Rng, RejectsBadParameters) {
  Rng rng(53);
  EXPECT_THROW(rng.bernoulli(-0.1), ConfigError);
  EXPECT_THROW(rng.bernoulli(1.1), ConfigError);
  EXPECT_THROW(rng.geometric(0.0), ConfigError);
  EXPECT_THROW(rng.exponential(0.0), ConfigError);
  EXPECT_THROW(rng.normal(0.0, -1.0), ConfigError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ConfigError);
  EXPECT_THROW(rng.uniform_int(5, 4), ConfigError);
}

}  // namespace
}  // namespace pimsim
