// Deterministic, stream-splittable random number generation.
//
// Every stochastic model element owns its own Rng stream derived from a
// single experiment seed, so experiments are reproducible regardless of
// event interleaving and each replication is an independent stream.
//
// Engine: xoshiro256++ (Blackman & Vigna), seeded via SplitMix64 as its
// authors recommend.  The engine satisfies UniformRandomBitGenerator, so
// the standard <random> distributions can run on top of it.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace pimsim {

/// SplitMix64 — used for seeding and cheap stream derivation.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine; UniformRandomBitGenerator-compatible.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x9d2c5680u) { reseed(seed); }

  /// Re-initializes the four state words from a single seed via SplitMix64.
  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// A named random stream with the distributions the models need.
///
/// Streams are derived from (seed, stream_id) pairs; two Rng objects with
/// the same pair produce identical sequences, and distinct stream ids give
/// statistically independent sequences.
class Rng {
 public:
  /// Creates the stream identified by (seed, stream_id).
  explicit Rng(std::uint64_t seed, std::uint64_t stream_id = 0);

  /// Derives a child stream; children with distinct ids are independent.
  [[nodiscard]] Rng split(std::uint64_t child_id) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);
  /// Number of successes in n Bernoulli(p) trials (exact distribution).
  std::uint64_t binomial(std::uint64_t n, double p);
  /// Geometric number of failures before first success, support {0,1,...}.
  /// One-off form of GeometricSampler(p); hold a sampler for a fixed p.
  std::uint64_t geometric(double p);
  /// Exponential variate with the given mean.
  double exponential(double mean);
  /// Normal variate.
  double normal(double mean, double stddev);

  /// Raw engine access (for std:: distributions in client code).
  Xoshiro256pp& engine() { return engine_; }

 private:
  struct Derived {
    std::uint64_t value;
  };
  explicit Rng(Derived derived) : engine_(derived.value), base_(derived.value) {}
  Xoshiro256pp engine_;
  std::uint64_t base_;
};

/// Geometric draws for one fixed p: failures before the first success,
/// support {0, 1, ...}.  It computes log(1 - p) once.  Each draw writes out
/// libstdc++ 12's std::geometric_distribution: a canonical U in [0, 1)
/// from one 64-bit engine output (generate_canonical<double, 53>), then
/// floor(log(1 - U) / log(1 - p)), redrawn while it is past the u64
/// range and rounded with the same half-ulp offset.  Its draws are
/// bit-identical to that distribution's, and outside the engine they
/// depend on libm's log only.  The division stays: multiplying by a
/// precomputed reciprocal is not bit-identical.  p = 1 returns 0 without
/// consuming a draw.
class GeometricSampler {
 public:
  /// Requires p in (0, 1].
  explicit GeometricSampler(double p);

  std::uint64_t operator()(Rng& rng) const {
    if (certain_) return 0;
    // libstdc++'s rounding offset (1 - eps) / 2, and the largest double
    // it converts to the result type.
    constexpr double kNaf = (1.0 - std::numeric_limits<double>::epsilon()) / 2;
    constexpr double kThreshold =
        static_cast<double>(std::numeric_limits<std::uint64_t>::max()) + kNaf;
    double candidate;
    do {
      candidate = std::floor(std::log(1.0 - canonical(rng.engine()())) /
                             log_1_p_);
    } while (candidate >= kThreshold);
    return static_cast<std::uint64_t>(candidate + kNaf);
  }

 private:
  /// generate_canonical<double, 53> over a 64-bit engine: the output
  /// rounded to double, scaled by 2^-64 (exact), and held below 1.
  static double canonical(std::uint64_t bits) {
    const double u = static_cast<double>(bits) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  double log_1_p_;
  bool certain_;  // p == 1
};

}  // namespace pimsim
