// Deterministic random number generation (xoshiro256**) with the
// distributions the workload generators and network model need. Every
// simulation owns one root Rng; substreams are derived with fork() so module
// insertion order does not perturb other modules' draws.
//
// The integer draws (next_u64, uniform(), uniform_int, random_lowercase) are
// inline: they are pure integer code plus one exact int->double conversion,
// so inlining cannot change a result, and a call site with constant bounds
// lets the compiler fold `UINT64_MAX % span` and `v % span` into multiplies.
// The floating-point distributions stay out of line.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

namespace tstorm::sim {

/// xoshiro256** seeded via splitmix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t v;
    do {
      v = next_u64();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal via Box-Muller (no caching, keeps the stream simple).
  double normal(double mu, double sigma);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Poisson-distributed count (Knuth for small means, normal approx above).
  std::uint64_t poisson(double mean);

  /// Zipf-distributed rank in [0, n) with exponent s (word frequency model).
  /// Requires s > 1: Devroye's rejection sampler has no finite normalizer
  /// for s <= 1 and would never accept a draw.
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Fills [out, out + length) with random lowercase ASCII letters, one
  /// uniform_int(0, 25) draw per letter in order.
  void random_lowercase(char* out, std::size_t length) {
    for (std::size_t i = 0; i < length; ++i) {
      out[i] = static_cast<char>('a' + uniform_int(0, 25));
    }
  }

  /// Random lowercase ASCII string of the given length.
  std::string random_string(std::size_t length);

  /// Derives an independent substream; advances this stream by one draw.
  Rng fork();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  // Memoized zipf constants: the rejection sampler needs pow(2, s-1) and
  // -1/(s-1), both functions of the exponent alone. Workload generators
  // call zipf with a fixed exponent per stream, so these are computed once
  // instead of per draw. Pure caching — the draw sequence is unchanged.
  // 0.0 is never a valid exponent, so it marks "not computed yet".
  double zipf_s_ = 0.0;
  double zipf_b_ = 0.0;
  double zipf_inv_ = 0.0;
};

}  // namespace tstorm::sim
