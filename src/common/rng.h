#ifndef HISTEST_COMMON_RNG_H_
#define HISTEST_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace histest {

/// Deterministic pseudo-random number generator used by every randomized
/// component in the library.
///
/// The core generator is xoshiro256++ seeded via SplitMix64, which gives
/// platform-independent, reproducible streams (unlike <random> distribution
/// adaptors, whose output sequences are implementation-defined). All
/// higher-level samplers (Poisson, Gamma, ...) are implemented in-house for
/// the same reason.
///
/// Rng satisfies the UniformRandomBitGenerator requirements so it can be
/// passed to standard algorithms where sequence stability does not matter.
class Rng {
 public:
  using result_type = uint64_t;

  /// Creates a generator from a 64-bit seed. Distinct seeds yield
  /// (statistically) independent streams.
  explicit Rng(uint64_t seed);

  /// Returns the next 64 uniformly random bits.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface.
  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  /// Returns a uniform double in [0, 1) with 53 random bits of mantissa.
  /// Inline: the count-level samplers draw one per column or coin.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Returns a uniform integer in [0, bound). Requires bound > 0.
  /// Unbiased (Lemire's multiply-shift rejection method).
  uint64_t UniformInt(uint64_t bound);

  /// Fills ints[i] = UniformInt(bound) and doubles[i] = UniformDouble() for
  /// i in [0, count), consuming the stream exactly as `count` interleaved
  /// scalar calls would. Defined inline so batch samplers pay no per-draw
  /// call overhead; this is the generator's hot path.
  void FillPairs(uint64_t bound, uint64_t* ints, double* doubles,
                 int64_t count);

  /// Returns true with probability p (p clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal variate (Marsaglia polar method, cached pair).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Exponential variate with the given rate (mean 1/rate). Requires
  /// rate > 0.
  double Exponential(double rate);

  /// Poisson variate with the given mean. Requires mean >= 0. Uses Knuth's
  /// multiplication method for small means and Hörmann's PTRS transformed
  /// rejection for large means; O(1) expected time for all means.
  int64_t Poisson(double mean);

  /// Binomial(n, p) variate. Requires n >= 0 and p in [0, 1]. Reflects
  /// p > 1/2 to 1 - p, then uses inversion when n*p < 10 and Hörmann's
  /// BTRD transformed rejection otherwise; O(1) expected time for all n, p.
  int64_t Binomial(int64_t n, double p);

  /// Gamma(shape, 1) variate. Requires shape > 0 (Marsaglia-Tsang; boosted
  /// for shape < 1).
  double Gamma(double shape);

  /// Dirichlet(alpha) variate: a random probability vector of the same
  /// length as alpha. Requires all alpha[i] > 0 and alpha non-empty.
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// Symmetric Dirichlet(alpha, ..., alpha) of dimension `dim`.
  std::vector<double> DirichletSymmetric(size_t dim, double alpha);

  /// Fisher-Yates shuffle of `v` (stable across platforms).
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<size_t> Permutation(size_t n);

  /// Derives an independent child generator (for parallel or nested
  /// sampling that must not perturb the parent's stream).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

inline void Rng::FillPairs(uint64_t bound, uint64_t* ints, double* doubles,
                           int64_t count) {
  HISTEST_CHECK_GT(bound, 0u);
  for (int64_t i = 0; i < count; ++i) {
    // Same arithmetic as UniformInt(bound): Lemire multiply-shift with the
    // (astronomically rare for large bounds) rejection loop.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    ints[i] = static_cast<uint64_t>(m >> 64);
    // Same arithmetic as UniformDouble().
    doubles[i] = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
}

}  // namespace histest

#endif  // HISTEST_COMMON_RNG_H_
