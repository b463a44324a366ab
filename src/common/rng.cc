#include "common/rng.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {
namespace {

/// SplitMix64 step, used to expand the user seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // xoshiro256++ requires a nonzero state; SplitMix64 makes an all-zero
  // expansion astronomically unlikely, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::UniformDouble(double lo, double hi) {
  HISTEST_CHECK_LE(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

uint64_t Rng::UniformInt(uint64_t bound) {
  HISTEST_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless unbiased method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = 2.0 * UniformDouble() - 1.0;
    v = 2.0 * UniformDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || ExactlyEqual(s, 0.0));
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Exponential(double rate) {
  HISTEST_CHECK_GT(rate, 0.0);
  // -log of a uniform in (0, 1]; 1 - U avoids log(0).
  return -std::log1p(-UniformDouble()) / rate;
}

int64_t Rng::Poisson(double mean) {
  HISTEST_CHECK_GE(mean, 0.0);
  if (ExactlyEqual(mean, 0.0)) return 0;
  if (mean < 10.0) {
    // Knuth's multiplication method: product of uniforms vs exp(-mean).
    const double limit = std::exp(-mean);
    double prod = 1.0;
    int64_t k = -1;
    do {
      ++k;
      prod *= UniformDouble();
    } while (prod > limit);
    return k;
  }
  // Hörmann's PTRS (transformed rejection with squeeze), exact for
  // mean >= 10; expected O(1) trials.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  const double log_mean = std::log(mean);
  while (true) {
    const double u = UniformDouble() - 0.5;
    const double v = UniformDouble();
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) {
      // Never negative for a mean >= 10 on this branch; checked all the same,
      // since dense DrawCounts adopts the counts drawn from here without
      // re-reading them.
      HISTEST_CHECK_GE(kf, 0.0);
      return static_cast<int64_t>(kf);
    }
    if (kf < 0.0 || (us < 0.013 && v > us)) continue;
    const double k = kf;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * log_mean - mean - LogGamma(k + 1.0)) {
      return static_cast<int64_t>(kf);
    }
  }
}

int64_t Rng::Binomial(int64_t n, double p) {
  HISTEST_CHECK_GE(n, 0);
  HISTEST_CHECK_GE(p, 0.0);
  HISTEST_CHECK_LE(p, 1.0);
  if (n == 0 || ExactlyEqual(p, 0.0)) return 0;
  if (ExactlyEqual(p, 1.0)) return n;
  if (p > 0.5) return n - Binomial(n, 1.0 - p);
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double r = p / q;
  if (nd * p < 10.0) {
    // Inversion: walk the pmf up from 0 with the ratio recurrence
    // P(x) = P(x - 1) * ((n + 1) r / x - r). The walk is short because
    // n*p < 10; it stops once the remaining terms are below 2^-60.
    const double u = UniformDouble();
    double pmf = std::exp(nd * std::log1p(-p));
    KahanSum cdf;
    cdf.Add(pmf);
    int64_t x = 0;
    while (u >= cdf.Total() && x < n) {
      ++x;
      const double next = pmf * ((nd + 1.0) * r / static_cast<double>(x) - r);
      if (next < 0x1.0p-60 && next < pmf) break;
      pmf = next;
      cdf.Add(pmf);
    }
    return x;
  }
  // Hörmann's BTRD (transformed rejection with decomposition), exact for
  // n*p >= 10; expected O(1) trials.
  const int64_t mode = static_cast<int64_t>((nd + 1.0) * p);
  const double nr = (nd + 1.0) * r;
  const double npq = nd * p * q;
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  // Stirling-series remainder log(k!) - [(k + 1/2) log(k + 1) - (k + 1) +
  // log(2 pi) / 2]; the series is accurate to ~1e-16 from k = 10 on.
  constexpr double kHalfLog2Pi = 0.91893853320467274178;  // log(2 pi) / 2
  const auto fc = [](int64_t k) {
    const double kd = static_cast<double>(k);
    if (k < 10) {
      return LogGamma(kd + 1.0) - (kd + 0.5) * std::log(kd + 1.0) +
             (kd + 1.0) - kHalfLog2Pi;
    }
    const double inv = 1.0 / (kd + 1.0);
    const double inv2 = inv * inv;
    return (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv;
  };
  while (true) {
    double v = UniformDouble();
    double u;
    if (v <= u_rv_r) {
      // Immediate acceptance in the hat's central box.
      u = v / v_r - 0.43;
      return static_cast<int64_t>(
          std::floor((2.0 * a / (0.5 - std::fabs(u)) + b) * u + c));
    }
    if (v >= v_r) {
      u = UniformDouble() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = UniformDouble() * v_r;
    }
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2.0 * a / us + b) * u + c);
    if (!(kf >= 0.0 && kf <= nd)) continue;  // also rejects inf/NaN at us=0
    const int64_t k = static_cast<int64_t>(kf);
    v = v * alpha / (a / (us * us) + b);
    const int64_t km = k > mode ? k - mode : mode - k;
    if (km <= 15) {
      // Evaluate f(k) / f(mode) by the pmf's ratio recurrence.
      double f = 1.0;
      for (int64_t i = mode + 1; i <= k; ++i) {
        f *= nr / static_cast<double>(i) - r;
      }
      for (int64_t i = k + 1; i <= mode; ++i) {
        v *= nr / static_cast<double>(i) - r;
      }
      if (v <= f) return k;
      continue;
    }
    // Squeeze on log f(k) / f(mode), then the exact Stirling test.
    v = std::log(v);
    const double kmd = static_cast<double>(km);
    const double rho =
        (kmd / npq) * (((kmd / 3.0 + 0.625) * kmd + 1.0 / 6.0) / npq + 0.5);
    const double t = -kmd * kmd / (2.0 * npq);
    if (v < t - rho) return k;
    if (v > t + rho) continue;
    const double nm = static_cast<double>(n - mode + 1);
    const double h =
        (static_cast<double>(mode) + 0.5) *
            std::log((static_cast<double>(mode) + 1.0) / (r * nm)) +
        fc(mode) + fc(n - mode);
    const double nk = static_cast<double>(n - k + 1);
    if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                 (kf + 0.5) * std::log(nk * r / (kf + 1.0)) - fc(k) -
                 fc(n - k)) {
      return k;
    }
  }
}

double Rng::Gamma(double shape) {
  HISTEST_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
    const double u = UniformDouble();
    // Guard against u == 0 (probability ~2^-53): retry via recursion depth 1.
    if (ExactlyEqual(u, 0.0)) return Gamma(shape);
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x, v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alpha) {
  HISTEST_CHECK(!alpha.empty());
  std::vector<double> out(alpha.size());
  for (size_t i = 0; i < alpha.size(); ++i) {
    HISTEST_CHECK_GT(alpha[i], 0.0);
    out[i] = Gamma(alpha[i]);
  }
  const double total = SumOf(out);
  // All-zero draws have probability zero in exact arithmetic; with floating
  // point and tiny alphas it can happen, so fall back to uniform.
  if (total <= 0.0) {
    const double unif = 1.0 / static_cast<double>(alpha.size());
    for (auto& v : out) v = unif;
    return out;
  }
  for (auto& v : out) v /= total;
  return out;
}

std::vector<double> Rng::DirichletSymmetric(size_t dim, double alpha) {
  HISTEST_CHECK_GT(dim, 0u);
  return Dirichlet(std::vector<double>(dim, alpha));
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(perm);
  return perm;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace histest
