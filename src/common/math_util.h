#ifndef HISTEST_COMMON_MATH_UTIL_H_
#define HISTEST_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace histest {

/// Compensated (Kahan-Neumaier) summation accumulator. Used wherever long
/// probability vectors are summed, so that mass bookkeeping stays accurate
/// to ~1 ulp regardless of n.
class KahanSum {
 public:
  KahanSum() = default;

  /// Adds `value` to the running sum.
  void Add(double value);

  /// Current compensated total.
  double Total() const { return sum_ + compensation_; }

  /// Resets the accumulator to zero.
  void Reset() {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Compensated sum of an entire vector.
double SumOf(const std::vector<double>& values);

/// True iff |a - b| <= tol (absolute tolerance).
bool NearlyEqual(double a, double b, double tol);

/// Bit-for-bit floating-point equality, spelled out. Use this instead of a
/// raw `==`/`!=` when exactness *is* the contract — sentinel values
/// (`p == 0.0`), DP tie-breaking that must match the reference
/// implementation, rejection-sampling guards — so the intent is explicit.
/// The build's -Wfloat-equal flags every other raw compare; this is the one
/// place it is switched off. For tolerant comparison use NearlyEqual.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
constexpr inline bool ExactlyEqual(double a, double b) { return a == b; }
#pragma GCC diagnostic pop

/// Clamps `v` into [lo, hi].
double Clamp(double v, double lo, double hi);

/// log|Gamma(x)|. Same value as std::lgamma, but through the reentrant
/// lgamma_r: std::lgamma also writes glibc's global `signgam`, a data race
/// when trials run on several threads.
double LogGamma(double x);

/// log(n choose k) via LogGamma; requires 0 <= k <= n.
double LogChoose(int64_t n, int64_t k);

/// Ceil division for nonnegative integers.
int64_t CeilDiv(int64_t a, int64_t b);

/// Rounds a positive double up to the next int64 (at least 1); used to turn
/// real-valued sample-complexity formulas into sample counts. CHECKs that x
/// is finite and below 2^63, so the cast is always defined.
int64_t CeilToCount(double x);

/// True when x is a sample budget CeilToCount takes with room to spare:
/// non-negative and below 2^62, so a Poisson draw around it stays in int64.
/// False for NaN and infinity.
inline bool IsCountable(double x) { return x >= 0.0 && x < 0x1p62; }

/// The largest budget multiplier (`sample_scale`, `budget_scale`) a tester
/// accepts. No experiment or search needs more than a few units; a finite
/// but huge scale would push stage budgets past int64.
inline constexpr double kMaxSampleScale = 1e6;

/// Inclusive prefix sums: out[i] = v[0] + ... + v[i] (compensated).
std::vector<double> PrefixSums(const std::vector<double>& v);

/// log base 2; requires x > 0.
double Log2(double x);

/// Median of a vector (average of middle two for even sizes). The input is
/// copied; requires non-empty input.
double MedianOf(std::vector<double> values);

/// Mean of a vector; requires non-empty input.
double MeanOf(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); returns 0 for size < 2.
double StdDevOf(const std::vector<double>& values);

}  // namespace histest

#endif  // HISTEST_COMMON_MATH_UTIL_H_
