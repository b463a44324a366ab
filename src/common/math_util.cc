#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <math.h>  // lgamma_r (POSIX, not in <cmath>)

#include "common/check.h"

namespace histest {

void KahanSum::Add(double value) {
  // Neumaier's variant: handles the case |value| > |sum_| as well.
  const double t = sum_ + value;
  if (std::fabs(sum_) >= std::fabs(value)) {
    compensation_ += (sum_ - t) + value;
  } else {
    compensation_ += (value - t) + sum_;
  }
  sum_ = t;
}

double SumOf(const std::vector<double>& values) {
  KahanSum acc;
  for (double v : values) acc.Add(v);
  return acc.Total();
}

bool NearlyEqual(double a, double b, double tol) {
  return std::fabs(a - b) <= tol;
}

double Clamp(double v, double lo, double hi) {
  HISTEST_CHECK_LE(lo, hi);
  return std::min(std::max(v, lo), hi);
}

double LogGamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

double LogChoose(int64_t n, int64_t k) {
  HISTEST_CHECK_GE(k, 0);
  HISTEST_CHECK_LE(k, n);
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return LogGamma(nd + 1.0) - LogGamma(kd + 1.0) - LogGamma(nd - kd + 1.0);
}

int64_t CeilDiv(int64_t a, int64_t b) {
  HISTEST_CHECK_GE(a, 0);
  HISTEST_CHECK_GT(b, 0);
  return (a + b - 1) / b;
}

int64_t CeilToCount(double x) {
  // 2^63 is the first double past int64's range; casting it is UB.
  HISTEST_CHECK(std::isfinite(x) && x < 0x1p63);
  const double c = std::ceil(x);
  return c < 1.0 ? 1 : static_cast<int64_t>(c);
}

std::vector<double> PrefixSums(const std::vector<double>& v) {
  std::vector<double> out(v.size());
  KahanSum acc;
  for (size_t i = 0; i < v.size(); ++i) {
    acc.Add(v[i]);
    out[i] = acc.Total();
  }
  return out;
}

double Log2(double x) {
  HISTEST_CHECK_GT(x, 0.0);
  return std::log2(x);
}

double MedianOf(std::vector<double> values) {
  HISTEST_CHECK(!values.empty());
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid),
                   values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(),
                                values.begin() + static_cast<ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double MeanOf(const std::vector<double>& values) {
  HISTEST_CHECK(!values.empty());
  return SumOf(values) / static_cast<double>(values.size());
}

double StdDevOf(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = MeanOf(values);
  KahanSum acc;
  for (double v : values) acc.Add((v - mean) * (v - mean));
  return std::sqrt(acc.Total() / static_cast<double>(values.size() - 1));
}

}  // namespace histest
