#include "common/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"

namespace histest {
namespace {

std::vector<double> RandomVector(Rng& rng, size_t n, double scale) {
  std::vector<double> v(n);
  for (double& x : v) x = scale * rng.UniformDouble();
  return v;
}

/// Sizes probing the block/lane edges: empty, sub-lane, lane remainder,
/// exactly one block, one block plus a tail, several blocks.
const size_t kEdgeSizes[] = {0,    1,    3,    4,    5,
                             1023, 1024, 1025, 4099, 3 * 1024};

/// Equality that treats any-NaN == any-NaN (payloads are irrelevant).
bool NanSafeEq(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return ExactlyEqual(a, b);
}

/// The summation order documented in kernels.h, transcribed independently:
/// blocks of kKernelBlock elements, four stride-4 lanes per block with the
/// sub-lane tail in lane 0, pairwise lane combine, Kahan-Neumaier across
/// blocks. The kernels must match it bit-for-bit: every verdict and sample
/// count the experiments print depends on this order staying fixed. (This
/// file is compiled with -ffp-contract=off, like common/kernels.cc.)
template <typename TermFn>
double ReferenceReduce(size_t n, const TermFn& term) {
  KahanSum total;
  for (size_t base = 0; base < n; base += kKernelBlock) {
    const size_t end = std::min(n, base + kKernelBlock);
    const size_t body = base + (end - base) / 4 * 4;
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t i = base; i < body; ++i) lanes[(i - base) % 4] += term(i);
    for (size_t i = body; i < end; ++i) lanes[0] += term(i);
    total.Add((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
  }
  return total.Total();
}

double RefL1(const double* a, const double* b, size_t n) {
  return ReferenceReduce(n, [&](size_t i) { return std::fabs(a[i] - b[i]); });
}

double RefSum(const double* a, size_t n) {
  return ReferenceReduce(n, [&](size_t i) { return a[i]; });
}

double RefSumSquares(const double* a, size_t n) {
  return ReferenceReduce(n, [&](size_t i) { return a[i] * a[i]; });
}

double RefZ(const double* dstar, const double* c, size_t n, double m,
            double cut) {
  return ReferenceReduce(n, [&](size_t i) {
    if (dstar[i] < cut) return 0.0;
    const double expected = m * dstar[i];
    const double dev = c[i] - expected;
    return (dev * dev - c[i]) / expected;
  });
}

TEST(KernelsTest, SumMatchesKahanReference) {
  Rng rng(991);
  for (const size_t n : kEdgeSizes) {
    const std::vector<double> a = RandomVector(rng, n, 1.0);
    KahanSum ref;
    for (double x : a) ref.Add(x);
    EXPECT_NEAR(SumKernel(a.data(), n), ref.Total(),
                1e-12 * static_cast<double>(n + 1))
        << "n=" << n;
  }
}

TEST(KernelsTest, ExactOnIntegerInputs) {
  // Integer-valued doubles sum exactly in every order, so the kernel must
  // agree bit-for-bit with a plain loop.
  Rng rng(992);
  for (const size_t n : kEdgeSizes) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = std::floor(rng.UniformDouble() * 64.0);
      b[i] = std::floor(rng.UniformDouble() * 64.0);
    }
    double sum = 0.0, l1 = 0.0, l2 = 0.0, sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += a[i];
      l1 += std::fabs(a[i] - b[i]);
      l2 += (a[i] - b[i]) * (a[i] - b[i]);
      sq += a[i] * a[i];
    }
    EXPECT_EQ(SumKernel(a.data(), n), sum) << "n=" << n;
    EXPECT_EQ(L1DistanceKernel(a.data(), b.data(), n), l1) << "n=" << n;
    EXPECT_EQ(L2DistanceSquaredKernel(a.data(), b.data(), n), l2)
        << "n=" << n;
    EXPECT_EQ(SumSquaresKernel(a.data(), n), sq) << "n=" << n;
  }
}

TEST(KernelsTest, DistanceKernelsMatchNaive) {
  Rng rng(993);
  for (const size_t n : kEdgeSizes) {
    const std::vector<double> a = RandomVector(rng, n, 1.0);
    const std::vector<double> b = RandomVector(rng, n, 1.0);
    double l1 = 0.0, l2 = 0.0, hell = 0.0;
    for (size_t i = 0; i < n; ++i) {
      l1 += std::fabs(a[i] - b[i]);
      l2 += (a[i] - b[i]) * (a[i] - b[i]);
      const double d = std::sqrt(a[i]) - std::sqrt(b[i]);
      hell += d * d;
    }
    EXPECT_NEAR(L1DistanceKernel(a.data(), b.data(), n), l1, 1e-10);
    EXPECT_NEAR(L2DistanceSquaredKernel(a.data(), b.data(), n), l2, 1e-10);
    EXPECT_NEAR(HellingerAccumulateKernel(a.data(), b.data(), n), hell,
                1e-10);
  }
}

TEST(KernelsTest, Deterministic) {
  Rng rng(994);
  const std::vector<double> a = RandomVector(rng, 4099, 1.0);
  const std::vector<double> b = RandomVector(rng, 4099, 1.0);
  // Bit-identical across calls: the summation order is a pure function of n.
  EXPECT_EQ(L1DistanceKernel(a.data(), b.data(), a.size()),
            L1DistanceKernel(a.data(), b.data(), a.size()));
  EXPECT_EQ(SumKernel(a.data(), a.size()), SumKernel(a.data(), a.size()));
}

TEST(KernelsTest, ChiSquareMatchesNaiveAndHandlesInfinity) {
  Rng rng(995);
  const size_t n = 2000;
  std::vector<double> p = RandomVector(rng, n, 1.0);
  std::vector<double> q = RandomVector(rng, n, 1.0);
  double ref = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ref += (p[i] - q[i]) * (p[i] - q[i]) / q[i];
  }
  EXPECT_NEAR(ChiSquareKernel(p.data(), q.data(), n), ref, 1e-8);

  // q == 0 with p == 0 contributes nothing...
  q[7] = 0.0;
  p[7] = 0.0;
  EXPECT_TRUE(std::isfinite(ChiSquareKernel(p.data(), q.data(), n)));
  // ...but q == 0 with p > 0 makes the whole sum infinite (and must not
  // produce NaN through the compensated accumulator).
  p[7] = 0.5;
  EXPECT_TRUE(std::isinf(ChiSquareKernel(p.data(), q.data(), n)));
}

TEST(KernelsTest, ZAccumulateMatchesNaive) {
  Rng rng(996);
  const size_t n = 1500;
  const double m = 1e4;
  std::vector<double> dstar = RandomVector(rng, n, 2.0 / static_cast<double>(n));
  std::vector<double> counts(n);
  for (double& c : counts) c = std::floor(rng.UniformDouble() * 20.0);
  const double aeps_cut = 0.5 / static_cast<double>(n);
  double ref = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (dstar[i] < aeps_cut) continue;
    const double expected = m * dstar[i];
    const double dev = counts[i] - expected;
    ref += (dev * dev - counts[i]) / expected;
  }
  EXPECT_NEAR(ZAccumulateKernel(dstar.data(), counts.data(), n, m, aeps_cut),
              ref, 1e-7 * std::fabs(ref) + 1e-9);
  // Zero counts still contribute (term == expected), so a cut below every
  // dstar keeps all terms.
  EXPECT_NE(ZAccumulateKernel(dstar.data(), counts.data(), n, m, 0.0), 0.0);
}

TEST(KernelsTest, EmptyInputsReturnZero) {
  EXPECT_EQ(SumKernel(nullptr, 0), 0.0);
  EXPECT_EQ(L1DistanceKernel(nullptr, nullptr, 0), 0.0);
  EXPECT_EQ(ChiSquareKernel(nullptr, nullptr, 0), 0.0);
  EXPECT_EQ(ZAccumulateKernel(nullptr, nullptr, 0, 1.0, 0.0), 0.0);
}

TEST(KernelsTest, RandomInputsOnEdgeSizes) {
  Rng rng(4101);
  for (const size_t n : kEdgeSizes) {
    const std::vector<double> a = RandomVector(rng, n, 1.0);
    const std::vector<double> b = RandomVector(rng, n, 1.0);
    const double* pa = a.data();
    const double* pb = b.data();
    const double m = 1e4;
    const double cut = 0.25 / static_cast<double>(n + 1);
    const double ref_l2 = ReferenceReduce(n, [&](size_t i) {
      const double d = pa[i] - pb[i];
      return d * d;
    });
    const double ref_hellinger = ReferenceReduce(n, [&](size_t i) {
      const double d = std::sqrt(pa[i]) - std::sqrt(pb[i]);
      return d * d;
    });
    const double ref_chi = ReferenceReduce(n, [&](size_t i) {
      const double d = pa[i] - pb[i];
      return d * d / pb[i];
    });
    EXPECT_TRUE(NanSafeEq(L1DistanceKernel(pa, pb, n), RefL1(pa, pb, n)))
        << "n=" << n;
    EXPECT_TRUE(NanSafeEq(L2DistanceSquaredKernel(pa, pb, n), ref_l2))
        << "n=" << n;
    EXPECT_TRUE(NanSafeEq(SumKernel(pa, n), RefSum(pa, n))) << "n=" << n;
    EXPECT_TRUE(NanSafeEq(SumSquaresKernel(pa, n), RefSumSquares(pa, n)))
        << "n=" << n;
    EXPECT_TRUE(
        NanSafeEq(HellingerAccumulateKernel(pa, pb, n), ref_hellinger))
        << "n=" << n;
    EXPECT_TRUE(NanSafeEq(ChiSquareKernel(pa, pb, n), ref_chi)) << "n=" << n;
    EXPECT_TRUE(NanSafeEq(ZAccumulateKernel(pa, pb, n, m, cut),
                          RefZ(pa, pb, n, m, cut)))
        << "n=" << n;
  }
}

TEST(KernelsTest, UnalignedBases) {
  // Results must not depend on pointer alignment: every misaligned view
  // reduces bit-for-bit like an aligned copy of the same elements.
  Rng rng(4102);
  const size_t n = 1029;
  const std::vector<double> a = RandomVector(rng, n + 8, 1.0);
  const std::vector<double> b = RandomVector(rng, n + 8, 1.0);
  for (size_t off = 1; off < 8; ++off) {
    const double* pa = a.data() + off;
    const double* pb = b.data() + off;
    const std::vector<double> ca(pa, pa + n);
    const std::vector<double> cb(pb, pb + n);
    EXPECT_EQ(L1DistanceKernel(pa, pb, n),
              L1DistanceKernel(ca.data(), cb.data(), n))
        << "off=" << off;
    EXPECT_EQ(SumKernel(pa, n), SumKernel(ca.data(), n)) << "off=" << off;
    EXPECT_EQ(ChiSquareKernel(pa, pb, n),
              ChiSquareKernel(ca.data(), cb.data(), n))
        << "off=" << off;
    EXPECT_EQ(ZAccumulateKernel(pa, pb, n, 100.0, 1e-4),
              ZAccumulateKernel(ca.data(), cb.data(), n, 100.0, 1e-4))
        << "off=" << off;
  }
}

TEST(KernelsTest, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double den = std::numeric_limits<double>::denorm_min();
  const size_t n = 1030;  // one block plus a sub-lane tail
  Rng rng(4103);
  std::vector<double> a = RandomVector(rng, n, 1.0);
  std::vector<double> b = RandomVector(rng, n, 1.0);
  // Infinities and denormals alone, in the lane body and the tail.
  a[200] = inf;
  b[201] = -inf;
  a[300] = den;
  b[301] = -den;
  b[n - 2] = inf;
  const auto check = [&](const char* what) {
    EXPECT_TRUE(NanSafeEq(L1DistanceKernel(a.data(), b.data(), n),
                          RefL1(a.data(), b.data(), n)))
        << what;
    EXPECT_TRUE(NanSafeEq(SumKernel(a.data(), n), RefSum(a.data(), n)))
        << what;
    EXPECT_TRUE(
        NanSafeEq(SumSquaresKernel(a.data(), n), RefSumSquares(a.data(), n)))
        << what;
    EXPECT_TRUE(NanSafeEq(ZAccumulateKernel(a.data(), b.data(), n, 50.0, 0.5),
                          RefZ(a.data(), b.data(), n, 50.0, 0.5)))
        << what;
  };
  check("inf+denormal");
  // Then NaNs as well: any NaN poisons the sum.
  a[17] = nan;
  b[33] = nan;
  a[n - 1] = nan;
  check("nan");
  EXPECT_TRUE(std::isnan(SumKernel(a.data(), n)));
  EXPECT_TRUE(std::isnan(L1DistanceKernel(a.data(), b.data(), n)));
}

TEST(KernelsTest, ChiSquareZeroDenominatorConvention) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const size_t n = 1027;
  Rng rng(4104);
  std::vector<double> p = RandomVector(rng, n, 1.0);
  std::vector<double> q = RandomVector(rng, n, 1.0);
  // q == 0, p == 0: no contribution, sum stays finite.
  p[9] = 0.0;
  q[9] = 0.0;
  q[n - 1] = -0.0;  // negative zero is <= 0 too
  p[n - 1] = 0.0;
  EXPECT_TRUE(std::isfinite(ChiSquareKernel(p.data(), q.data(), n)));
  // q <= 0 with p > 0 anywhere (lane body or tail) => +inf, never NaN.
  p[9] = 0.5;
  EXPECT_EQ(ChiSquareKernel(p.data(), q.data(), n),
            std::numeric_limits<double>::infinity());
  p[9] = 0.0;
  p[n - 1] = 0.5;
  EXPECT_EQ(ChiSquareKernel(p.data(), q.data(), n),
            std::numeric_limits<double>::infinity());
  // NaN q is NOT <= 0: the term is computed and poisons the sum.
  p[n - 1] = 0.0;
  q[4] = nan;
  EXPECT_TRUE(std::isnan(ChiSquareKernel(p.data(), q.data(), n)));
}

TEST(KernelsTest, ZAccumulateNanCutSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const size_t n = 517;
  Rng rng(4105);
  std::vector<double> dstar = RandomVector(rng, n, 1e-3);
  std::vector<double> counts = RandomVector(rng, n, 20.0);
  // NaN dstar is not < cut, so it is kept and must poison the sum.
  dstar[123] = nan;
  EXPECT_TRUE(std::isnan(
      ZAccumulateKernel(dstar.data(), counts.data(), n, 100.0, 1e-4)));
  // A cut above every dstar drops everything, including division hazards.
  dstar[123] = 0.0;  // m * 0 == 0 divisor must be dropped, not divided by
  EXPECT_EQ(ZAccumulateKernel(dstar.data(), counts.data(), n, 100.0, 1.0),
            0.0);
}

}  // namespace
}  // namespace histest
