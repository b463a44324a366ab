#include "common/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "obs/names.h"
#include "obs/obs.h"

namespace histest {
namespace {

// This translation unit is compiled with -ffp-contract=off (src/CMakeLists):
// letting the optimizer fuse the mul+add patterns below into FMAs per call
// site would break the fused-equals-materialize bit-exactness contract.

/// Shared reduction skeleton: four independent accumulator lanes inside a
/// block (unit-stride, branch-free terms vectorize), pairwise lane combine,
/// Kahan-Neumaier compensation across blocks. The order is a pure function
/// of n, never of the data, so every kernel is deterministic.
///
/// term(i) is called with strictly ascending i — the four lane statements
/// per unrolled step are sequenced calls — so a stateful term lambda may
/// keep a forward cursor (a run index) and feed the reduction directly.
template <typename TermFn>
double BlockedReduce(size_t n, const TermFn& term) {
  KahanSum total;
  size_t base = 0;
  while (base < n) {
    const size_t len = std::min(kKernelBlock, n - base);
    double lane0 = 0.0, lane1 = 0.0, lane2 = 0.0, lane3 = 0.0;
    size_t i = base;
    const size_t end4 = base + (len & ~size_t{3});
    for (; i < end4; i += 4) {
      lane0 += term(i);
      lane1 += term(i + 1);
      lane2 += term(i + 2);
      lane3 += term(i + 3);
    }
    for (; i < base + len; ++i) lane0 += term(i);
    total.Add((lane0 + lane1) + (lane2 + lane3));
    base += len;
  }
  return total.Total();
}

/// Chi-square term with the repo's zero-denominator convention. The +inf
/// sentinel is tracked out-of-band: feeding it through the compensated
/// accumulator would produce inf - inf = NaN.
inline double ChiSquareTerm(double p, double q, bool& infinite) {
  if (q <= 0.0) {
    if (p > 0.0) infinite = true;
    return 0.0;
  }
  const double d = p - q;
  return d * d / q;
}

inline double ZTerm(double dstar, double count, double m, double aeps_cut) {
  if (dstar < aeps_cut) return 0.0;
  const double expected = m * dstar;
  const double dev = count - expected;
  return (dev * dev - count) / expected;
}

}  // namespace

double L1DistanceKernel(const double* a, const double* b, size_t n) {
  obs::AddCount(obs::names::kKernelL1DistanceCalls, 1);
  return BlockedReduce(n, [&](size_t i) { return std::fabs(a[i] - b[i]); });
}

double L2DistanceSquaredKernel(const double* a, const double* b, size_t n) {
  obs::AddCount(obs::names::kKernelL2DistanceSqCalls, 1);
  return BlockedReduce(n, [&](size_t i) {
    const double d = a[i] - b[i];
    return d * d;
  });
}

double SumKernel(const double* a, size_t n) {
  obs::AddCount(obs::names::kKernelSumCalls, 1);
  return BlockedReduce(n, [&](size_t i) { return a[i]; });
}

double SumSquaresKernel(const double* a, size_t n) {
  obs::AddCount(obs::names::kKernelSumSquaresCalls, 1);
  return BlockedReduce(n, [&](size_t i) { return a[i] * a[i]; });
}

double HellingerAccumulateKernel(const double* a, const double* b, size_t n) {
  obs::AddCount(obs::names::kKernelHellingerCalls, 1);
  return BlockedReduce(n, [&](size_t i) {
    const double d = std::sqrt(a[i]) - std::sqrt(b[i]);
    return d * d;
  });
}

double ChiSquareKernel(const double* p, const double* q, size_t n) {
  obs::AddCount(obs::names::kKernelChiSquareCalls, 1);
  bool infinite = false;
  const double sum = BlockedReduce(
      n, [&](size_t i) { return ChiSquareTerm(p[i], q[i], infinite); });
  return infinite ? std::numeric_limits<double>::infinity() : sum;
}

double ZAccumulateKernel(const double* dstar, const double* counts, size_t n,
                         double m, double aeps_cut) {
  obs::AddCount(obs::names::kKernelZAccumulateCalls, 1);
  return BlockedReduce(
      n, [&](size_t i) { return ZTerm(dstar[i], counts[i], m, aeps_cut); });
}

// The fused kernels feed the same skeleton through term lambdas that expand
// the producer in-register, so the summation order (hence every rounding)
// is exactly the materialize-then-reduce order of the unfused kernels.

double FusedExpandL1Kernel(const double* values, const size_t* ends,
                           size_t num_runs, const double* b, size_t n) {
  obs::AddCount(obs::names::kKernelFusedExpandL1Calls, 1);
  (void)num_runs;  // implied by ends[num_runs - 1] == n; kept for symmetry
  size_t run = 0;
  if (b == nullptr) {
    // Null b is the zero vector: |v - 0| == |v| bit-for-bit (also for -0.0
    // and NaN payloads), so the load is simply dropped.
    return BlockedReduce(n, [&](size_t i) {
      while (ends[run] <= i) ++run;
      return std::fabs(values[run]);
    });
  }
  return BlockedReduce(n, [&](size_t i) {
    while (ends[run] <= i) ++run;
    return std::fabs(values[run] - b[i]);
  });
}

double FusedExpandL2Kernel(const double* values, const size_t* ends,
                           size_t num_runs, const double* b, size_t n) {
  obs::AddCount(obs::names::kKernelFusedExpandL2Calls, 1);
  (void)num_runs;
  size_t run = 0;
  if (b == nullptr) {
    return BlockedReduce(n, [&](size_t i) {
      while (ends[run] <= i) ++run;
      const double v = values[run];
      return v * v;
    });
  }
  return BlockedReduce(n, [&](size_t i) {
    while (ends[run] <= i) ++run;
    const double d = values[run] - b[i];
    return d * d;
  });
}

double FusedCountsZKernel(const double* dstar, const int64_t* counts,
                          size_t n, double m, double aeps_cut) {
  obs::AddCount(obs::names::kKernelFusedCountsZCalls, 1);
  // (double)count is exact below 2^53, so converting in-register is
  // bit-identical to staging a converted block and running ZAccumulate.
  return BlockedReduce(n, [&](size_t i) {
    return ZTerm(dstar[i], static_cast<double>(counts[i]), m, aeps_cut);
  });
}

void FusedCountsZPartials(const double* dstar, const int64_t* counts,
                          size_t n, double m, double aeps_cut, size_t first,
                          size_t last, double* partials) {
  if (first == 0) obs::AddCount(obs::names::kKernelFusedCountsZCalls, 1);
  for (size_t b = first; b < last; ++b) {
    // BlockedReduce over one block is that block's partial after one
    // compensated add to a zero accumulator, which no later KahanSum can
    // tell from the partial itself.
    const size_t base = b * kKernelBlock;
    partials[b - first] =
        BlockedReduce(std::min(kKernelBlock, n - base), [&](size_t i) {
          return ZTerm(dstar[base + i], static_cast<double>(counts[base + i]),
                       m, aeps_cut);
        });
  }
}

double FusedCountsChiSquareKernel(const int64_t* counts, double inv_total,
                                  const double* q, size_t n) {
  obs::AddCount(obs::names::kKernelFusedCountsChiSquareCalls, 1);
  bool infinite = false;
  const double sum = BlockedReduce(n, [&](size_t i) {
    return ChiSquareTerm(static_cast<double>(counts[i]) * inv_total, q[i],
                         infinite);
  });
  return infinite ? std::numeric_limits<double>::infinity() : sum;
}

}  // namespace histest
