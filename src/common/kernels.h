#ifndef HISTEST_COMMON_KERNELS_H_
#define HISTEST_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace histest {

/// Hot-loop accumulation kernels shared by the distance and statistics
/// layers.
///
/// Each kernel sums in a fixed, input-independent order — blocks of
/// kKernelBlock elements reduced in four independent lanes, lane partials
/// combined pairwise, block partials combined with Kahan-Neumaier
/// compensation — so results are deterministic across thread schedules and
/// platforms (same order every call) while the branch-free four-lane inner
/// loops stay auto-vectorization-friendly. Accuracy matches the previous
/// per-element KahanSum loops to a few ulps: within a block at most
/// kKernelBlock/4 uncompensated adds per lane, across blocks fully
/// compensated.
///
/// All pointer arguments may be null iff n == 0.

/// Elements per compensated block. Small enough that in-block rounding is
/// negligible, large enough that the Kahan carry is off the critical path.
inline constexpr size_t kKernelBlock = 1024;

/// sum_i |a[i] - b[i]|.
double L1DistanceKernel(const double* a, const double* b, size_t n);

/// sum_i (a[i] - b[i])^2.
double L2DistanceSquaredKernel(const double* a, const double* b, size_t n);

/// sum_i a[i].
double SumKernel(const double* a, size_t n);

/// sum_i a[i]^2.
double SumSquaresKernel(const double* a, size_t n);

/// sum_i (sqrt(a[i]) - sqrt(b[i]))^2 (Hellinger numerator).
double HellingerAccumulateKernel(const double* a, const double* b, size_t n);

/// Chi-square accumulation sum_i (p[i] - q[i])^2 / q[i] with the repo
/// convention: a term with q[i] <= 0 contributes 0 when p[i] <= 0 and makes
/// the whole sum +infinity otherwise.
double ChiSquareKernel(const double* p, const double* q, size_t n);

/// One block of the [ADK15] chi-square Z statistic:
///   sum_i [dstar[i] >= aeps_cut] * ((c[i] - m*dstar[i])^2 - c[i]) /
///         (m*dstar[i]),
/// where c[i] are sample counts materialized as doubles. Callers stream
/// counts (dense or sparse) through a fixed-size block buffer so both
/// storage modes take the identical summation order (the bit-identical
/// dense/sparse contract of CountVector).
double ZAccumulateKernel(const double* dstar, const double* counts, size_t n,
                         double m, double aeps_cut);

/// Producer-consumer fused kernels. Each fuses the O(n) producer pass of a
/// statistic (expanding a run-length-compressed vector, converting integer
/// counts to doubles) into the reduction itself, so the domain-sized data is
/// streamed exactly once instead of materialize-then-reduce. The results are
/// bit-identical to expanding into a buffer and calling the unfused kernel,
/// because both take the identical summation order.
///
/// Run representation shared by the FusedExpand* kernels: a piecewise-
/// constant vector of length n given as `num_runs` parallel (value,
/// exclusive end offset) pairs, with 0 < ends[0] < ... and
/// ends[num_runs - 1] == n. Element i has value values[r] for the first r
/// with ends[r] > i.

/// sum_i |expand(values, ends)[i] - b[i]|. b == nullptr means the zero
/// vector (|v - 0| == |v| bit-for-bit), i.e. the L1 norm of the expansion.
double FusedExpandL1Kernel(const double* values, const size_t* ends,
                           size_t num_runs, const double* b, size_t n);

/// sum_i (expand(values, ends)[i] - b[i])^2, b == nullptr as above.
double FusedExpandL2Kernel(const double* values, const size_t* ends,
                           size_t num_runs, const double* b, size_t n);

/// ZAccumulateKernel with integer counts converted in-register:
/// c[i] = (double)counts[i] (exact below 2^53). Equals staging the
/// converted block and calling ZAccumulateKernel, bit-for-bit.
double FusedCountsZKernel(const double* dstar, const int64_t* counts,
                          size_t n, double m, double aeps_cut);

/// FusedCountsZKernel cut at its block boundaries, so that one reduction
/// can run on several threads: writes the partial of each block b in
/// [first, last), elements [b * kKernelBlock, min(n, (b + 1) *
/// kKernelBlock)), to partials[b - first]. Adding the partials of blocks
/// 0, 1, ... to one KahanSum in block order gives FusedCountsZKernel(dstar,
/// counts, n, m, aeps_cut) bit-for-bit. The piece with first == 0 counts
/// the one FusedCountsZ call that the whole reduction stands for.
void FusedCountsZPartials(const double* dstar, const int64_t* counts,
                          size_t n, double m, double aeps_cut, size_t first,
                          size_t last, double* partials);

/// ChiSquareKernel with the empirical pmf formed on the fly:
/// p[i] = (double)counts[i] * inv_total. Same q[i] <= 0 convention as
/// ChiSquareKernel.
double FusedCountsChiSquareKernel(const int64_t* counts, double inv_total,
                                  const double* q, size_t n);

}  // namespace histest

#endif  // HISTEST_COMMON_KERNELS_H_
