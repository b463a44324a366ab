#ifndef HISTEST_CORE_APPROX_PART_H_
#define HISTEST_CORE_APPROX_PART_H_

#include "common/status.h"
#include "dist/interval.h"
#include "testing/tester.h"

namespace histest {

/// Tuning of the ApproxPart partitioner (Proposition 3.4 / [ADK15, Claim 1]).
struct ApproxPartOptions {
  /// Sample budget m = ceil(sample_constant * b * log2(b + 2)).
  double sample_constant = 10.0;
  /// An element becomes a singleton interval when its empirical mass is at
  /// least singleton_threshold / b (targets the D(i) >= 1/b guarantee).
  double singleton_threshold = 0.75;
  /// A growing interval is closed once its cumulative empirical mass
  /// reaches close_threshold / b (targets the [1/(2b), 2/b] guarantee).
  double close_threshold = 0.75;
};

/// ApproxPartition's sample budget before rounding up:
/// sample_constant * b * log2(b + 2).
double ApproxPartSampleBudget(double b, const ApproxPartOptions& options);

/// Draws O(b log b) samples and returns a partition of the domain into
/// K <= 2b + 2 intervals such that, with probability >= 9/10:
///   (i)   every element with D(i) >= 1/b is a singleton interval;
///   (ii)  at most two intervals have D(I) < 1/(2b);
///   (iii) every other interval has D(I) in [1/(2b), 2/b].
/// Requires b > 0. The greedy construction sweeps the empirical
/// distribution left to right, emitting singletons for heavy elements and
/// closing accumulating intervals at the mass threshold.
Result<Partition> ApproxPartition(SampleOracle& oracle, double b,
                                  const ApproxPartOptions& options = {});

}  // namespace histest

#endif  // HISTEST_CORE_APPROX_PART_H_
