#ifndef HISTEST_HISTOGRAM_FIT_MERGE_H_
#define HISTEST_HISTOGRAM_FIT_MERGE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "dist/empirical.h"
#include "dist/piecewise.h"
#include "histogram/fit_dp.h"

namespace histest {

/// Result of greedily coarsening an atom sequence.
struct CoarsenResult {
  /// Coarsened atoms: each output atom covers a contiguous run of input
  /// atoms, valued at the run's weighted median, with summed length/weight.
  std::vector<WeightedAtom> atoms;
  /// Exact weighted L1 distance between the original and coarsened
  /// sequences: sum of the merged runs' weighted-median costs.
  double coarsening_error = 0.0;
};

/// Greedy bottom-up merging: repeatedly merges the adjacent segment pair
/// whose weighted-median L1 cost increases least, until at most
/// `target_count` segments remain. This is the classical histogram
/// "merging" construction ([CDSS14]/[ADLS15] style): an O(1)-approximate
/// agnostic fit whose error also certifies a coarsening bound for the exact
/// DP (see DistanceToHk).
Result<CoarsenResult> GreedyMergeAtoms(const std::vector<WeightedAtom>& atoms,
                                       size_t target_count);

/// Agnostic histogram learner: builds the empirical distribution from
/// `counts`, greedily merges it down to `t` pieces, and returns the
/// piecewise-constant hypothesis valued at each piece's empirical average.
/// Averages preserve every piece's mass, so the result is normalized. With
/// m = O(t / eps^2) samples this is an O(1)-approximate agnostic L1 learner
/// for H_t.
Result<PiecewiseConstant> LearnMergedHistogram(const CountVector& counts,
                                               size_t t);

}  // namespace histest

#endif  // HISTEST_HISTOGRAM_FIT_MERGE_H_
