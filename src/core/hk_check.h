#ifndef HISTEST_CORE_HK_CHECK_H_
#define HISTEST_CORE_HK_CHECK_H_

#include <vector>

#include "common/status.h"
#include "dist/interval.h"
#include "dist/piecewise.h"
#include "histogram/distance_to_hk.h"

namespace histest {

/// Tuning of Algorithm 1's Step-10 offline check.
struct HkCheckOptions {
  /// Accept when the certified lower bound on the restricted distance is at
  /// most threshold_fraction * eps. The paper uses eps/60 with its literal
  /// constants; the calibrated default matches the calibrated learner
  /// accuracy (see HistogramTesterOptions).
  double threshold_fraction = 1.0 / 12.0;
};

/// Outcome of the Step-10 check. `close` is the verdict and `decided_by`
/// names the bound that settled it. `bounds` is always a valid bracket on
/// the restricted distance, but it is tight only on the side that decided:
/// - kDp: the exact DP bracket, as RestrictedDistanceToHkPieces returns it.
/// - kWitness (far): [witness, greedy + slack]; `lower`, the witness, is
///   above the threshold.
/// - kGreedy (close): the same [witness, greedy + slack]; the greedy k-piece
///   fit minus the coarsening slack (slack is 0 unless the subdomain has
///   more than kHkDpAtomLimit atoms) is below the threshold.
/// Both short-circuit brackets enclose the DP bracket. An empty subdomain is
/// vacuously close with bracket [0, 0] and decided_by kGreedy: every fit
/// costs nothing there.
using HkCheckResult = HkDecision;

/// Step 10 of Algorithm 1: decides whether some k-histogram is
/// (threshold_fraction * eps)-close to the learned hypothesis `dhat` in
/// total variation restricted to the kept subdomain G (the union of active
/// partition intervals). The exact answer is the dynamic program of
/// [CDGR16, Lemma 4.11] (RestrictedDistanceToHkPieces); the check settles
/// most calls from its cheap witness and greedy bounds and runs the DP only
/// when they disagree (DecideRestrictedDistanceToHk), with the same
/// verdict.
Result<HkCheckResult> CheckCloseToHkOnSubdomain(
    const PiecewiseConstant& dhat, const Partition& partition,
    const std::vector<bool>& active, size_t k, double eps,
    const HkCheckOptions& options = {});

/// Merges the active intervals of a partition into maximal contiguous kept
/// intervals (the subdomain G).
std::vector<Interval> ActiveSubdomain(const Partition& partition,
                                      const std::vector<bool>& active);

}  // namespace histest

#endif  // HISTEST_CORE_HK_CHECK_H_
