#ifndef HISTEST_HISTOGRAM_DISTANCE_TO_HK_H_
#define HISTEST_HISTOGRAM_DISTANCE_TO_HK_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "dist/distribution.h"
#include "dist/interval.h"
#include "dist/piecewise.h"
#include "histogram/fit_dp.h"

namespace histest {

/// Certified bracketing of a distance value.
struct DistanceBounds {
  /// Lower bound (from the unconstrained k-piece DP optimum).
  double lower = 0.0;
  /// Upper bound (total variation to an explicitly constructed member of
  /// H_k, so always achievable).
  double upper = 0.0;
};

/// Maximum atom-sequence length handed to the exact k-piece DP; longer
/// sequences are first coarsened by greedy merging (the Lipschitz sandwich
/// then widens the returned bounds by the coarsening error).
inline constexpr size_t kHkDpAtomLimit = 1024;

/// Bounds on d_TV(d, H_k): the distance from an explicit distribution to the
/// class of k-histograms ([CDGR16, Lemma 4.11] offline computation).
///
/// `lower` comes from the exact k-piece L1 fit (every member of H_k is in
/// particular a non-negative k-piece function); `upper` is the exact TV to
/// the better of (a) the mass-preserving average-valued fit and (b) the
/// normalized median-valued fit — both bona fide k-histogram distributions.
/// When coarsening was needed, both bounds are widened by the (exact)
/// coarsening error. Both candidates are evaluated piecewise over atom
/// spans; no O(n) candidate vector is materialized.
Result<DistanceBounds> DistanceToHk(const Distribution& d, size_t k);

/// Step-10 subdomain check: bounds on
///   min over k-piece non-negative piecewise-constant F of
///   d^G_TV(dhat, F),
/// where G is the union of `kept` intervals and the complement intervals are
/// cost-free "gaps" that may host breakpoints. The `kept` intervals must be
/// sorted, disjoint sub-intervals of dhat's domain.
Result<DistanceBounds> RestrictedDistanceToHkPieces(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept, size_t k);

/// Which bound settled a DecideRestrictedDistanceToHk call.
enum class HkBound {
  /// The witness-oscillation lower bound exceeded the threshold: far.
  kWitness,
  /// The greedy k-piece merge fit under the threshold: close.
  kGreedy,
  /// Neither cheap bound decided, so the exact k-piece DP ran.
  kDp,
};

/// "witness", "greedy" or "dp".
const char* HkBoundName(HkBound bound);

/// A threshold decision on the Step-10 restricted distance.
struct HkDecision {
  /// True iff RestrictedDistanceToHkPieces(...).lower <= threshold.
  bool close = false;
  /// A valid bracket on the restricted distance. With kDp it is the exact
  /// DP bracket. With kWitness or kGreedy it is [witness, greedy + slack]
  /// (slack: the coarsening error), which encloses the DP bracket; only the
  /// end that decided is compared with the threshold.
  DistanceBounds bounds;
  HkBound decided_by = HkBound::kDp;
};

/// Decides RestrictedDistanceToHkPieces(dhat, kept, k).lower <= threshold
/// with the same verdict, running the exact k-piece DP only when neither
/// cheap bound settles it: the witness lower bound above the threshold
/// decides far, and a greedy k-piece merge fit below it decides close.
Result<HkDecision> DecideRestrictedDistanceToHk(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept, size_t k,
    double threshold);

/// Builds the weighted atom sequence of a piecewise hypothesis intersected
/// with a kept-subdomain: kept spans carry their length as cost weight,
/// complement spans become zero-weight gap atoms. Shared by the H_k and
/// k-modal subdomain distance computations. `kept` must be sorted,
/// disjoint, non-empty sub-intervals of dhat's domain.
Result<std::vector<WeightedAtom>> BuildSubdomainAtoms(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept);

}  // namespace histest

#endif  // HISTEST_HISTOGRAM_DISTANCE_TO_HK_H_
