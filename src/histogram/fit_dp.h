#ifndef HISTEST_HISTOGRAM_FIT_DP_H_
#define HISTEST_HISTOGRAM_FIT_DP_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "dist/piecewise.h"

namespace histest {

/// One atom of a weighted piecewise-fitting problem: a run of `weight`
/// domain elements sharing the target value `value`. Atoms with
/// `cost_weight == 0` act as free gaps: a fitted piece may cover them at no
/// cost (used for discarded subdomains in Algorithm 1's Step 10 check).
struct WeightedAtom {
  double value = 0.0;
  /// Number of domain elements the atom spans (>= 1).
  double length = 1.0;
  /// Weight used in the fitting cost; equals `length` for kept atoms and 0
  /// for gap atoms.
  double cost_weight = 1.0;
};

/// A fitted piecewise-constant function over an atom sequence.
struct AtomFit {
  /// Piece boundaries as atom indices: piece p covers atoms
  /// [starts[p], starts[p+1]) with constant value values[p]; starts has one
  /// trailing entry equal to the atom count.
  std::vector<size_t> piece_starts;
  std::vector<double> piece_values;
  /// Total weighted L1 error: sum over atoms of
  /// cost_weight * |value - fitted|.
  double l1_error = 0.0;
};

/// Atom-count cap for the k-piece DP (memory is the binding constraint:
/// the parent table is min(k, M) * M 32-bit entries).
inline constexpr size_t kFitDpFastMaxAtoms = size_t{1} << 18;

/// Exact best k-piece L1 fit over an atom sequence via dynamic programming.
/// A cost-bounded pruned DP over a persistent (path-copied) weighted rank
/// tree: any segment cost is one stateless O(log V) version-difference
/// descent (V = distinct values), with no O(M^2) table, and the scan
/// fetches four probes at a time through interleaved descents to overlap
/// their memory latency. Each DP cell scans candidate piece starts
/// backward and stops as soon as cur[s-1] + Cost(s, e) exceeds the best
/// candidate — a valid bound for every remaining start because segment
/// costs are superadditive over concatenation (note they are NOT Monge on
/// domain-ordered values, so SMAWK-style argmin restriction would be
/// incorrect). Scans stop after roughly one optimal piece length:
/// ~O(k M L log V) for typical piece length L; the worst case degrades
/// toward the exhaustive scan but never builds the quadratic table.
/// Memory O(M log V) for the tree pool plus min(k, M) * M parent entries.
/// Ties break like the exhaustive DP (leftmost piece start, a new piece
/// only on strict improvement); tests/reference_fit_dp holds that DP as
/// the equivalence oracle. Errors if the atom sequence is empty, k == 0,
/// or M exceeds kFitDpFastMaxAtoms.
Result<AtomFit> FitAtomsL1(const std::vector<WeightedAtom>& atoms, size_t k);

/// Exact best k-piece L2 fit over an atom sequence (piece value = weighted
/// mean; segment costs are O(1) from prefix sums, so the pruned scans cost
/// O(1) per probe). Same preconditions as FitAtomsL1.
/// `l1_error` in the result holds the *L2 squared* error for this variant.
Result<AtomFit> FitAtomsL2(const std::vector<WeightedAtom>& atoms, size_t k);

/// Converts a dense target vector into unit atoms (run-length compressing
/// equal adjacent values first).
std::vector<WeightedAtom> AtomsFromDense(const std::vector<double>& values);

/// Element offset of each atom: offsets[i] is the first domain element of
/// atom i, with one trailing entry equal to the domain size.
std::vector<size_t> AtomOffsets(const std::vector<WeightedAtom>& atoms);

/// Converts an atom fit over `atoms` back into a piecewise-constant function
/// over the original domain (atom lengths give element spans). Errors
/// unless fit.piece_starts starts at 0, increases strictly and ends at
/// atoms.size(), with one more entry than fit.piece_values.
Result<PiecewiseConstant> FitToPiecewise(const std::vector<WeightedAtom>& atoms,
                                         const AtomFit& fit);

/// Exact best k-piece L1 fit to a dense target; convenience wrapper around
/// AtomsFromDense + FitAtomsL1 + FitToPiecewise.
struct DenseFitResult {
  PiecewiseConstant fit;
  double l1_error = 0.0;
};
Result<DenseFitResult> FitHistogramL1(const std::vector<double>& target,
                                      size_t k);

}  // namespace histest

#endif  // HISTEST_HISTOGRAM_FIT_DP_H_
