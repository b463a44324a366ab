#ifndef HISTEST_TESTS_REFERENCE_FIT_DP_H_
#define HISTEST_TESTS_REFERENCE_FIT_DP_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "histogram/fit_dp.h"

namespace histest {

/// Precomputed L1 segment costs over an atom sequence:
/// Cost(s, e) = min_c sum_{t in [s, e]} cost_weight_t * |value_t - c|,
/// i.e., the weighted-median fitting cost. Construction is
/// O(M^2 log M) time and O(M^2) memory; M is capped (kMaxAtoms).
class SegmentCostTable {
 public:
  static constexpr size_t kMaxAtoms = 4096;

  explicit SegmentCostTable(const std::vector<WeightedAtom>& atoms);

  size_t num_atoms() const { return m_; }

  /// Cost of fitting one constant to atoms [s, e] (inclusive). s <= e < M.
  double Cost(size_t s, size_t e) const {
    HISTEST_DCHECK(s <= e && e < m_);
    return cost_[s * m_ + e];
  }

  /// The optimal constant (a weighted median) for atoms [s, e].
  double OptimalValue(size_t s, size_t e) const;

 private:
  size_t m_;
  std::vector<double> cost_;
  const std::vector<WeightedAtom>* atoms_;  // not owned; outlives the table
};

/// The exhaustive k-piece DP, the equivalence oracle for FitAtomsL1 and
/// FitAtomsL2: every level scans every piece start, O(M^2 (log M + k))
/// time and O(M^2) memory for the L1 cost table. Ties break the same way
/// (leftmost argmin start, a new piece only on strict improvement), so on
/// inputs where arithmetic is exact the fits match bit for bit. Errors if
/// the atom sequence is empty, k == 0, or M exceeds
/// SegmentCostTable::kMaxAtoms.
Result<AtomFit> ReferenceFitAtomsL1(const std::vector<WeightedAtom>& atoms,
                                    size_t k);
Result<AtomFit> ReferenceFitAtomsL2(const std::vector<WeightedAtom>& atoms,
                                    size_t k);

}  // namespace histest

#endif  // HISTEST_TESTS_REFERENCE_FIT_DP_H_
