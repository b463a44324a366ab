#include "reference_fit_dp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/check.h"

namespace histest {
namespace {

/// Fenwick (binary indexed) tree over value ranks, supporting prefix sums
/// and a prefix-threshold search; used for incremental weighted medians.
class Fenwick {
 public:
  explicit Fenwick(size_t n) : tree_(n + 1, 0.0) {}

  void Add(size_t i, double v) {
    for (size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) tree_[j] += v;
  }

  /// Sum of entries [0, i].
  double PrefixSum(size_t i) const {
    double s = 0.0;
    for (size_t j = i + 1; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  }

  double Total() const { return PrefixSum(tree_.size() - 2); }

  /// Smallest index i such that PrefixSum(i) >= target (assumes target <=
  /// Total(); returns the last index otherwise).
  size_t LowerBound(double target) const {
    size_t pos = 0;
    double acc = 0.0;
    size_t pw = 1;
    while ((pw << 1) < tree_.size()) pw <<= 1;
    for (; pw > 0; pw >>= 1) {
      const size_t next = pos + pw;
      if (next < tree_.size() && acc + tree_[next] < target) {
        pos = next;
        acc += tree_[next];
      }
    }
    // pos is the count of entries strictly below the threshold position.
    return std::min(pos, tree_.size() - 2);
  }

  void Clear() { std::fill(tree_.begin(), tree_.end(), 0.0); }

 private:
  std::vector<double> tree_;
};

std::vector<double> DistinctSortedValues(const std::vector<WeightedAtom>& atoms) {
  std::vector<double> values;
  values.reserve(atoms.size());
  for (const auto& a : atoms) values.push_back(a.value);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

size_t RankOf(const std::vector<double>& sorted, double v) {
  return static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
}

/// Sentinel parent entry: this DP level reuses the previous level's solution
/// (fewer pieces suffice). Parents are stored as 32-bit atom indices; the
/// atom cap is far below 2^32.
constexpr uint32_t kNoNewPiece = std::numeric_limits<uint32_t>::max();

}  // namespace

SegmentCostTable::SegmentCostTable(const std::vector<WeightedAtom>& atoms)
    : m_(atoms.size()), atoms_(&atoms) {
  HISTEST_CHECK_GT(m_, 0u);
  HISTEST_CHECK_LE(m_, kMaxAtoms);
  cost_.assign(m_ * m_, 0.0);
  const std::vector<double> values = DistinctSortedValues(atoms);
  Fenwick weight(values.size());
  Fenwick weighted_value(values.size());
  for (size_t s = 0; s < m_; ++s) {
    weight.Clear();
    weighted_value.Clear();
    for (size_t e = s; e < m_; ++e) {
      const WeightedAtom& a = atoms[e];
      if (a.cost_weight > 0.0) {
        const size_t r = RankOf(values, a.value);
        weight.Add(r, a.cost_weight);
        weighted_value.Add(r, a.cost_weight * a.value);
      }
      const double total_w = weight.Total();
      if (total_w <= 0.0) {
        cost_[s * m_ + e] = 0.0;
        continue;
      }
      const size_t med_rank = weight.LowerBound(0.5 * total_w);
      const double med = values[med_rank];
      const double w_le = weight.PrefixSum(med_rank);
      const double s_le = weighted_value.PrefixSum(med_rank);
      const double s_tot = weighted_value.Total();
      const double cost = med * w_le - s_le + (s_tot - s_le) -
                          med * (total_w - w_le);
      // Tiny negative values can appear from float cancellation.
      cost_[s * m_ + e] = std::max(cost, 0.0);
    }
  }
}

double SegmentCostTable::OptimalValue(size_t s, size_t e) const {
  HISTEST_CHECK(s <= e && e < m_);
  // Recompute the weighted median directly (O(len log len)); only called
  // once per reconstructed piece.
  std::vector<std::pair<double, double>> vw;
  double total_w = 0.0;
  for (size_t t = s; t <= e; ++t) {
    const WeightedAtom& a = (*atoms_)[t];
    if (a.cost_weight > 0.0) {
      vw.emplace_back(a.value, a.cost_weight);
      total_w += a.cost_weight;
    }
  }
  if (vw.empty()) return 0.0;
  std::sort(vw.begin(), vw.end());
  double acc = 0.0;
  for (const auto& [v, w] : vw) {
    acc += w;
    if (acc >= 0.5 * total_w) return v;
  }
  return vw.back().first;
}

namespace {

/// Walks the parent table backwards from (levels-1, m-1) and emits the
/// fitted pieces. `total_cost` is the DP value at the final level;
/// `optimal_value(s, e)` supplies the piece constant during reconstruction.
template <typename ValueFn>
AtomFit ReconstructFit(size_t m, size_t levels, double total_cost,
                       const std::vector<std::vector<uint32_t>>& parent,
                       const ValueFn& optimal_value) {
  AtomFit fit;
  fit.l1_error = total_cost;
  std::vector<std::pair<size_t, size_t>> segments;  // [start, end] inclusive
  size_t j = levels - 1;
  size_t e = m - 1;
  while (true) {
    while (j > 0 && parent[j][e] == kNoNewPiece) --j;
    HISTEST_CHECK_NE(parent[j][e], kNoNewPiece);
    const size_t s = parent[j][e];
    segments.emplace_back(s, e);
    if (s == 0) break;
    HISTEST_CHECK_GT(j, 0u);
    e = s - 1;
    --j;
  }
  std::reverse(segments.begin(), segments.end());
  for (const auto& [s_idx, e_idx] : segments) {
    fit.piece_starts.push_back(s_idx);
    fit.piece_values.push_back(optimal_value(s_idx, e_idx));
  }
  fit.piece_starts.push_back(m);
  return fit;
}

/// Exhaustive DP over precomputed segment costs; returns the fit with <= k
/// pieces minimizing total cost. FitAtomsL1's pruned DP must reproduce its
/// costs and (under exact arithmetic) its boundaries, including
/// tie-breaking -- each level records the *leftmost* argmin start, and only
/// on strict improvement over the previous level.
template <typename CostFn, typename ValueFn>
AtomFit RunPieceDp(size_t m, size_t k, const CostFn& cost,
                   const ValueFn& optimal_value) {
  const size_t levels = std::min(k, m);
  std::vector<double> prev(m), cur(m);
  // parent[j][e]: start atom of the last piece at level j, or kNoNewPiece if
  // level j reuses the level j-1 solution (fewer pieces suffice).
  std::vector<std::vector<uint32_t>> parent(
      levels, std::vector<uint32_t>(m, kNoNewPiece));
  for (size_t e = 0; e < m; ++e) {
    prev[e] = cost(0, e);
    parent[0][e] = 0;
  }
  for (size_t j = 1; j < levels; ++j) {
    for (size_t e = 0; e < m; ++e) {
      double best = prev[e];
      uint32_t best_s = kNoNewPiece;
      for (size_t s = 1; s <= e; ++s) {
        const double candidate = prev[s - 1] + cost(s, e);
        if (candidate < best) {
          best = candidate;
          best_s = static_cast<uint32_t>(s);
        }
      }
      cur[e] = best;
      parent[j][e] = best_s;
    }
    std::swap(prev, cur);
  }
  return ReconstructFit(m, levels, prev[m - 1], parent, optimal_value);
}

Status ValidateReferenceInput(const std::vector<WeightedAtom>& atoms,
                              size_t k) {
  if (atoms.empty()) return Status::InvalidArgument("atom sequence is empty");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (atoms.size() > SegmentCostTable::kMaxAtoms) {
    return Status::InvalidArgument(
        "atom sequence too long for the reference DP (" +
        std::to_string(atoms.size()) + " > " +
        std::to_string(SegmentCostTable::kMaxAtoms) + ")");
  }
  return Status::Ok();
}

}  // namespace

Result<AtomFit> ReferenceFitAtomsL1(const std::vector<WeightedAtom>& atoms,
                                    size_t k) {
  HISTEST_RETURN_IF_ERROR(ValidateReferenceInput(atoms, k));
  const SegmentCostTable table(atoms);
  return RunPieceDp(
      atoms.size(), k, [&](size_t s, size_t e) { return table.Cost(s, e); },
      [&](size_t s, size_t e) { return table.OptimalValue(s, e); });
}

Result<AtomFit> ReferenceFitAtomsL2(const std::vector<WeightedAtom>& atoms,
                                    size_t k) {
  HISTEST_RETURN_IF_ERROR(ValidateReferenceInput(atoms, k));
  const size_t m = atoms.size();
  // Prefix sums of weight, weight*value, weight*value^2: O(1) segment costs
  // computed exactly as FitAtomsL2 computes them.
  std::vector<double> w(m + 1, 0.0), wv(m + 1, 0.0), wvv(m + 1, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const double cw = atoms[i].cost_weight;
    const double v = atoms[i].value;
    w[i + 1] = w[i] + cw;
    wv[i + 1] = wv[i] + cw * v;
    wvv[i + 1] = wvv[i] + cw * v * v;
  }
  auto cost = [&](size_t s, size_t e) {
    const double sw = w[e + 1] - w[s];
    if (sw <= 0.0) return 0.0;
    const double swv = wv[e + 1] - wv[s];
    const double swvv = wvv[e + 1] - wvv[s];
    return std::max(swvv - swv * swv / sw, 0.0);
  };
  auto value = [&](size_t s, size_t e) {
    const double sw = w[e + 1] - w[s];
    return sw > 0.0 ? (wv[e + 1] - wv[s]) / sw : 0.0;
  };
  return RunPieceDp(m, k, cost, value);
}

}  // namespace histest
