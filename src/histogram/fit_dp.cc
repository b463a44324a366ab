#include "histogram/fit_dp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"
#include "obs/obs.h"
#include "obs/names.h"

namespace histest {
namespace {

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

/// How many scan probes the pruned DP requests per batched cost call; the
/// persistent-tree oracle overlaps this many independent descents. Four
/// lanes saturate the win: probes past the scan's stop point are wasted
/// work, and wider blocks spill the lanes' live state out of registers.
constexpr size_t kScanBlock = 4;

/// Persistent weighted rank tree: a path-copied segment tree over the
/// distinct atom values, with one immutable version per atom prefix
/// (roots_[i] aggregates atoms [0, i)). Any window [s, e] is the
/// difference of versions e+1 and s, so a segment cost is ONE stateless
/// O(log V) descent — no per-window state, no rebuild, and (unlike a
/// sliding-window structure) no O(window) work on the long early-level
/// scans where windows span thousands of atoms. Statelessness also lets
/// the DP evaluate several scan probes at once: Cost4 interleaves up to
/// four descents round-robin, overlapping their dependent node loads for
/// ~4x memory-level parallelism, while producing bit-identical values to
/// four scalar Cost calls (each lane performs the same operations in the
/// same order).
///
/// The median rule matches the exhaustive DP's cost table
/// (tests/reference_fit_dp) exactly: descend to the smallest rank whose
/// cumulative window weight reaches half the total (the same >= tie rule
/// as that table's Fenwick::LowerBound), accumulating the
/// <=-median weight and weight*value aggregates along the way; the cost
///   med*w_le - wv_le + (total_wv - wv_le) - med*(total_w - w_le)
/// is then identical to the reference's on integer inputs (subtree sums
/// of integers are exact in any grouping) and equal to rounding
/// otherwise. Construction is O(M log V) time and pool memory; queries
/// mutate nothing, so results are a pure function of the
/// input (deterministic); 40-byte nodes carry their left child's
/// aggregates inline so each descent step touches one node pair. Gap
/// atoms (cost_weight <= 0) share the previous
/// version; all-gap windows cost 0 with median 0.
class PersistentRankTree {
 public:
  explicit PersistentRankTree(const std::vector<WeightedAtom>& atoms)
      : values_(DistinctSortedValues(atoms)) {
    const size_t m = atoms.size();
    size_t depth = 1;
    pad_ = 1;  // power-of-two rank universe: every descent has fixed depth
    while (pad_ < values_.size()) {
      pad_ <<= 1;
      ++depth;
    }
    nodes_.reserve(1 + m * (depth + 1));
    nodes_.push_back(Node{});  // index 0: shared empty node (self-childed)
    roots_.reserve(m + 1);
    roots_.push_back(0);
    for (size_t i = 0; i < m; ++i) {
      const double w = atoms[i].cost_weight;
      if (w <= 0.0) {  // gap atoms carry no cost
        roots_.push_back(roots_.back());
        continue;
      }
      roots_.push_back(Insert(roots_.back(), RankOf(values_, atoms[i].value),
                              w, w * atoms[i].value));
    }
  }

  /// Weighted-median L1 cost of fitting one constant to atoms [s, e].
  double Cost(size_t s, size_t e) const {
    double out;
    Descend<1>(&s, e, &out, nullptr);
    return out;
  }

  /// out[i] = Cost(s - i, e) for i in [0, blk); blk <= kScanBlock and
  /// s - blk + 1 must be a valid start. The descents run interleaved.
  void CostBlock(size_t s, size_t blk, size_t e, double* out) const {
    size_t starts[kScanBlock];
    for (size_t i = 0; i < blk; ++i) starts[i] = s - i;
    switch (blk) {
      case 1: Descend<1>(starts, e, out, nullptr); break;
      case 2: Descend<2>(starts, e, out, nullptr); break;
      case 3: Descend<3>(starts, e, out, nullptr); break;
      default: Descend<4>(starts, e, out, nullptr); break;
    }
  }

  double MedianValue(size_t s, size_t e) const {
    double cost;
    double med;
    Descend<1>(&s, e, &cost, &med);
    return med;
  }

 private:
  struct Node {
    double w = 0.0;
    double wv = 0.0;
    /// The left child's (w, wv), duplicated inline so a descent step needs
    /// only this node's cache line. Accumulated by the same additions in
    /// the same order as the child's own totals, hence bitwise equal.
    double lw = 0.0;
    double lwv = 0.0;
    uint32_t left = 0;
    uint32_t right = 0;
  };

  uint32_t Clone(uint32_t idx, double w, double wv) {
    Node n = nodes_[idx];
    n.w += w;
    n.wv += wv;
    nodes_.push_back(n);
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  uint32_t Insert(uint32_t root, size_t rank, double w, double wv) {
    const uint32_t new_root = Clone(root, w, wv);
    uint32_t cur = new_root;
    size_t lo = 0;
    size_t hi = pad_;
    while (hi - lo > 1) {
      const size_t mid = lo + (hi - lo) / 2;
      if (rank < mid) {
        nodes_[cur].lw += w;
        nodes_[cur].lwv += wv;
        const uint32_t child = Clone(nodes_[cur].left, w, wv);
        nodes_[cur].left = child;
        cur = child;
        hi = mid;
      } else {
        const uint32_t child = Clone(nodes_[cur].right, w, wv);
        nodes_[cur].right = child;
        cur = child;
        lo = mid;
      }
    }
    return new_root;
  }

  /// kLanes interleaved median descents for windows [starts[i], e]; writes
  /// the window cost per lane and (for the single-lane form) the median.
  /// The padded power-of-two universe gives every lane the same fixed trip
  /// count, and each step selects its child with conditional moves instead
  /// of a data-dependent branch, so the lanes' node-load chains overlap
  /// instead of serializing behind branch mispredictions. Padding never
  /// changes results: dummy ranks carry no weight, and the invariant
  /// acc_w + subtree_weight >= target means the descent turns left before
  /// ever entering an all-dummy subtree.
  template <size_t kLanes>
  void Descend(const size_t* starts, size_t e, double* cost_out,
               double* median_out) const {
    uint32_t a[kLanes], b[kLanes];
    size_t lo[kLanes];
    double tot_w[kLanes], tot_wv[kLanes], target[kLanes];
    double acc_w[kLanes], acc_wv[kLanes];
    for (size_t i = 0; i < kLanes; ++i) {
      a[i] = roots_[e + 1];
      b[i] = roots_[starts[i]];
      lo[i] = 0;
      tot_w[i] = nodes_[a[i]].w - nodes_[b[i]].w;
      tot_wv[i] = nodes_[a[i]].wv - nodes_[b[i]].wv;
      target[i] = 0.5 * tot_w[i];
      acc_w[i] = 0.0;
      acc_wv[i] = 0.0;
    }
    for (size_t half = pad_ >> 1; half >= 1; half >>= 1) {
      for (size_t i = 0; i < kLanes; ++i) {
        const Node& na = nodes_[a[i]];
        const Node& nb = nodes_[b[i]];
        const double lw = na.lw - nb.lw;
        const double lwv = na.lwv - nb.lwv;
        const bool right = acc_w[i] + lw < target[i];
        a[i] = right ? na.right : na.left;
        b[i] = right ? nb.right : nb.left;
        acc_w[i] += right ? lw : 0.0;
        acc_wv[i] += right ? lwv : 0.0;
        lo[i] += right ? half : 0;
        __builtin_prefetch(&nodes_[a[i]]);
        __builtin_prefetch(&nodes_[b[i]]);
      }
    }
    for (size_t i = 0; i < kLanes; ++i) {
      if (!(tot_w[i] > 0.0)) {  // all-gap window
        cost_out[i] = 0.0;
        if (median_out != nullptr) median_out[i] = 0.0;  // like the reference
        continue;
      }
      const double med = values_[std::min(lo[i], values_.size() - 1)];
      const double w_le = acc_w[i] + (nodes_[a[i]].w - nodes_[b[i]].w);
      const double wv_le = acc_wv[i] + (nodes_[a[i]].wv - nodes_[b[i]].wv);
      const double cost = med * w_le - wv_le + (tot_wv[i] - wv_le) -
                          med * (tot_w[i] - w_le);
      // Tiny negative values can appear from float cancellation.
      cost_out[i] = std::max(cost, 0.0);
      if (median_out != nullptr) median_out[i] = med;
    }
  }

  std::vector<double> values_;   // distinct atom values, sorted
  std::vector<Node> nodes_;      // shared path-copy pool; 0 is "empty"
  std::vector<uint32_t> roots_;  // roots_[i] aggregates atoms [0, i)
  size_t pad_ = 1;               // rank universe padded to a power of two
};

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

/// One DP level computed by a cost-bounded backward window scan.
///
/// Note the interval cost w(s, e) = min_c sum w_t |v_t - c| is NOT a Monge
/// matrix on domain-ordered (unsorted) values -- e.g. values 2, 1, 5 give
/// w(0,1) + w(1,2) = 5 > w(0,2) + w(1,1) = 4 -- so SMAWK/divide-and-conquer
/// argmin restriction would return suboptimal fits. The sound structure is
/// superadditivity over concatenation: for s' < s <= e,
///   w(s', e) >= w(s', s-1) + w(s, e),
/// because the single optimal constant for [s', e] pays at least each
/// part's own minimum. Every remaining candidate at s' < s therefore
/// satisfies
///   prev[s'-1] + w(s', e) >= (prev[s'-1] + w(s', s-1)) + w(s, e)
///                         >= cur[s-1] + w(s, e),
/// since prev[s'-1] + w(s', s-1) is one of the candidates cur[s-1]
/// minimized over (the left-to-right sweep has already finalized
/// cur[s-1]). Scanning s downward from e, once that lower bound exceeds
/// the best candidate so far the scan stops — in practice after roughly
/// one optimal piece length, because cur[s-1] + w(s, e) outgrows
/// cur[e] as soon as the window spans more than one optimal piece.
/// Tie-breaking is identical to the exhaustive DP: among equal candidates
/// the smallest s wins (on a tied lower bound the scan continues, so a
/// leftmost equal candidate is never cut off), and a candidate merely
/// equal to prev[e] is never recorded.
///
/// Costs are fetched kScanBlock probes at a time through `cost4` (out[i] =
/// w(s - i, e)) so a batching oracle can overlap the probes' memory
/// latency. Probes past the stop point are computed speculatively but
/// processed strictly in scan order and discarded after the stop, so the
/// level's results are identical to the one-probe-at-a-time scan.
template <typename BatchCostFn>
void RunPrunedLevel(size_t m, const std::vector<double>& prev,
                    std::vector<double>& cur, std::vector<uint32_t>& parent_row,
                    const BatchCostFn& cost4) {
  cur[0] = prev[0];
  parent_row[0] = kNoNewPiece;
  double window4[kScanBlock];
  for (size_t e = 1; e < m; ++e) {
    double best = prev[e];
    uint32_t best_s = kNoNewPiece;
    bool stop = false;
    for (size_t s = e; s >= 1 && !stop; s -= std::min(kScanBlock, s)) {
      const size_t blk = std::min(kScanBlock, s);
      cost4(s, blk, e, window4);
      for (size_t i = 0; i < blk; ++i) {
        const size_t si = s - i;
        const double window = window4[i];
        const double candidate = prev[si - 1] + window;
        if (candidate < best) {
          best = candidate;
          best_s = static_cast<uint32_t>(si);
        } else if (ExactlyEqual(candidate, best) &&
                   best_s != kNoNewPiece) {
          best_s = static_cast<uint32_t>(si);  // leftmost among equal starts
        }
        // Remaining starts are bounded below by cur[si-1] + window; once
        // that cannot strictly beat `best` the scan stops. On an exact tie
        // it may only stop while no real candidate is recorded (a candidate
        // merely equal to prev[e] is never recorded; a recorded one must
        // yield to equal candidates further left).
        const double bound = cur[si - 1] + window;
        if (bound > best ||
            (ExactlyEqual(bound, best) && best_s == kNoNewPiece)) {
          stop = true;
          break;
        }
      }
    }
    cur[e] = best;
    parent_row[e] = best_s;
  }
}

/// Pruned DP: same recurrence, costs, and tie-breaking as the exhaustive
/// DP (tests/reference_fit_dp), but each level scans only cost-bounded
/// windows via RunPrunedLevel. Worst
/// case matches the exhaustive DP; on realistic inputs the scan stops after
/// the local optimal piece length, giving near-linear levels.
template <typename CostFn, typename BatchCostFn, typename ValueFn>
AtomFit RunPieceDpFast(size_t m, size_t k, const CostFn& cost,
                       const BatchCostFn& cost4,
                       const ValueFn& optimal_value) {
  const size_t levels = std::min(k, m);
  std::vector<double> prev(m), cur(m);
  std::vector<std::vector<uint32_t>> parent(
      levels, std::vector<uint32_t>(m, kNoNewPiece));
  for (size_t e = 0; e < m; ++e) {
    prev[e] = cost(0, e);
    parent[0][e] = 0;
  }
  for (size_t j = 1; j < levels; ++j) {
    RunPrunedLevel(m, prev, cur, parent[j], cost4);
    std::swap(prev, cur);
  }
  return ReconstructFit(m, levels, prev[m - 1], parent, optimal_value);
}

Status ValidateFitInput(const std::vector<WeightedAtom>& atoms, size_t k) {
  if (atoms.empty()) return Status::InvalidArgument("atom sequence is empty");
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (atoms.size() > kFitDpFastMaxAtoms) {
    return Status::InvalidArgument(
        "atom sequence too long for exact DP (" +
        std::to_string(atoms.size()) + " > " +
        std::to_string(kFitDpFastMaxAtoms) +
        "); coarsen with GreedyMergeAtoms first");
  }
  for (const auto& a : atoms) {
    if (!(a.length >= 1.0) || !(a.cost_weight >= 0.0) ||
        !std::isfinite(a.value)) {
      return Status::InvalidArgument("invalid atom (length < 1, negative "
                                     "weight, or non-finite value)");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<AtomFit> FitAtomsL1(const std::vector<WeightedAtom>& atoms, size_t k) {
  HISTEST_RETURN_IF_ERROR(ValidateFitInput(atoms, k));
  const PersistentRankTree tree(atoms);
  // The traced path counts probes in its cost oracles; the untraced path
  // keeps plain lambdas, because a counter in the scan costs ~10% on
  // BM_FitAtomsL1Fast even as a local.
  if (!obs::Enabled()) {
    return RunPieceDpFast(
        atoms.size(), k, [&](size_t s, size_t e) { return tree.Cost(s, e); },
        [&](size_t s, size_t blk, size_t e, double* out) {
          tree.CostBlock(s, blk, e, out);
        },
        [&](size_t s, size_t e) { return tree.MedianValue(s, e); });
  }
  // Level 0 probes each of the m prefixes once; the pruned levels probe in
  // blocks.
  int64_t probes = static_cast<int64_t>(atoms.size());
  AtomFit fit = RunPieceDpFast(
      atoms.size(), k, [&](size_t s, size_t e) { return tree.Cost(s, e); },
      [&](size_t s, size_t blk, size_t e, double* out) {
        probes += static_cast<int64_t>(blk);
        tree.CostBlock(s, blk, e, out);
      },
      [&](size_t s, size_t e) { return tree.MedianValue(s, e); });
  obs::AddCount(obs::names::kFitDpL1FastCostProbes, probes);
  obs::AddCount(obs::names::kFitDpL1FastCalls, 1);
  return fit;
}

Result<AtomFit> FitAtomsL2(const std::vector<WeightedAtom>& atoms, size_t k) {
  HISTEST_RETURN_IF_ERROR(ValidateFitInput(atoms, k));
  const size_t m = atoms.size();
  // Prefix sums of weight, weight*value, weight*value^2 give O(1) segment
  // costs.
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
  // Segment costs are O(1) here, so the batch hook is a plain loop.
  auto cost4 = [&](size_t s, size_t blk, size_t e, double* out) {
    for (size_t i = 0; i < blk; ++i) out[i] = cost(s - i, e);
  };
  return RunPieceDpFast(m, k, cost, cost4, value);
}

std::vector<WeightedAtom> AtomsFromDense(const std::vector<double>& values) {
  std::vector<WeightedAtom> atoms;
  size_t start = 0;
  for (size_t i = 1; i <= values.size(); ++i) {
    if (i == values.size() || !ExactlyEqual(values[i], values[start])) {
      const double len = static_cast<double>(i - start);
      atoms.push_back(WeightedAtom{values[start], len, len});
      start = i;
    }
  }
  return atoms;
}

std::vector<size_t> AtomOffsets(const std::vector<WeightedAtom>& atoms) {
  std::vector<size_t> offsets(atoms.size() + 1, 0);
  for (size_t i = 0; i < atoms.size(); ++i) {
    offsets[i + 1] =
        offsets[i] + static_cast<size_t>(std::llround(atoms[i].length));
  }
  return offsets;
}

Result<PiecewiseConstant> FitToPiecewise(const std::vector<WeightedAtom>& atoms,
                                         const AtomFit& fit) {
  const std::vector<size_t>& starts = fit.piece_starts;
  bool malformed = starts.size() != fit.piece_values.size() + 1 ||
                   starts.front() != 0 || starts.back() != atoms.size();
  for (size_t p = 1; !malformed && p < starts.size(); ++p) {
    malformed = starts[p] <= starts[p - 1];
  }
  if (malformed) return Status::InvalidArgument("malformed AtomFit");
  const std::vector<size_t> offsets = AtomOffsets(atoms);
  std::vector<PiecewiseConstant::Piece> pieces;
  for (size_t p = 0; p < fit.piece_values.size(); ++p) {
    pieces.push_back(PiecewiseConstant::Piece{
        Interval{offsets[starts[p]], offsets[starts[p + 1]]},
        fit.piece_values[p]});
  }
  return PiecewiseConstant::Create(offsets.back(), std::move(pieces));
}

Result<DenseFitResult> FitHistogramL1(const std::vector<double>& target,
                                      size_t k) {
  const std::vector<WeightedAtom> atoms = AtomsFromDense(target);
  auto fit = FitAtomsL1(atoms, k);
  HISTEST_RETURN_IF_ERROR(fit.status());
  auto pwc = FitToPiecewise(atoms, fit.value());
  HISTEST_RETURN_IF_ERROR(pwc.status());
  return DenseFitResult{std::move(pwc).value(), fit.value().l1_error};
}

}  // namespace histest
