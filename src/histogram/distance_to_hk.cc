#include "histogram/distance_to_hk.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "histogram/fit_dp.h"
#include "histogram/fit_merge.h"

namespace histest {
namespace {

/// Coarsens `atoms` to fit the DP limit if needed; returns the (possibly
/// identical) sequence plus the exact coarsening L1 error.
Result<CoarsenResult> MaybeCoarsen(std::vector<WeightedAtom> atoms,
                                   size_t limit) {
  if (atoms.size() <= limit) {
    return CoarsenResult{std::move(atoms), 0.0};
  }
  return GreedyMergeAtoms(atoms, limit);
}

/// L1 distance between a run-length-compressed target (atoms `orig` with
/// element offsets `orig_offsets`) and a piecewise-constant candidate given
/// by element boundaries `piece_bounds` (size P+1) and values
/// `piece_values` (size P). Both partitions cover the same domain. A single
/// merged two-pointer sweep: O(|orig| + P) instead of O(n), with a fixed
/// left-to-right summation order.
double PiecewiseCandidateL1(const std::vector<WeightedAtom>& orig,
                            const std::vector<size_t>& orig_offsets,
                            const std::vector<size_t>& piece_bounds,
                            const std::vector<double>& piece_values) {
  KahanSum sum;
  size_t t = 0;    // original-atom cursor
  size_t pos = 0;  // domain element cursor
  for (size_t p = 0; p < piece_values.size(); ++p) {
    const size_t end = piece_bounds[p + 1];
    while (pos < end) {
      while (orig_offsets[t + 1] <= pos) ++t;
      const size_t next = std::min(end, orig_offsets[t + 1]);
      sum.Add(static_cast<double>(next - pos) *
              std::fabs(orig[t].value - piece_values[p]));
      pos = next;
    }
  }
  return sum.Total();
}

/// Weighted-median L1 cost of atoms [begin, end) — the "oscillation" a
/// breakpoint-free piece must pay on that range. `scratch` is caller-owned
/// storage reused across groups (the witness scan calls this once per
/// group); atom values arriving already non-decreasing (common for
/// monotone-ish hypotheses) skip the sort entirely.
double GroupOscillation(const std::vector<WeightedAtom>& atoms, size_t begin,
                        size_t end,
                        std::vector<std::pair<double, double>>& scratch) {
  scratch.clear();
  double total_w = 0.0;
  bool presorted = true;
  for (size_t t = begin; t < end; ++t) {
    if (atoms[t].cost_weight > 0.0) {
      if (!scratch.empty() && atoms[t].value < scratch.back().first) {
        presorted = false;
      }
      scratch.emplace_back(atoms[t].value, atoms[t].cost_weight);
      // analyzer-allow(raw-accumulate): running total alongside the filtered
      // copy; must accumulate in the same order as the reference DP so the
      // fast==reference bit-exactness tests keep holding.
      total_w += atoms[t].cost_weight;
    }
  }
  if (scratch.empty()) return 0.0;
  if (!presorted) std::sort(scratch.begin(), scratch.end());
  double acc = 0.0;
  double med = scratch.back().first;
  for (const auto& [v, w] : scratch) {
    // analyzer-allow(raw-accumulate): weighted-median prefix scan with an
    // early exit at half mass; a blocked reduction has no prefix to test.
    acc += w;
    if (acc >= 0.5 * total_w) {
      med = v;
      break;
    }
  }
  KahanSum cost;
  for (const auto& [v, w] : scratch) cost.Add(w * std::fabs(v - med));
  return cost.Total();
}

/// Witness lower bound on d_TV to any k-piece function, robust to long
/// atom sequences (no coarsening involved): chunk the atoms into disjoint
/// consecutive groups; a k-piece function has breakpoints inside at most
/// k - 1 groups and pays at least the oscillation of every other group.
/// Dropping the k largest oscillations is therefore safe. Maximized over a
/// few group widths.
double WitnessLowerBoundTv(const std::vector<WeightedAtom>& atoms, size_t k) {
  double best = 0.0;
  std::vector<std::pair<double, double>> scratch;
  std::vector<double> oscillations;
  for (const size_t width : {size_t{2}, size_t{4}, size_t{8}}) {
    if (atoms.size() < width) continue;
    scratch.reserve(width);
    oscillations.clear();
    for (size_t start = 0; start + width <= atoms.size(); start += width) {
      oscillations.push_back(
          GroupOscillation(atoms, start, start + width, scratch));
    }
    std::sort(oscillations.begin(), oscillations.end(),
              std::greater<double>());
    KahanSum sum;
    for (size_t j = std::min(oscillations.size(), k); j < oscillations.size();
         ++j) {
      sum.Add(oscillations[j]);
    }
    best = std::max(best, 0.5 * sum.Total());
  }
  return best;
}

}  // namespace

Result<DistanceBounds> DistanceToHk(const Distribution& d, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const std::vector<WeightedAtom> orig_atoms = AtomsFromDense(d.pmf());
  // The witness bound is computed on the uncoarsened sequence: it stays
  // informative even when the coarsening error drowns the DP-based bound
  // (fine alternating patterns).
  const double witness = WitnessLowerBoundTv(orig_atoms, k);
  // Coarsen only when needed, keeping the original sequence alive for the
  // piecewise candidate evaluation below.
  CoarsenResult coarse_storage;
  const std::vector<WeightedAtom>* dp_atoms = &orig_atoms;
  double slack = 0.0;
  if (orig_atoms.size() > kHkDpAtomLimit) {
    auto coarse = GreedyMergeAtoms(orig_atoms, kHkDpAtomLimit);
    HISTEST_RETURN_IF_ERROR(coarse.status());
    coarse_storage = std::move(coarse).value();
    dp_atoms = &coarse_storage.atoms;
    slack = coarse_storage.coarsening_error;
  }

  auto fit = FitAtomsL1(*dp_atoms, k);
  HISTEST_RETURN_IF_ERROR(fit.status());

  // Lower bound: any D* in H_k is a non-negative k-piece function, so its L1
  // distance to d is at least the unconstrained DP optimum (minus the
  // coarsening slack when the DP ran on the coarsened sequence), and at
  // least the witness oscillation bound.
  const double lower =
      std::max(witness, 0.5 * (fit.value().l1_error - 2.0 * slack));

  // Upper bound: exact TV to an explicit H_k member. Candidate (a):
  // mass-preserving averages over the fitted piece spans (always a valid
  // distribution). Candidate (b): the median-valued fit, renormalized, when
  // it has positive mass. Piece spans in element coordinates come from the
  // DP-atom offsets; piece masses are O(1) via the shared prefix index; each
  // candidate's L1 to d is one two-pointer sweep over the run-length-
  // compressed target, so no O(n) candidate vector is materialized.
  const AtomFit& f = fit.value();
  const std::vector<size_t> orig_offsets = AtomOffsets(orig_atoms);
  const std::vector<size_t> dp_offsets = AtomOffsets(*dp_atoms);
  const size_t num_pieces = f.piece_values.size();
  std::vector<size_t> bounds(num_pieces + 1);
  for (size_t p = 0; p <= num_pieces; ++p) {
    bounds[p] = dp_offsets[f.piece_starts[p]];
  }
  const PrefixMassIndex& index = d.PrefixIndex();
  std::vector<double> avg_values(num_pieces);
  for (size_t p = 0; p < num_pieces; ++p) {
    avg_values[p] = index.MassOf(Interval{bounds[p], bounds[p + 1]}) /
                    static_cast<double>(bounds[p + 1] - bounds[p]);
  }
  double upper =
      0.5 * PiecewiseCandidateL1(orig_atoms, orig_offsets, bounds, avg_values);
  KahanSum med_mass_acc;
  for (size_t p = 0; p < num_pieces; ++p) {
    med_mass_acc.Add(static_cast<double>(bounds[p + 1] - bounds[p]) *
                     f.piece_values[p]);
  }
  const double med_mass = med_mass_acc.Total();
  if (med_mass > 0.0) {
    std::vector<double> med_values(num_pieces);
    for (size_t p = 0; p < num_pieces; ++p) {
      med_values[p] = f.piece_values[p] / med_mass;
    }
    upper = std::min(upper, 0.5 * PiecewiseCandidateL1(orig_atoms, orig_offsets,
                                                       bounds, med_values));
  }
  HISTEST_CHECK_GE(upper + 1e-12, lower);
  return DistanceBounds{lower, upper};
}

Result<std::vector<WeightedAtom>> BuildSubdomainAtoms(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept) {
  const size_t n = dhat.domain_size();
  // Validate kept intervals: sorted, disjoint, in range.
  size_t cursor = 0;
  for (const Interval& iv : kept) {
    if (iv.begin < cursor || iv.end > n || iv.empty()) {
      return Status::InvalidArgument(
          "kept intervals must be sorted, disjoint, non-empty sub-intervals");
    }
    cursor = iv.end;
  }

  // Build the atom sequence: dhat's pieces intersected with kept intervals
  // (cost weight = length) and with gaps (cost weight = 0). Adjacent atoms
  // of the same kind and value merge on the fly.
  std::vector<WeightedAtom> atoms;
  auto add_atom = [&atoms](double value, size_t len, bool is_kept) {
    if (len == 0) return;
    const double length = static_cast<double>(len);
    const double weight = is_kept ? length : 0.0;
    if (!atoms.empty() && ExactlyEqual(atoms.back().value, value) &&
        (atoms.back().cost_weight > 0.0) == is_kept) {
      atoms.back().length += length;
      atoms.back().cost_weight += weight;
      return;
    }
    atoms.push_back(WeightedAtom{value, length, weight});
  };
  size_t kept_idx = 0;
  for (const auto& piece : dhat.pieces()) {
    size_t pos = piece.interval.begin;
    while (pos < piece.interval.end) {
      // Advance past kept intervals that end at or before pos.
      while (kept_idx < kept.size() && kept[kept_idx].end <= pos) ++kept_idx;
      size_t next;
      bool is_kept;
      if (kept_idx < kept.size() && kept[kept_idx].begin <= pos) {
        is_kept = true;
        next = std::min(piece.interval.end, kept[kept_idx].end);
      } else {
        is_kept = false;
        const size_t gap_end =
            kept_idx < kept.size() ? kept[kept_idx].begin : n;
        next = std::min(piece.interval.end, gap_end);
      }
      add_atom(piece.value, next - pos, is_kept);
      pos = next;
    }
  }
  return atoms;
}

namespace {

/// The Step-10 problem shared by the exact bracket and the threshold
/// decision: the witness bound on the uncoarsened subdomain atoms, and the
/// sequence the DP runs on with its coarsening error (the slack).
struct SubdomainProblem {
  double witness = 0.0;
  CoarsenResult coarse;
};

Result<SubdomainProblem> PrepareSubdomainProblem(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept,
    size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  auto built = BuildSubdomainAtoms(dhat, kept);
  HISTEST_RETURN_IF_ERROR(built.status());
  std::vector<WeightedAtom> atoms = std::move(built).value();
  SubdomainProblem problem;
  problem.witness = WitnessLowerBoundTv(atoms, k);
  auto coarse = MaybeCoarsen(std::move(atoms), kHkDpAtomLimit);
  HISTEST_RETURN_IF_ERROR(coarse.status());
  problem.coarse = std::move(coarse).value();
  return problem;
}

/// The exact bracket from the k-piece DP on the prepared sequence.
Result<DistanceBounds> DpBounds(const SubdomainProblem& problem, size_t k) {
  auto fit = FitAtomsL1(problem.coarse.atoms, k);
  HISTEST_RETURN_IF_ERROR(fit.status());
  const double dist = 0.5 * fit.value().l1_error;
  const double slack = problem.coarse.coarsening_error;
  return DistanceBounds{std::max(problem.witness, dist - slack),
                        dist + slack};
}

}  // namespace

Result<DistanceBounds> RestrictedDistanceToHkPieces(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept,
    size_t k) {
  auto problem = PrepareSubdomainProblem(dhat, kept, k);
  HISTEST_RETURN_IF_ERROR(problem.status());
  return DpBounds(problem.value(), k);
}

const char* HkBoundName(HkBound bound) {
  switch (bound) {
    case HkBound::kWitness:
      return "witness";
    case HkBound::kGreedy:
      return "greedy";
    case HkBound::kDp:
      return "dp";
  }
  return "dp";
}

Result<HkDecision> DecideRestrictedDistanceToHk(
    const PiecewiseConstant& dhat, const std::vector<Interval>& kept, size_t k,
    double threshold) {
  auto prepared = PrepareSubdomainProblem(dhat, kept, k);
  HISTEST_RETURN_IF_ERROR(prepared.status());
  const SubdomainProblem& problem = prepared.value();
  const double slack = problem.coarse.coarsening_error;
  // Any k-piece fit of the DP's sequence costs at least the DP optimum, so
  // the greedy merge down to k pieces bounds the DP's distance from above.
  auto greedy_fit = GreedyMergeAtoms(problem.coarse.atoms, k);
  HISTEST_RETURN_IF_ERROR(greedy_fit.status());
  const double greedy = 0.5 * greedy_fit.value().coarsening_error;
  const DistanceBounds bracket{problem.witness, greedy + slack};
  // The exact lower bound is max(witness, dp - slack), so a witness above
  // the threshold already decides "far".
  if (problem.witness > threshold) {
    return HkDecision{false, bracket, HkBound::kWitness};
  }
  // dp - slack <= greedy - slack, so a greedy fit below the threshold
  // decides "close". The greedy and the DP sum their costs in different
  // orders, so near-ties go to the DP. The margin is absolute: distances
  // are at most 1, and a zero-cost greedy fit can meet a DP optimum of a
  // few ulps (1e-17), which a margin relative to a tiny threshold misses.
  constexpr double kTieMargin = 1e-9;
  if (greedy - slack < threshold - kTieMargin) {
    return HkDecision{true, bracket, HkBound::kGreedy};
  }
  auto bounds = DpBounds(problem, k);
  HISTEST_RETURN_IF_ERROR(bounds.status());
  return HkDecision{bounds.value().lower <= threshold, bounds.value(),
                    HkBound::kDp};
}

}  // namespace histest
