#include "histogram/classic.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"
#include "histogram/fit_dp.h"
#include "histogram/fit_merge.h"

namespace histest {
namespace {

/// Atom cap for the V-optimal histogram's L2 DP; longer run-length
/// sequences are greedily coarsened to this many atoms first.
constexpr size_t kVOptimalMaxAtoms = 4096;

/// Builds the mass-preserving histogram over the partition given by
/// bucket end positions.
Result<PiecewiseConstant> FromEndpoints(const Distribution& d,
                                        std::vector<size_t> ends) {
  auto partition = Partition::FromEndpoints(d.size(), std::move(ends));
  HISTEST_RETURN_IF_ERROR(partition.status());
  std::vector<double> masses;
  masses.reserve(partition.value().NumIntervals());
  for (const Interval& iv : partition.value().intervals()) {
    masses.push_back(d.MassOf(iv));
  }
  return PiecewiseConstant::FromPartitionMasses(partition.value(), masses);
}

}  // namespace

Result<PiecewiseConstant> EquiWidthHistogram(const Distribution& d, size_t k) {
  if (k == 0 || k > d.size()) {
    return Status::InvalidArgument("need 1 <= k <= n");
  }
  const Partition partition = Partition::EquiWidth(d.size(), k);
  std::vector<double> masses;
  masses.reserve(k);
  for (const Interval& iv : partition.intervals()) {
    masses.push_back(d.MassOf(iv));
  }
  return PiecewiseConstant::FromPartitionMasses(partition, masses);
}

Result<PiecewiseConstant> EquiDepthHistogram(const Distribution& d, size_t k) {
  if (k == 0 || k > d.size()) {
    return Status::InvalidArgument("need 1 <= k <= n");
  }
  const std::vector<double> cdf = d.Cdf();
  std::vector<size_t> ends;
  size_t cursor = 0;
  for (size_t bucket = 1; bucket < k; ++bucket) {
    const double target =
        static_cast<double>(bucket) / static_cast<double>(k);
    // Smallest end position whose cumulative mass reaches the quantile.
    size_t end = cursor;
    while (end < d.size() && cdf[end] < target) ++end;
    ++end;  // half-open end after the crossing element
    end = std::min(end, d.size());
    if (end > cursor && end < d.size()) {
      ends.push_back(end);
      cursor = end;
    }
  }
  ends.push_back(d.size());
  return FromEndpoints(d, std::move(ends));
}

Result<PiecewiseConstant> VOptimalHistogram(const Distribution& d, size_t k) {
  if (k == 0 || k > d.size()) {
    return Status::InvalidArgument("need 1 <= k <= n");
  }
  std::vector<WeightedAtom> atoms = AtomsFromDense(d.pmf());
  if (atoms.size() > kVOptimalMaxAtoms) {
    auto coarse = GreedyMergeAtoms(atoms, kVOptimalMaxAtoms);
    HISTEST_RETURN_IF_ERROR(coarse.status());
    atoms = std::move(coarse.value().atoms);
  }
  auto fit = FitAtomsL2(atoms, k);
  HISTEST_RETURN_IF_ERROR(fit.status());
  // Rebuild with mass-preserving piece averages of d (the L2-optimal value
  // per bucket is the mean, which is exactly the bucket mass spread
  // uniformly).
  const std::vector<size_t> offsets = AtomOffsets(atoms);
  std::vector<size_t> ends;
  const AtomFit& f = fit.value();
  for (size_t p = 1; p <= f.piece_values.size(); ++p) {
    ends.push_back(offsets[f.piece_starts[p]]);
  }
  return FromEndpoints(d, std::move(ends));
}

}  // namespace histest
