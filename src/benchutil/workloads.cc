#include "benchutil/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "common/math_util.h"
#include "dist/generators.h"
#include "dist/interval.h"
#include "dist/perturb.h"
#include "dist/piecewise.h"
#include "dist/prefix_mass.h"
#include "histogram/distance_to_hk.h"
#include "histogram/fit_dp.h"
#include "lowerbound/paninski_family.h"

namespace histest {
namespace {

/// Equal-width blocks of the cheap k-piece fit in CertifyFar. Measured on
/// the grid's Gaussian mixture at n = 2^18, k = 4 (x86-64, one core): the
/// fit's TV reads 0.2430 / 0.2418 / 0.2419 and its DP takes 0.15 / 1.8 /
/// 29 ms at 64 / 256 / 1024 blocks.
constexpr size_t kCheapFitBlocks = 256;

/// Margin under eps that the cheap fit's TV must clear to drop a candidate,
/// far above the rounding of either side's compensated sums.
constexpr double kCheapFitMargin = 1e-9;

/// Number of atoms AtomsFromDense makes of `pmf` (runs of equal values).
size_t CountAtoms(const std::vector<double>& pmf) {
  size_t atoms = pmf.empty() ? 0 : 1;
  for (size_t i = 1; i < pmf.size(); ++i) {
    if (!ExactlyEqual(pmf[i], pmf[i - 1])) ++atoms;
  }
  return atoms;
}

/// Exact TV from `dist` to one member of H_k, found without coarsening:
/// [n] is cut into kCheapFitBlocks equal-width blocks valued at their
/// medians, FitAtomsL1 fits k pieces to those block atoms, and the member
/// is the average of `dist` over each fitted piece. Averaging keeps the
/// total mass, so the member is a k-histogram distribution and the TV is
/// an upper bound on d_TV(dist, H_k).
Result<double> BlockFitTv(const Distribution& dist, size_t k) {
  const std::vector<double>& pmf = dist.pmf();
  const size_t n = pmf.size();
  const size_t blocks = std::min(kCheapFitBlocks, n);
  std::vector<size_t> starts(blocks + 1);
  for (size_t b = 0; b <= blocks; ++b) starts[b] = b * n / blocks;
  std::vector<WeightedAtom> atoms(blocks);
  std::vector<double> scratch;
  for (size_t b = 0; b < blocks; ++b) {
    scratch.assign(pmf.begin() + static_cast<std::ptrdiff_t>(starts[b]),
                   pmf.begin() + static_cast<std::ptrdiff_t>(starts[b + 1]));
    const auto mid = scratch.begin() +
                     static_cast<std::ptrdiff_t>((scratch.size() - 1) / 2);
    std::nth_element(scratch.begin(), mid, scratch.end());
    const double len = static_cast<double>(scratch.size());
    atoms[b] = WeightedAtom{*mid, len, len};
  }
  auto fit = FitAtomsL1(atoms, k);
  HISTEST_RETURN_IF_ERROR(fit.status());
  const std::vector<size_t>& piece_starts = fit.value().piece_starts;
  const PrefixMassIndex& index = dist.PrefixIndex();
  KahanSum l1;
  for (size_t p = 0; p + 1 < piece_starts.size(); ++p) {
    const Interval piece{starts[piece_starts[p]], starts[piece_starts[p + 1]]};
    const double avg =
        index.MassOf(piece) / static_cast<double>(piece.end - piece.begin);
    for (size_t i = piece.begin; i < piece.end; ++i) {
      l1.Add(std::fabs(pmf[i] - avg));
    }
  }
  return 0.5 * l1.Total();
}

/// Certifies a candidate far instance via the offline DP; returns true and
/// fills the certificate when the lower bound clears eps.
///
/// A pmf of more than kHkDpAtomLimit atoms is first tried against the cheap
/// block fit, because DistanceToHk would first coarsen it with a greedy
/// merge that costs far more than this fit. Both of DistanceToHk's lower bounds
/// (the witness and the coarsened DP less its slack) lie below
/// d_TV(dist, H_k), hence below the TV to any member of H_k, so a member
/// within eps - kCheapFitMargin shows the DP could not certify either and
/// the candidate is dropped without it. The cheap fit never certifies:
/// every kept instance and its certificate still come from DistanceToHk.
bool CertifyFar(const Distribution& dist, size_t k, double eps,
                double* certificate) {
  if (CountAtoms(dist.pmf()) > kHkDpAtomLimit) {
    auto tv = BlockFitTv(dist, k);
    if (tv.ok() && tv.value() < eps - kCheapFitMargin) return false;
  }
  auto bounds = DistanceToHk(dist, k);
  if (!bounds.ok()) return false;
  if (bounds.value().lower < eps) return false;
  *certificate = bounds.value().lower;
  return true;
}

}  // namespace

Result<std::vector<WorkloadInstance>> MakeWorkloadGrid(size_t n, size_t k,
                                                       double eps, Rng& rng) {
  if (n < 8 || n % 2 != 0) {
    return Status::InvalidArgument("n must be even and >= 8");
  }
  if (k == 0 || k > n / 4) {
    return Status::InvalidArgument("need 1 <= k <= n/4");
  }
  if (!(eps > 0.0) || eps > 0.45) {
    return Status::InvalidArgument("eps must be in (0, 0.45]");
  }
  std::vector<WorkloadInstance> grid;

  // --- In-class instances. ---
  grid.push_back(WorkloadInstance{"uniform", Distribution::UniformOver(n),
                                  InstanceSide::kInClass, 0.0});
  auto staircase = MakeStaircase(n, k);
  HISTEST_RETURN_IF_ERROR(staircase.status());
  {
    auto dist = staircase.value().ToDistribution();
    HISTEST_RETURN_IF_ERROR(dist.status());
    grid.push_back(WorkloadInstance{"staircase-k", std::move(dist).value(),
                                    InstanceSide::kInClass, 0.0});
  }
  for (int variant = 0; variant < 2; ++variant) {
    auto random_hist = MakeRandomKHistogram(n, k, rng);
    HISTEST_RETURN_IF_ERROR(random_hist.status());
    auto dist = random_hist.value().ToDistribution();
    HISTEST_RETURN_IF_ERROR(dist.status());
    grid.push_back(WorkloadInstance{
        "random-khist-" + std::to_string(variant + 1),
        std::move(dist).value(), InstanceSide::kInClass, 0.0});
  }
  if (k >= 3) {
    // One heavy element on a flat background: a 3-piece histogram.
    std::vector<double> pmf(n, 0.5 / static_cast<double>(n - 1));
    pmf[n / 2] = 0.5;
    auto dist = Distribution::FromWeights(std::move(pmf));
    HISTEST_RETURN_IF_ERROR(dist.status());
    grid.push_back(WorkloadInstance{"heavy+flat", std::move(dist).value(),
                                    InstanceSide::kInClass, 0.0});
  }

  // --- Far instances. ---
  {
    // Paninski member: amplitude c chosen so the analytic certificate
    // clears eps with margin.
    const double c = std::min(1.0 / eps, 2.5);
    auto instance = MakePaninskiInstance(n, eps, c, k, rng);
    HISTEST_RETURN_IF_ERROR(instance.status());
    if (instance.value().certified_far_from_hk < eps) {
      return Status::FailedPrecondition(
          "Paninski certificate below eps; parameter grid too aggressive");
    }
    grid.push_back(WorkloadInstance{"paninski-far",
                                    std::move(instance.value().dist),
                                    InstanceSide::kFar,
                                    instance.value().certified_far_from_hk});
  }
  {
    auto far = MakeFarFromHk(staircase.value(), k, eps, rng);
    HISTEST_RETURN_IF_ERROR(far.status());
    grid.push_back(WorkloadInstance{"staircase-perturbed-far",
                                    std::move(far.value().dist),
                                    InstanceSide::kFar,
                                    far.value().certified_tv_lower_bound});
  }
  {
    auto comb = MakeComb(n, std::min(4 * k, n / 2), 0.2);
    HISTEST_RETURN_IF_ERROR(comb.status());
    double certificate = 0.0;
    if (CertifyFar(comb.value(), k, eps, &certificate)) {
      grid.push_back(WorkloadInstance{"comb-far", std::move(comb).value(),
                                      InstanceSide::kFar, certificate});
    }
  }
  {
    auto mixture = MakeGaussianMixture(n, {0.25, 0.6, 0.85},
                                       {0.05, 0.08, 0.03}, {0.4, 0.4, 0.2});
    HISTEST_RETURN_IF_ERROR(mixture.status());
    double certificate = 0.0;
    if (CertifyFar(mixture.value(), k, eps, &certificate)) {
      grid.push_back(WorkloadInstance{"gaussian-mixture-far",
                                      std::move(mixture).value(),
                                      InstanceSide::kFar, certificate});
    }
  }
  return grid;
}

}  // namespace histest
