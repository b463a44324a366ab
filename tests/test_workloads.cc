#include "benchutil/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "dist/generators.h"
#include "histogram/breakpoints.h"
#include "histogram/distance_to_hk.h"
#include "histogram/fit_dp.h"

namespace histest {
namespace {

/// Reference for the grid's certification: the offline DP alone, with no
/// cheap pre-test. MakeWorkloadGrid must keep and certify exactly what this
/// keeps and certifies.
bool ReferenceCertifyFar(const Distribution& dist, size_t k, double eps,
                         double* certificate) {
  auto bounds = DistanceToHk(dist, k);
  if (!bounds.ok() || bounds.value().lower < eps) return false;
  *certificate = bounds.value().lower;
  return true;
}

/// The Gaussian mixture candidate, built as MakeWorkloadGrid builds it.
Distribution GridMixture(size_t n) {
  return MakeGaussianMixture(n, {0.25, 0.6, 0.85}, {0.05, 0.08, 0.03},
                             {0.4, 0.4, 0.2})
      .value();
}

struct ExpectedInstance {
  std::string name;
  InstanceSide side;
  double certified_distance;
};

/// What `grid` = MakeWorkloadGrid(n, k, eps, ...) must hold, with its two
/// DP-certified candidates (the comb and the Gaussian mixture, built as the
/// grid builds them) run through ReferenceCertifyFar. The instances before
/// them do not go through the DP and are taken from `grid`.
std::vector<ExpectedInstance> ReferenceGrid(
    const std::vector<WorkloadInstance>& grid, size_t n, size_t k,
    double eps) {
  std::vector<ExpectedInstance> expected;
  for (const auto& inst : grid) {
    expected.push_back({inst.name, inst.side, inst.certified_distance});
    if (inst.name == "staircase-perturbed-far") break;
  }
  const Distribution comb = MakeComb(n, std::min(4 * k, n / 2), 0.2).value();
  double certificate = 0.0;
  if (ReferenceCertifyFar(comb, k, eps, &certificate)) {
    expected.push_back({"comb-far", InstanceSide::kFar, certificate});
  }
  if (ReferenceCertifyFar(GridMixture(n), k, eps, &certificate)) {
    expected.push_back(
        {"gaussian-mixture-far", InstanceSide::kFar, certificate});
  }
  return expected;
}

/// Builds the grid and checks it against ReferenceGrid: same names and
/// sides, bit-equal certificates. Returns the grid's names.
std::vector<std::string> ExpectGridMatchesReference(size_t n, size_t k,
                                                    double eps) {
  Rng rng(20230601);
  auto grid = MakeWorkloadGrid(n, k, eps, rng);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return {};
  const auto expected = ReferenceGrid(grid.value(), n, k, eps);
  std::vector<std::string> names;
  EXPECT_EQ(grid.value().size(), expected.size());
  for (size_t i = 0; i < std::min(grid.value().size(), expected.size());
       ++i) {
    const WorkloadInstance& got = grid.value()[i];
    names.push_back(got.name);
    EXPECT_EQ(got.name, expected[i].name);
    EXPECT_EQ(got.side, expected[i].side) << got.name;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.certified_distance),
              std::bit_cast<uint64_t>(expected[i].certified_distance))
        << got.name;
  }
  return names;
}

bool HasInstance(const std::vector<std::string>& names,
                 const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

size_t MixtureAtoms(size_t n) {
  return AtomsFromDense(GridMixture(n).pmf()).size();
}

// At n = 2^16 the mixture has more atoms than the DP takes, so the cheap
// k-piece fit runs; its lower bound (about 0.23) is under eps = 0.25, so
// the fit drops it.
TEST(WorkloadsTest, CheapFitDropsWhatTheDpWouldDrop) {
  const size_t n = size_t{1} << 16;
  ASSERT_GT(MixtureAtoms(n), kHkDpAtomLimit);
  const auto names = ExpectGridMatchesReference(n, 4, 0.25);
  EXPECT_FALSE(HasInstance(names, "gaussian-mixture-far"));
  EXPECT_TRUE(HasInstance(names, "comb-far"));
}

// Below the mixture's 0.23 bound the DP certifies it, so the cheap fit
// (TV about 0.24) must let it through to the DP.
TEST(WorkloadsTest, CheapFitKeepsWhatTheDpCertifies) {
  const auto names = ExpectGridMatchesReference(size_t{1} << 16, 4, 0.2);
  EXPECT_TRUE(HasInstance(names, "gaussian-mixture-far"));
}

// At most kHkDpAtomLimit atoms: the DP runs uncoarsened and the cheap fit
// does not run.
TEST(WorkloadsTest, SmallDomainGridMatchesReference) {
  const size_t n = size_t{1} << 10;
  ASSERT_LE(MixtureAtoms(n), kHkDpAtomLimit);
  ExpectGridMatchesReference(n, 4, 0.25);
  ExpectGridMatchesReference(n, 4, 0.2);
}

/// Exact TV from `dist` to the member of H_k that the grid's cheap fit
/// builds (256 equal-width blocks valued at their medians, a k-piece L1
/// fit to those, the pmf averaged over each fitted piece), with the member
/// written out densely.
double BlockFitMemberTv(const Distribution& dist, size_t k) {
  const std::vector<double>& pmf = dist.pmf();
  const size_t n = pmf.size();
  const size_t blocks = std::min<size_t>(256, n);
  std::vector<WeightedAtom> atoms;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> block(pmf.begin() + b * n / blocks,
                              pmf.begin() + (b + 1) * n / blocks);
    std::sort(block.begin(), block.end());
    const double len = static_cast<double>(block.size());
    atoms.push_back({block[(block.size() - 1) / 2], len, len});
  }
  const AtomFit fit = FitAtomsL1(atoms, k).value();
  std::vector<double> member(n);
  for (size_t p = 0; p + 1 < fit.piece_starts.size(); ++p) {
    const size_t begin = fit.piece_starts[p] * n / blocks;
    const size_t end = fit.piece_starts[p + 1] * n / blocks;
    KahanSum mass;
    for (size_t i = begin; i < end; ++i) mass.Add(pmf[i]);
    for (size_t i = begin; i < end; ++i) {
      member[i] = mass.Total() / static_cast<double>(end - begin);
    }
  }
  KahanSum l1;
  for (size_t i = 0; i < n; ++i) l1.Add(std::fabs(pmf[i] - member[i]));
  return 0.5 * l1.Total();
}

// The drop is sound because the cheap member's TV bounds DistanceToHk's
// lower end from above, however the DP coarsens. Checked on noisy
// k-histograms, Gaussian mixtures and Zipf pmfs. Each DistanceToHk on
// 2^16 atoms runs the full greedy merge, so the Debug build skips this.
TEST(WorkloadsTest, BlockFitTvBoundsTheDpLowerBound) {
#ifndef NDEBUG
  GTEST_SKIP() << "greedy merges over 2^16 atoms; run in an optimized build";
#endif
  Rng rng(424242);
  const size_t k = 4;
  for (int trial = 0; trial < 21; ++trial) {
    const size_t n = size_t{1} << (12 + trial % 5);
    Distribution dist = Distribution::UniformOver(n);
    switch (trial % 3) {
      case 0: {
        const auto hist = MakeRandomKHistogram(n, k, rng).value();
        const auto base = hist.ToDistribution().value();
        std::vector<double> weights(n);
        for (size_t i = 0; i < n; ++i) {
          weights[i] = base.pmf()[i] * (0.5 + rng.UniformDouble());
        }
        dist = Distribution::FromWeights(std::move(weights)).value();
        break;
      }
      case 1: {
        std::vector<double> means(3), stddevs(3), weights(3);
        for (int c = 0; c < 3; ++c) {
          means[c] = rng.UniformDouble();
          stddevs[c] = 0.01 + 0.1 * rng.UniformDouble();
          weights[c] = 0.1 + rng.UniformDouble();
        }
        dist = MakeGaussianMixture(n, means, stddevs, weights).value();
        break;
      }
      default:
        dist = MakeZipf(n, 0.5 + rng.UniformDouble()).value();
        break;
    }
    const double tv = BlockFitMemberTv(dist, k);
    const auto bounds = DistanceToHk(dist, k);
    ASSERT_TRUE(bounds.ok());
    EXPECT_GE(tv + 1e-12, bounds.value().lower)
        << "trial " << trial << " n=" << n;
  }
}

TEST(WorkloadsTest, ValidatesParameters) {
  Rng rng(3);
  EXPECT_FALSE(MakeWorkloadGrid(7, 1, 0.25, rng).ok());    // odd n
  EXPECT_FALSE(MakeWorkloadGrid(4, 1, 0.25, rng).ok());    // n too small
  EXPECT_FALSE(MakeWorkloadGrid(64, 0, 0.25, rng).ok());   // k = 0
  EXPECT_FALSE(MakeWorkloadGrid(64, 32, 0.25, rng).ok());  // k > n/4
  EXPECT_FALSE(MakeWorkloadGrid(64, 4, 0.6, rng).ok());    // eps too big
}

TEST(WorkloadsTest, GridHasBothSides) {
  Rng rng(5);
  auto grid = MakeWorkloadGrid(512, 4, 0.25, rng);
  ASSERT_TRUE(grid.ok());
  size_t in_class = 0, far = 0;
  for (const auto& inst : grid.value()) {
    (inst.side == InstanceSide::kInClass ? in_class : far) += 1;
  }
  EXPECT_GE(in_class, 4u);
  EXPECT_GE(far, 2u);
}

TEST(WorkloadsTest, InClassInstancesReallyAreKHistograms) {
  Rng rng(7);
  const size_t k = 5;
  auto grid = MakeWorkloadGrid(512, k, 0.25, rng);
  ASSERT_TRUE(grid.ok());
  for (const auto& inst : grid.value()) {
    if (inst.side != InstanceSide::kInClass) continue;
    EXPECT_TRUE(IsKHistogramDense(inst.dist.pmf(), k)) << inst.name;
    EXPECT_DOUBLE_EQ(inst.certified_distance, 0.0) << inst.name;
  }
}

TEST(WorkloadsTest, FarInstancesCarryValidCertificates) {
  Rng rng(9);
  const size_t k = 4;
  const double eps = 0.25;
  auto grid = MakeWorkloadGrid(512, k, eps, rng);
  ASSERT_TRUE(grid.ok());
  for (const auto& inst : grid.value()) {
    if (inst.side != InstanceSide::kFar) continue;
    EXPECT_GE(inst.certified_distance, eps * (1 - 1e-9)) << inst.name;
    // The certificate must be consistent with the exact DP bracket.
    auto bounds = DistanceToHk(inst.dist, k);
    ASSERT_TRUE(bounds.ok());
    EXPECT_GE(bounds.value().upper + 1e-9, inst.certified_distance)
        << inst.name;
  }
}

TEST(WorkloadsTest, NamesAreUnique) {
  Rng rng(11);
  auto grid = MakeWorkloadGrid(256, 3, 0.3, rng);
  ASSERT_TRUE(grid.ok());
  std::set<std::string> names;
  for (const auto& inst : grid.value()) {
    EXPECT_TRUE(names.insert(inst.name).second)
        << "duplicate name " << inst.name;
  }
}

TEST(WorkloadsTest, DeterministicGivenRngState) {
  Rng a(13), b(13);
  auto ga = MakeWorkloadGrid(256, 3, 0.3, a);
  auto gb = MakeWorkloadGrid(256, 3, 0.3, b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  ASSERT_EQ(ga.value().size(), gb.value().size());
  for (size_t i = 0; i < ga.value().size(); ++i) {
    EXPECT_EQ(ga.value()[i].dist.pmf(), gb.value()[i].dist.pmf());
  }
}

}  // namespace
}  // namespace histest
