#include "histogram/distance_to_hk.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dist/distance.h"
#include "dist/generators.h"
#include "dist/perturb.h"
#include "histogram/fit_merge.h"
#include "reference_fit_dp.h"

namespace histest {
namespace {

TEST(DistanceToHkTest, ZeroForMembersOfTheClass) {
  Rng rng(3);
  for (const size_t k : {size_t{1}, size_t{3}, size_t{8}}) {
    const auto h = MakeRandomKHistogram(128, k, rng).value();
    auto bounds = DistanceToHk(h.ToDistribution().value(), k);
    ASSERT_TRUE(bounds.ok());
    EXPECT_NEAR(bounds.value().lower, 0.0, 1e-9);
    EXPECT_NEAR(bounds.value().upper, 0.0, 1e-9);
  }
}

TEST(DistanceToHkTest, BoundsAreOrderedAndMonotoneInK) {
  const auto zipf = MakeZipf(256, 1.0).value();
  double prev_lower = 1.0;
  for (size_t k = 1; k <= 32; k *= 2) {
    auto bounds = DistanceToHk(zipf, k);
    ASSERT_TRUE(bounds.ok());
    EXPECT_LE(bounds.value().lower, bounds.value().upper + 1e-12);
    // More pieces can only get closer.
    EXPECT_LE(bounds.value().lower, prev_lower + 1e-9);
    prev_lower = bounds.value().lower;
  }
}

TEST(DistanceToHkTest, UniformDistanceToH1IsZero) {
  auto bounds = DistanceToHk(Distribution::UniformOver(64), 1);
  ASSERT_TRUE(bounds.ok());
  EXPECT_NEAR(bounds.value().upper, 0.0, 1e-12);
}

TEST(DistanceToHkTest, PointMassFarFromH1OnLargeDomain) {
  // Best 1-piece distribution is uniform; TV(point mass, uniform) = 1-1/n.
  auto bounds = DistanceToHk(Distribution::PointMass(64, 10), 1);
  ASSERT_TRUE(bounds.ok());
  EXPECT_GE(bounds.value().lower, 0.5);
  EXPECT_LE(bounds.value().upper, 1.0);
  // With 3 pieces a point mass is exactly representable.
  auto exact = DistanceToHk(Distribution::PointMass(64, 10), 3);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact.value().upper, 0.0, 1e-12);
}

TEST(DistanceToHkTest, CertifiedFarInstancesAreBracketed) {
  Rng rng(7);
  const auto base = MakeStaircase(256, 4).value();
  auto far = MakeFarFromHk(base, 4, 0.2, rng).value();
  auto bounds = DistanceToHk(far.dist, 4);
  ASSERT_TRUE(bounds.ok());
  // The certificate is a genuine lower bound, so upper must exceed it.
  EXPECT_GE(bounds.value().upper, far.certified_tv_lower_bound - 1e-9);
  EXPECT_GE(bounds.value().lower, 0.1);
}

TEST(DistanceToHkTest, RejectsKZero) {
  EXPECT_FALSE(DistanceToHk(Distribution::UniformOver(8), 0).ok());
}

TEST(RestrictedDistanceTest, FullDomainMatchesUnrestrictedFit) {
  Rng rng(11);
  const auto h = MakeRandomKHistogram(64, 6, rng).value();
  auto restricted =
      RestrictedDistanceToHkPieces(h, {Interval{0, 64}}, 6);
  ASSERT_TRUE(restricted.ok());
  EXPECT_NEAR(restricted.value().lower, 0.0, 1e-9);
}

TEST(RestrictedDistanceTest, GapsAbsorbBreakpoints) {
  // A 3-piece function whose middle piece is entirely inside a gap: with
  // the gap free, 2 pieces suffice on the kept domain... but the middle
  // values differ across the gap, so 2 pieces are needed, not 1.
  const auto f =
      PiecewiseConstant::Create(12, {PiecewiseConstant::Piece{{0, 4}, 0.1},
                                     PiecewiseConstant::Piece{{4, 8}, 0.9},
                                     PiecewiseConstant::Piece{{8, 12}, 0.2}})
          .value();
  const std::vector<Interval> kept = {{0, 4}, {8, 12}};
  auto two = RestrictedDistanceToHkPieces(f, kept, 2);
  ASSERT_TRUE(two.ok());
  EXPECT_NEAR(two.value().lower, 0.0, 1e-9);
  // One piece must average 0.1 and 0.2 (cost > 0) regardless of the gap.
  auto one = RestrictedDistanceToHkPieces(f, kept, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_GT(one.value().lower, 0.09);
}

TEST(RestrictedDistanceTest, ValidatesKeptIntervals) {
  const auto f = PiecewiseConstant::Flat(8, 0.125);
  EXPECT_FALSE(
      RestrictedDistanceToHkPieces(f, {Interval{4, 2}}, 1).ok());  // reversed
  EXPECT_FALSE(
      RestrictedDistanceToHkPieces(f, {Interval{0, 9}}, 1).ok());  // range
  EXPECT_FALSE(RestrictedDistanceToHkPieces(
                   f, {Interval{0, 4}, Interval{2, 6}}, 1)
                   .ok());  // overlap
  EXPECT_FALSE(RestrictedDistanceToHkPieces(f, {}, 0).ok());  // k = 0
}

TEST(RestrictedDistanceTest, WitnessBoundSurvivesCoarsening) {
  // Regression for the E2 k=32 soundness hole: a fine alternating
  // hypothesis (heavy/light value every other element) is ~far from H_k,
  // but greedy coarsening to the DP limit erases that structure and the
  // DP-minus-slack lower bound collapses to 0. The witness oscillation
  // bound must keep the lower bound sharp.
  const size_t n = 4096;  // one atom per element, > kHkDpAtomLimit
  std::vector<PiecewiseConstant::Piece> pieces;
  for (size_t i = 0; i < n; i += 2) {
    pieces.push_back({Interval{i, i + 1}, 1.5 / n});
    pieces.push_back({Interval{i + 1, i + 2}, 0.5 / n});
  }
  const auto zigzag = PiecewiseConstant::Create(n, std::move(pieces)).value();
  auto bounds = RestrictedDistanceToHkPieces(zigzag, {Interval{0, n}}, 32);
  ASSERT_TRUE(bounds.ok());
  // True distance ~0.25 (each of ~2048 pairs contributes 0.5/n to TV, all
  // but 31 must be paid); the witness bound must recover most of it.
  EXPECT_GE(bounds.value().lower, 0.15);
  EXPECT_LE(bounds.value().lower, bounds.value().upper + 1e-9);
}

TEST(DistanceToHkTest, WitnessBoundOnDenseAlternatingInstance) {
  // Same regression through the dense entry point.
  const size_t n = 4096;  // one atom per element, > kHkDpAtomLimit
  std::vector<double> pmf(n);
  for (size_t i = 0; i < n; ++i) {
    pmf[i] = (i % 2 == 0 ? 1.5 : 0.5) / static_cast<double>(n);
  }
  const auto d = Distribution::Create(std::move(pmf)).value();
  auto bounds = DistanceToHk(d, 32);
  ASSERT_TRUE(bounds.ok());
  EXPECT_GE(bounds.value().lower, 0.15);
}

/// Expands both DistanceToHk upper-bound candidates of `fit` over `atoms`
/// (per-piece averages of d, and the normalized median fit) into full O(n)
/// vectors and returns the smaller TV, each computed with L1Distance.
double DenseUpperBound(const Distribution& d,
                       const std::vector<WeightedAtom>& atoms,
                       const AtomFit& fit) {
  const std::vector<size_t> offsets = AtomOffsets(atoms);
  const size_t num_pieces = fit.piece_values.size();
  std::vector<double> avg(d.size()), med(d.size());
  double med_mass = 0.0;
  for (size_t p = 0; p < num_pieces; ++p) {
    const size_t begin = offsets[fit.piece_starts[p]];
    const size_t end = offsets[fit.piece_starts[p + 1]];
    double mass = 0.0;
    for (size_t i = begin; i < end; ++i) mass += d[i];
    for (size_t i = begin; i < end; ++i) {
      avg[i] = mass / static_cast<double>(end - begin);
      med[i] = fit.piece_values[p];
    }
    med_mass += static_cast<double>(end - begin) * fit.piece_values[p];
  }
  double upper = 0.5 * L1Distance(d.pmf(), avg);
  if (med_mass > 0.0) {
    for (double& v : med) v /= med_mass;
    upper = std::min(upper, 0.5 * L1Distance(d.pmf(), med));
  }
  return upper;
}

/// Dense-expansion oracle for DistanceToHk's upper bound: reruns the fit
/// on the atoms coarsened to kHkDpAtomLimit, the *same* fit DistanceToHk
/// runs, so the comparison isolates the piecewise candidate evaluation
/// from DP tie-breaking.
double DenseUpperBoundOracle(const Distribution& d, size_t k) {
  std::vector<WeightedAtom> atoms = AtomsFromDense(d.pmf());
  if (atoms.size() > kHkDpAtomLimit) {
    atoms = GreedyMergeAtoms(atoms, kHkDpAtomLimit).value().atoms;
  }
  return DenseUpperBound(d, atoms, FitAtomsL1(atoms, k).value());
}

TEST(DistanceToHkTest, CoarseningKeepsBoundsValid) {
  // A Zipf pmf has one atom per element, so this domain is coarsened before
  // the DP; the bracket must still contain the uncoarsened bracket's
  // values, computed here by the DP and the dense oracle on all atoms.
  const auto zipf = MakeZipf(kHkDpAtomLimit + kHkDpAtomLimit / 4, 1.0).value();
  const std::vector<WeightedAtom> atoms = AtomsFromDense(zipf.pmf());
  ASSERT_GT(atoms.size(), kHkDpAtomLimit);
  const AtomFit exact = FitAtomsL1(atoms, 4).value();
  const double exact_lower = 0.5 * exact.l1_error;
  const double exact_upper = DenseUpperBound(zipf, atoms, exact);
  auto coarse = DistanceToHk(zipf, 4);
  ASSERT_TRUE(coarse.ok());
  EXPECT_LE(coarse.value().lower, exact_upper + 1e-9);
  EXPECT_GE(coarse.value().upper, exact_lower - 1e-9);
  EXPECT_GT(GreedyMergeAtoms(atoms, kHkDpAtomLimit).value().coarsening_error,
            0.0);
}

/// The witness lower bound DistanceToHk computes for `d`, read off the
/// Step-10 decision on the whole domain: its atoms are d's run-length
/// atoms, and a threshold of 2 is decided by the greedy bound, whose
/// bracket starts at the witness.
double WitnessOf(const Distribution& d, size_t k) {
  const HkDecision decision =
      DecideRestrictedDistanceToHk(PiecewiseConstant::FromDistribution(d),
                                   {Interval{0, d.size()}}, k, 2.0)
          .value();
  EXPECT_EQ(decision.decided_by, HkBound::kGreedy);
  return decision.bounds.lower;
}

/// On seed-grid-style workloads `lower` is max(witness, DP bound), where
/// the DP bound from the exhaustive reference DP on the same (coarsened)
/// atoms agrees to 1e-12, and `upper` reproduces the dense expansion of
/// the same fit to 1e-12.
TEST(DistanceToHkTest, FastMatchesReferenceOnSeedWorkloads) {
  Rng rng(42);
  struct Workload {
    const char* name;
    Distribution dist;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"uniform", Distribution::UniformOver(512)});
  workloads.push_back({"zipf", MakeZipf(512, 1.0).value()});
  workloads.push_back(
      {"staircase", MakeStaircase(512, 8).value().ToDistribution().value()});
  workloads.push_back(
      {"random-khist",
       MakeRandomKHistogram(512, 8, rng).value().ToDistribution().value()});
  workloads.push_back(
      {"staircase-far",
       MakeFarFromHk(MakeStaircase(512, 8).value(), 8, 0.2, rng).value().dist});
  workloads.push_back({"point-mass", Distribution::PointMass(512, 100)});
  // Also through the coarsening path: one atom per element.
  workloads.push_back({"zipf-coarsened", MakeZipf(2 * kHkDpAtomLimit, 1.0)
                                             .value()});
  for (const auto& w : workloads) {
    std::vector<WeightedAtom> atoms = AtomsFromDense(w.dist.pmf());
    double slack = 0.0;
    if (atoms.size() > kHkDpAtomLimit) {
      CoarsenResult coarse = GreedyMergeAtoms(atoms, kHkDpAtomLimit).value();
      atoms = std::move(coarse.atoms);
      slack = coarse.coarsening_error;
    }
    for (const size_t k : {size_t{1}, size_t{4}, size_t{8}}) {
      auto fast = DistanceToHk(w.dist, k);
      auto ref = ReferenceFitAtomsL1(atoms, k);
      ASSERT_TRUE(fast.ok() && ref.ok()) << w.name;
      const double dp_lower = 0.5 * ref.value().l1_error - slack;
      EXPECT_NEAR(fast.value().lower,
                  std::max(WitnessOf(w.dist, k), dp_lower), 1e-12)
          << w.name << " k=" << k;
      EXPECT_NEAR(fast.value().upper,
                  DenseUpperBoundOracle(w.dist, k), 1e-12)
          << w.name << " k=" << k;
    }
  }
}

TEST(RestrictedDistanceTest, DiscardingEverythingCostsNothing) {
  const auto f =
      PiecewiseConstant::Create(8, {PiecewiseConstant::Piece{{0, 4}, 0.01},
                                    PiecewiseConstant::Piece{{4, 8}, 0.24}})
          .value();
  // Kept domain empty -> the atom walk produces only gap atoms.
  auto bounds = RestrictedDistanceToHkPieces(f, {}, 1);
  ASSERT_TRUE(bounds.ok());
  EXPECT_NEAR(bounds.value().lower, 0.0, 1e-12);
  EXPECT_NEAR(bounds.value().upper, 0.0, 1e-12);
}

}  // namespace
}  // namespace histest
