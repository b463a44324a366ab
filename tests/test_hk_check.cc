#include "core/hk_check.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "dist/generators.h"
#include "histogram/fit_merge.h"

namespace histest {
namespace {

TEST(ActiveSubdomainTest, MergesAdjacentKeptIntervals) {
  const Partition p = Partition::EquiWidth(12, 4);
  const std::vector<bool> active = {true, true, false, true};
  const std::vector<Interval> kept = ActiveSubdomain(p, active);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], (Interval{0, 6}));
  EXPECT_EQ(kept[1], (Interval{9, 12}));
}

TEST(ActiveSubdomainTest, AllActiveGivesWholeDomain) {
  const Partition p = Partition::EquiWidth(10, 5);
  const std::vector<Interval> kept =
      ActiveSubdomain(p, std::vector<bool>(5, true));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], (Interval{0, 10}));
}

TEST(ActiveSubdomainTest, NoneActiveGivesEmpty) {
  const Partition p = Partition::EquiWidth(10, 5);
  EXPECT_TRUE(ActiveSubdomain(p, std::vector<bool>(5, false)).empty());
}

TEST(HkCheckTest, ValidatesInput) {
  Rng rng(3);
  const auto dhat = MakeRandomKHistogram(64, 4, rng).value();
  const Partition p = Partition::EquiWidth(64, 8);
  EXPECT_FALSE(CheckCloseToHkOnSubdomain(dhat, p,
                                         std::vector<bool>(7, true), 4, 0.25)
                   .ok());
  EXPECT_FALSE(CheckCloseToHkOnSubdomain(dhat, Partition::EquiWidth(32, 8),
                                         std::vector<bool>(8, true), 4, 0.25)
                   .ok());
  EXPECT_FALSE(CheckCloseToHkOnSubdomain(dhat, p,
                                         std::vector<bool>(8, true), 4, 0.0)
                   .ok());
}

TEST(HkCheckTest, TrueKHistogramHypothesisPasses) {
  Rng rng(5);
  const auto dhat = MakeRandomKHistogram(128, 4, rng).value();
  const Partition p = Partition::EquiWidth(128, 16);
  auto result = CheckCloseToHkOnSubdomain(dhat, p,
                                          std::vector<bool>(16, true), 4,
                                          0.25);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().close);
  EXPECT_NEAR(result.value().bounds.lower, 0.0, 1e-9);
}

TEST(HkCheckTest, FarHypothesisFails) {
  // A 32-tooth comb hypothesis is nowhere near H_2.
  const auto comb = MakeComb(256, 32, 0.2).value();
  const auto dhat = PiecewiseConstant::FromDistribution(comb);
  const Partition p = Partition::EquiWidth(256, 16);
  auto result = CheckCloseToHkOnSubdomain(dhat, p,
                                          std::vector<bool>(16, true), 2,
                                          0.25);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().close);
  EXPECT_GT(result.value().bounds.lower, 0.25 / 12.0);
}

TEST(HkCheckTest, DiscardingBreakpointIntervalsRescuesHypothesis) {
  // A (k+1)-piece hypothesis whose extra breakpoint lives in one interval:
  // once that interval is discarded, k pieces suffice on the rest.
  const auto dhat =
      PiecewiseConstant::Create(64, {PiecewiseConstant::Piece{{0, 30}, 0.02},
                                     PiecewiseConstant::Piece{{30, 34}, 0.05},
                                     PiecewiseConstant::Piece{{34, 64}, 0.006}})
          .value();
  const Partition p = Partition::EquiWidth(64, 16);  // 4-wide intervals
  // All active: needs 3 pieces, so k = 2 fails.
  auto all = CheckCloseToHkOnSubdomain(dhat, p, std::vector<bool>(16, true),
                                       2, 0.25);
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all.value().close);
  // Discard intervals 7 and 8 (covering [28, 36) around the middle piece).
  std::vector<bool> active(16, true);
  active[7] = false;
  active[8] = false;
  auto sieved = CheckCloseToHkOnSubdomain(dhat, p, active, 2, 0.25);
  ASSERT_TRUE(sieved.ok());
  EXPECT_TRUE(sieved.value().close);
}

TEST(HkCheckTest, EverythingDiscardedIsVacuouslyClose) {
  Rng rng(7);
  const auto dhat = MakeRandomKHistogram(32, 8, rng).value();
  const Partition p = Partition::EquiWidth(32, 4);
  auto result = CheckCloseToHkOnSubdomain(dhat, p,
                                          std::vector<bool>(4, false), 1,
                                          0.1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().close);
}

/// A hypothesis of the shape Step 10 sees: a k0-histogram, comb or
/// staircase, spread over a fine partition with multiplicative noise.
PiecewiseConstant RandomHypothesis(Rng& rng, size_t n, int family) {
  std::vector<double> pmf;
  const size_t k0 = 1 + rng.UniformInt(24);
  switch (family) {
    case 0:
      pmf = MakeRandomKHistogram(n, k0, rng).value().ToDistribution()
                .value().pmf();
      break;
    case 1:
      pmf = MakeComb(n, 2 + rng.UniformInt(16), 0.3).value().pmf();
      break;
    default:
      pmf = MakeStaircase(n, k0).value().ToDistribution().value().pmf();
      break;
  }
  const Partition fine = Partition::EquiWidth(n, n / 2);
  const double noise = (rng.UniformInt(3) == 0) ? 0.0 : 0.4;
  std::vector<double> masses(fine.NumIntervals());
  for (size_t j = 0; j < masses.size(); ++j) {
    const Interval iv = fine.interval(j);
    double mass = 0.0;
    for (size_t i = iv.begin; i < iv.end; ++i) mass += pmf[i];
    masses[j] = mass * (1.0 + noise * (rng.UniformDouble() - 0.5));
  }
  return PiecewiseConstant::FromPartitionMasses(fine, masses);
}

// The decision must give RestrictedDistanceToHkPieces's verdict at every
// threshold, including thresholds exactly at the witness, greedy and DP
// values, and its bracket must enclose the DP bracket.
TEST(DecideRestrictedDistanceToHkTest, SameVerdictAsExactBracket) {
  Rng rng(20231017);
  std::array<int, 3> branches = {0, 0, 0};
  bool coarsened = false;
  for (int trial = 0; trial < 240; ++trial) {
    // Every 40th trial spreads the hypothesis over 2048 fine pieces, more
    // than kHkDpAtomLimit atoms when noisy, so the DP runs on a coarsened
    // sequence and the slack is non-zero. A DP over the full atom limit
    // costs up to ~k M^2 probes, so those trials are few and cap k.
    const bool wide = trial % 40 == 0;
    const size_t n =
        wide ? 4 * kHkDpAtomLimit : size_t{64} << rng.UniformInt(3);
    const PiecewiseConstant dhat = RandomHypothesis(rng, n, trial % 3);
    const size_t k = 1 + rng.UniformInt(wide ? 3 : 32);
    const Partition p = Partition::EquiWidth(n, n / 8);
    const double keep = (trial % 4 == 0) ? 1.0 : 0.5 + 0.4 * rng.UniformDouble();
    std::vector<bool> active(p.NumIntervals());
    for (size_t j = 0; j < active.size(); ++j) active[j] = rng.Bernoulli(keep);
    const std::vector<Interval> kept = ActiveSubdomain(p, active);
    if (kept.empty()) continue;
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n
                                      << " k=" << k);

    const DistanceBounds exact =
        RestrictedDistanceToHkPieces(dhat, kept, k).value();
    // The cheap bounds, recomputed the way the decision computes them.
    const auto atoms = BuildSubdomainAtoms(dhat, kept).value();
    CoarsenResult coarse{atoms, 0.0};
    if (atoms.size() > kHkDpAtomLimit) {
      coarse = GreedyMergeAtoms(atoms, kHkDpAtomLimit).value();
    }
    const double slack = coarse.coarsening_error;
    coarsened = coarsened || slack > 0.0;
    const double greedy =
        0.5 * GreedyMergeAtoms(coarse.atoms, k).value().coarsening_error;
    const double witness =
        DecideRestrictedDistanceToHk(dhat, kept, k, -1.0)
            .value()
            .bounds.lower;
    const double dp = exact.upper - slack;

    std::vector<double> thresholds = {0.0, 1.0, 0.5 * (witness + greedy)};
    for (const double v : {witness, greedy - slack, greedy + slack, dp - slack,
                           dp, exact.lower, exact.upper}) {
      thresholds.push_back(v);
      thresholds.push_back(std::nextafter(v, -1.0));
      thresholds.push_back(std::nextafter(v, 2.0));
    }
    for (const double thr : thresholds) {
      const HkDecision d =
          DecideRestrictedDistanceToHk(dhat, kept, k, thr).value();
      ++branches[static_cast<size_t>(d.decided_by)];
      EXPECT_EQ(d.close, exact.lower <= thr) << "thr=" << thr;
      EXPECT_LE(d.bounds.lower, exact.lower);
      EXPECT_GE(d.bounds.upper, exact.upper - 1e-12);
      if (d.decided_by == HkBound::kDp) {
        EXPECT_TRUE(ExactlyEqual(d.bounds.lower, exact.lower));
        EXPECT_TRUE(ExactlyEqual(d.bounds.upper, exact.upper));
      }
    }
    if (HasFailure()) return;
  }
  EXPECT_TRUE(coarsened);
  EXPECT_GT(branches[static_cast<size_t>(HkBound::kWitness)], 0);
  EXPECT_GT(branches[static_cast<size_t>(HkBound::kGreedy)], 0);
  EXPECT_GT(branches[static_cast<size_t>(HkBound::kDp)], 0);
}

TEST(HkCheckTest, RecordsTheDecidingBound) {
  const Partition p = Partition::EquiWidth(256, 16);
  const std::vector<bool> all(16, true);
  // A comb far from H_2: the witness decides.
  const auto comb =
      PiecewiseConstant::FromDistribution(MakeComb(256, 32, 0.2).value());
  const auto far = CheckCloseToHkOnSubdomain(comb, p, all, 2, 0.25).value();
  EXPECT_FALSE(far.close);
  EXPECT_EQ(far.decided_by, HkBound::kWitness);
  // A 4-histogram in H_4: the greedy merge finds a zero-cost fit.
  Rng rng(9);
  const auto khist = MakeRandomKHistogram(256, 4, rng).value();
  const auto close = CheckCloseToHkOnSubdomain(khist, p, all, 4, 0.25).value();
  EXPECT_TRUE(close.close);
  EXPECT_EQ(close.decided_by, HkBound::kGreedy);
  EXPECT_LE(close.bounds.lower, close.bounds.upper);
}

}  // namespace
}  // namespace histest
