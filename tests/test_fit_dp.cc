#include "histogram/fit_dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "reference_fit_dp.h"

namespace histest {
namespace {

/// Brute-force best k-piece L1 fit over unit atoms by enumerating all
/// breakpoint placements (exponential; tiny inputs only).
double BruteForceL1(const std::vector<double>& values, size_t k) {
  const size_t n = values.size();
  const size_t cuts = n - 1;
  double best = std::numeric_limits<double>::infinity();
  // Iterate over subsets of cut positions with at most k-1 cuts.
  for (uint32_t mask = 0; mask < (1u << cuts); ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) > k - 1) continue;
    double cost = 0.0;
    size_t start = 0;
    for (size_t i = 0; i <= cuts; ++i) {
      const bool cut_here = (i < cuts) && ((mask >> i) & 1u);
      if (cut_here || i == cuts) {
        // Segment [start, i]: optimal constant is the median.
        std::vector<double> seg(values.begin() + start,
                                values.begin() + i + 1);
        std::sort(seg.begin(), seg.end());
        const double med = seg[(seg.size() - 1) / 2];
        for (double v : seg) cost += std::fabs(v - med);
        start = i + 1;
      }
    }
    best = std::min(best, cost);
  }
  return best;
}

TEST(SegmentCostTableTest, SingleAtomCostsZero) {
  const std::vector<WeightedAtom> atoms = {{5.0, 1.0, 1.0}};
  const SegmentCostTable table(atoms);
  EXPECT_DOUBLE_EQ(table.Cost(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(table.OptimalValue(0, 0), 5.0);
}

TEST(SegmentCostTableTest, KnownSmallCosts) {
  // Values 1, 3, 10 with unit weights: median 3, cost |1-3| + |10-3| = 9.
  const std::vector<WeightedAtom> atoms = {
      {1.0, 1.0, 1.0}, {3.0, 1.0, 1.0}, {10.0, 1.0, 1.0}};
  const SegmentCostTable table(atoms);
  EXPECT_DOUBLE_EQ(table.Cost(0, 2), 9.0);
  EXPECT_DOUBLE_EQ(table.Cost(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(table.Cost(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(table.OptimalValue(0, 2), 3.0);
}

TEST(SegmentCostTableTest, WeightsShiftTheMedian) {
  // Heavy weight on value 10 pulls the weighted median there.
  const std::vector<WeightedAtom> atoms = {{1.0, 1.0, 1.0},
                                           {10.0, 3.0, 3.0}};
  const SegmentCostTable table(atoms);
  EXPECT_DOUBLE_EQ(table.OptimalValue(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(table.Cost(0, 1), 9.0);
}

TEST(SegmentCostTableTest, GapAtomsAreFree) {
  const std::vector<WeightedAtom> atoms = {
      {1.0, 1.0, 1.0}, {100.0, 5.0, 0.0}, {1.0, 1.0, 1.0}};
  const SegmentCostTable table(atoms);
  EXPECT_DOUBLE_EQ(table.Cost(0, 2), 0.0);
}

TEST(FitAtomsL1Test, ValidatesInput) {
  EXPECT_FALSE(FitAtomsL1({}, 2).ok());
  EXPECT_FALSE(FitAtomsL1({{1.0, 1.0, 1.0}}, 0).ok());
  EXPECT_FALSE(FitAtomsL1({{1.0, 0.5, 1.0}}, 1).ok());   // length < 1
  EXPECT_FALSE(FitAtomsL1({{1.0, 1.0, -1.0}}, 1).ok());  // negative weight
  // One atom past the cap is rejected before any tree is built.
  const std::vector<WeightedAtom> too_long(kFitDpFastMaxAtoms + 1,
                                           {1.0, 1.0, 1.0});
  const auto rejected = FitAtomsL1(too_long, 2);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FitAtomsL2(too_long, 2).ok());
}

TEST(FitAtomsL1Test, PerfectFitWhenPiecesSuffice) {
  const std::vector<WeightedAtom> atoms = {
      {1.0, 2.0, 2.0}, {5.0, 3.0, 3.0}, {2.0, 1.0, 1.0}};
  auto fit = FitAtomsL1(atoms, 3);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.value().l1_error, 0.0);
  EXPECT_EQ(fit.value().piece_values.size(), 3u);
}

TEST(FitAtomsL1Test, ExtraPiecesDoNotHurt) {
  const std::vector<WeightedAtom> atoms = {{1.0, 1.0, 1.0},
                                           {2.0, 1.0, 1.0}};
  auto fit = FitAtomsL1(atoms, 10);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit.value().l1_error, 0.0);
}

class DpVsBruteForceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DpVsBruteForceTest, MatchesOnRandomInstances) {
  const size_t k = GetParam();
  Rng rng(100 + k);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 4 + static_cast<size_t>(rng.UniformInt(8));  // 4..11
    std::vector<double> values(n);
    std::vector<WeightedAtom> atoms(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = std::floor(rng.UniformDouble() * 8.0);
      atoms[i] = {values[i], 1.0, 1.0};
    }
    auto fit = FitAtomsL1(atoms, k);
    ASSERT_TRUE(fit.ok());
    EXPECT_NEAR(fit.value().l1_error, BruteForceL1(values, k), 1e-9)
        << "trial " << trial << " n " << n << " k " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, DpVsBruteForceTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(FitAtomsL1Test, MonotoneInK) {
  Rng rng(17);
  std::vector<WeightedAtom> atoms(30);
  for (auto& a : atoms) a = {rng.UniformDouble(), 1.0, 1.0};
  double prev = std::numeric_limits<double>::infinity();
  for (size_t k = 1; k <= 8; ++k) {
    auto fit = FitAtomsL1(atoms, k);
    ASSERT_TRUE(fit.ok());
    EXPECT_LE(fit.value().l1_error, prev + 1e-12);
    prev = fit.value().l1_error;
  }
}

/// The pruned DP must agree with the exhaustive reference DP
/// (tests/reference_fit_dp). On small-integer grids every sum is
/// exact in double, so costs AND piece boundaries (identical tie-breaking)
/// must match exactly, including instances dense with ties and zero-weight
/// gap atoms.
TEST(FitDpEquivalenceTest, ExactOnIntegerGrids) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t m = 2 + static_cast<size_t>(rng.UniformInt(120));
    // A small value range forces many exact cost ties; ~20% gap atoms and
    // integer weights 1..4 exercise the weighted median paths.
    const double value_range = 1.0 + std::floor(rng.UniformDouble() * 6.0);
    std::vector<WeightedAtom> atoms(m);
    for (auto& a : atoms) {
      const bool gap = rng.UniformDouble() < 0.2;
      a.value = std::floor(rng.UniformDouble() * value_range);
      a.length = 1.0 + std::floor(rng.UniformDouble() * 3.0);
      a.cost_weight = gap ? 0.0 : 1.0 + std::floor(rng.UniformDouble() * 4.0);
    }
    for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                           size_t{8}, m}) {
      auto fast = FitAtomsL1(atoms, k);
      auto ref = ReferenceFitAtomsL1(atoms, k);
      ASSERT_TRUE(fast.ok() && ref.ok());
      EXPECT_EQ(fast.value().l1_error, ref.value().l1_error)
          << "trial " << trial << " m " << m << " k " << k;
      EXPECT_EQ(fast.value().piece_starts, ref.value().piece_starts)
          << "trial " << trial << " m " << m << " k " << k;
      EXPECT_EQ(fast.value().piece_values, ref.value().piece_values)
          << "trial " << trial << " m " << m << " k " << k;

      auto fast2 = FitAtomsL2(atoms, k);
      auto ref2 = ReferenceFitAtomsL2(atoms, k);
      ASSERT_TRUE(fast2.ok() && ref2.ok());
      EXPECT_EQ(fast2.value().l1_error, ref2.value().l1_error)
          << "L2 trial " << trial << " m " << m << " k " << k;
      EXPECT_EQ(fast2.value().piece_starts, ref2.value().piece_starts)
          << "L2 trial " << trial << " m " << m << " k " << k;
    }
  }
}

/// On arbitrary real values the two DPs sum in different orders, so
/// costs agree to rounding only.
TEST(FitDpEquivalenceTest, CostsAgreeOnRandomReals) {
  Rng rng(2025);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t m = 2 + static_cast<size_t>(rng.UniformInt(80));
    std::vector<WeightedAtom> atoms(m);
    for (auto& a : atoms) {
      a.value = rng.UniformDouble();
      a.length = 1.0;
      a.cost_weight = rng.UniformDouble() < 0.1 ? 0.0 : rng.UniformDouble();
    }
    for (const size_t k : {size_t{1}, size_t{3}, size_t{7}}) {
      auto fast = FitAtomsL1(atoms, k);
      auto ref = ReferenceFitAtomsL1(atoms, k);
      ASSERT_TRUE(fast.ok() && ref.ok());
      EXPECT_NEAR(fast.value().l1_error, ref.value().l1_error, 1e-9)
          << "trial " << trial << " m " << m << " k " << k;
    }
  }
}

/// All-gap and constant sequences hit the prune's degenerate branches
/// (zero-cost windows everywhere).
TEST(FitDpEquivalenceTest, DegenerateSequences) {
  const std::vector<WeightedAtom> all_gaps(10, {3.0, 2.0, 0.0});
  const std::vector<WeightedAtom> constant(50, {0.25, 1.0, 1.0});
  for (const auto* atoms : {&all_gaps, &constant}) {
    for (const size_t k : {size_t{1}, size_t{4}}) {
      auto fast = FitAtomsL1(*atoms, k);
      auto ref = ReferenceFitAtomsL1(*atoms, k);
      ASSERT_TRUE(fast.ok() && ref.ok());
      EXPECT_EQ(fast.value().l1_error, ref.value().l1_error);
      EXPECT_EQ(fast.value().piece_starts, ref.value().piece_starts);
    }
  }
}

TEST(FitAtomsL2Test, OnePieceUsesWeightedMean) {
  const std::vector<WeightedAtom> atoms = {{0.0, 1.0, 1.0},
                                           {3.0, 1.0, 3.0}};
  auto fit = FitAtomsL2(atoms, 1);
  ASSERT_TRUE(fit.ok());
  // Weighted mean = (0*1 + 3*3)/4 = 2.25; SSE = 1*(2.25)^2 + 3*(0.75)^2.
  EXPECT_NEAR(fit.value().piece_values[0], 2.25, 1e-12);
  EXPECT_NEAR(fit.value().l1_error, 5.0625 + 1.6875, 1e-9);
}

TEST(FitAtomsL2Test, PerfectFitWithEnoughPieces) {
  const std::vector<WeightedAtom> atoms = {
      {1.0, 1.0, 1.0}, {2.0, 1.0, 1.0}, {3.0, 1.0, 1.0}};
  auto fit = FitAtomsL2(atoms, 3);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().l1_error, 0.0, 1e-12);
}

TEST(AtomsFromDenseTest, RunLengthCompresses) {
  const auto atoms = AtomsFromDense({1.0, 1.0, 2.0, 2.0, 2.0, 1.0});
  ASSERT_EQ(atoms.size(), 3u);
  EXPECT_DOUBLE_EQ(atoms[0].length, 2.0);
  EXPECT_DOUBLE_EQ(atoms[1].length, 3.0);
  EXPECT_DOUBLE_EQ(atoms[2].length, 1.0);
  EXPECT_DOUBLE_EQ(atoms[1].value, 2.0);
}

TEST(FitToPiecewiseTest, ExpandsAtomLengths) {
  const std::vector<WeightedAtom> atoms = {{0.5, 2.0, 2.0}, {0.25, 3.0, 3.0}};
  AtomFit fit;
  fit.piece_starts = {0, 1, 2};
  fit.piece_values = {0.5, 0.25};
  auto pwc = FitToPiecewise(atoms, fit);
  ASSERT_TRUE(pwc.ok());
  EXPECT_EQ(pwc.value().domain_size(), 5u);
  EXPECT_DOUBLE_EQ(pwc.value().ValueAt(1), 0.5);
  EXPECT_DOUBLE_EQ(pwc.value().ValueAt(2), 0.25);
}

TEST(FitToPiecewiseTest, RejectsMalformedFits) {
  const std::vector<WeightedAtom> atoms = {
      {0.5, 2.0, 2.0}, {0.25, 3.0, 3.0}, {0.125, 1.0, 1.0}};
  AtomFit not_from_zero;
  not_from_zero.piece_starts = {1, 2, 3};
  not_from_zero.piece_values = {0.5, 0.25};
  AtomFit not_increasing;
  not_increasing.piece_starts = {0, 2, 2, 3};
  not_increasing.piece_values = {0.5, 0.25, 0.125};
  AtomFit past_the_end;  // an unchecked index reads far outside the offsets
  past_the_end.piece_starts = {0, 1, size_t{1} << 40};
  past_the_end.piece_values = {0.5, 0.25};
  for (const AtomFit* fit : {&not_from_zero, &not_increasing, &past_the_end}) {
    const auto pwc = FitToPiecewise(atoms, *fit);
    ASSERT_FALSE(pwc.ok());
    EXPECT_EQ(pwc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FitHistogramL1Test, EndToEndOnDenseTarget) {
  // A clean 2-level target with one outlier; k=2 must pay only the outlier.
  const std::vector<double> target = {1.0, 1.0, 9.0, 4.0, 4.0, 4.0};
  auto result = FitHistogramL1(target, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().l1_error, 0.0);
  auto two = FitHistogramL1(target, 2);
  ASSERT_TRUE(two.ok());
  EXPECT_GT(two.value().l1_error, 0.0);
  EXPECT_LE(two.value().l1_error, 8.0 + 1e-12);
}

}  // namespace
}  // namespace histest
