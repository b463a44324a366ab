#include "histogram/fit_merge.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dist/distance.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "histogram/fit_dp.h"

namespace histest {
namespace {

TEST(GreedyMergeTest, ValidatesInput) {
  EXPECT_FALSE(GreedyMergeAtoms({}, 2).ok());
  EXPECT_FALSE(GreedyMergeAtoms({{1.0, 1.0, 1.0}}, 0).ok());
}

TEST(GreedyMergeTest, NoMergeWhenTargetLargeEnough) {
  const std::vector<WeightedAtom> atoms = {{1.0, 1.0, 1.0}, {2.0, 1.0, 1.0}};
  auto result = GreedyMergeAtoms(atoms, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().atoms.size(), 2u);
  EXPECT_DOUBLE_EQ(result.value().coarsening_error, 0.0);
}

TEST(GreedyMergeTest, MergeToOneGivesGlobalMedianCost) {
  const std::vector<WeightedAtom> atoms = {
      {1.0, 1.0, 1.0}, {3.0, 1.0, 1.0}, {10.0, 1.0, 1.0}};
  auto result = GreedyMergeAtoms(atoms, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().atoms.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().coarsening_error, 9.0);
  EXPECT_DOUBLE_EQ(result.value().atoms[0].value, 3.0);
  EXPECT_DOUBLE_EQ(result.value().atoms[0].length, 3.0);
}

TEST(GreedyMergeTest, MergesEqualValuesForFree) {
  const std::vector<WeightedAtom> atoms = {
      {5.0, 1.0, 1.0}, {5.0, 2.0, 2.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  auto result = GreedyMergeAtoms(atoms, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().coarsening_error, 0.0);
  ASSERT_EQ(result.value().atoms.size(), 2u);
  EXPECT_DOUBLE_EQ(result.value().atoms[0].value, 5.0);
  EXPECT_DOUBLE_EQ(result.value().atoms[1].value, 1.0);
}

TEST(GreedyMergeTest, LengthsAndWeightsAreConserved) {
  Rng rng(7);
  std::vector<WeightedAtom> atoms(50);
  double total_len = 0.0, total_w = 0.0;
  for (auto& a : atoms) {
    a = {rng.UniformDouble(), 1.0 + std::floor(rng.UniformDouble() * 3),
         0.0};
    a.cost_weight = a.length;
    total_len += a.length;
    total_w += a.cost_weight;
  }
  auto result = GreedyMergeAtoms(atoms, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().atoms.size(), 7u);
  double len = 0.0, w = 0.0;
  for (const auto& a : result.value().atoms) {
    len += a.length;
    w += a.cost_weight;
  }
  EXPECT_NEAR(len, total_len, 1e-9);
  EXPECT_NEAR(w, total_w, 1e-9);
}

TEST(GreedyMergeTest, CoarseningErrorWithinConstantOfOptimal) {
  // Greedy to 2t pieces should cost at most ~3x the optimal t-piece error
  // on random inputs (the classical merging guarantee; we allow margin).
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<WeightedAtom> atoms(64);
    for (auto& a : atoms) a = {rng.UniformDouble(), 1.0, 1.0};
    const size_t t = 4;
    auto greedy = GreedyMergeAtoms(atoms, 2 * t);
    ASSERT_TRUE(greedy.ok());
    auto opt = FitAtomsL1(atoms, t);
    ASSERT_TRUE(opt.ok());
    EXPECT_LE(greedy.value().coarsening_error,
              3.0 * opt.value().l1_error + 1e-9);
  }
}

TEST(LearnMergedHistogramTest, ValidatesInput) {
  const CountVector empty(8);
  EXPECT_FALSE(LearnMergedHistogram(empty, 2).ok());
  const CountVector cv = CountVector::FromCounts({1, 2, 3});
  EXPECT_FALSE(LearnMergedHistogram(cv, 0).ok());
}

TEST(LearnMergedHistogramTest, OutputShape) {
  const CountVector cv = CountVector::FromCounts({10, 10, 1, 1, 5, 5});
  auto h = LearnMergedHistogram(cv, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_LE(h.value().NumPieces(), 3u);
  EXPECT_NEAR(h.value().TotalMass(), 1.0, 1e-9);
}

TEST(LearnMergedHistogramTest, RecoversTrueHistogram) {
  // Sampling a 4-histogram and learning with enough samples should land
  // close in TV.
  Rng rng(13);
  const auto truth = MakeStaircase(128, 4).value();
  const auto truth_dist = truth.ToDistribution().value();
  AliasSampler sampler(truth_dist);
  Rng sample_rng(17);
  CountVector cv(128);
  for (int s = 0; s < 100000; ++s) cv.Add(sampler.Sample(sample_rng));
  auto learned = LearnMergedHistogram(cv, 4);
  ASSERT_TRUE(learned.ok());
  const double tv =
      TotalVariation(learned.value().ToDistribution().value(), truth_dist);
  EXPECT_LT(tv, 0.05);
}

}  // namespace
}  // namespace histest
