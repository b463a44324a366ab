#include "testing/baseline_cdgr.h"
#include "testing/baseline_ilr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dist/generators.h"
#include "dist/perturb.h"
#include "testing/learn_verify.h"
#include "testing/oracle.h"

namespace histest {
namespace {

template <typename Tester>
bool MajorityAccepts(const Distribution& dist, size_t k, double eps,
                     double budget_scale, int reps) {
  Rng rng(90210);
  int accepts = 0;
  for (int r = 0; r < reps; ++r) {
    DistributionOracle oracle(dist, rng.Next());
    Tester tester(k, eps, budget_scale, LearnVerifyOptions{}, rng.Next());
    auto outcome = tester.Test(oracle);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.ok() && outcome.value().verdict == Verdict::kAccept) {
      ++accepts;
    }
  }
  return accepts * 2 > reps;
}

// At n = 512 the budget formulas' asymptotic constants need a small bump
// (the learning stage alone wants ~150 k / eps^3 samples); scale 3 for the
// eps^-3 CDGR formula and 0.2 for the eps^-5 ILR formula.
TEST(CdgrBaselineTest, AcceptsKHistograms) {
  Rng rng(3);
  const auto h = MakeRandomKHistogram(512, 4, rng).value();
  EXPECT_TRUE(MajorityAccepts<CdgrHistogramTester>(
      h.ToDistribution().value(), 4, 0.25, 3.0, 5));
}

TEST(CdgrBaselineTest, RejectsFarInstances) {
  Rng rng(5);
  const auto base = MakeStaircase(512, 4).value();
  const auto far = MakeFarFromHk(base, 4, 0.25, rng).value();
  EXPECT_FALSE(MajorityAccepts<CdgrHistogramTester>(far.dist, 4, 0.25, 3.0,
                                                    5));
}

TEST(IlrBaselineTest, AcceptsKHistogramsWithSmallScale) {
  Rng rng(7);
  const auto h = MakeRandomKHistogram(512, 3, rng).value();
  EXPECT_TRUE(MajorityAccepts<IlrHistogramTester>(
      h.ToDistribution().value(), 3, 0.25, 0.2, 5));
}

TEST(IlrBaselineTest, RejectsFarInstancesWithSmallScale) {
  Rng rng(9);
  const auto base = MakeStaircase(512, 3).value();
  const auto far = MakeFarFromHk(base, 3, 0.25, rng).value();
  EXPECT_FALSE(
      MajorityAccepts<IlrHistogramTester>(far.dist, 3, 0.25, 0.2, 5));
}

/// Hostile parameters make Test() return InvalidArgument before it draws
/// a sample, instead of aborting in the constructor.
template <typename Tester>
void ExpectHostileParametersRejected() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Params {
    size_t k;
    double eps;
    double budget_scale;
  };
  std::vector<Params> hostile = {{0, 0.25, 1.0}, {2, 0.25, 0.0},
                                 {2, 0.25, -1.0}, {2, 0.25, kNaN},
                                 {2, 0.25, kInf}};
  for (const double eps : {kNaN, 0.0, -1.0, 1.5, kInf}) {
    hostile.push_back({2, eps, 1.0});
  }
  for (const Params& p : hostile) {
    DistributionOracle oracle(Distribution::UniformOver(64), 3);
    Tester tester(p.k, p.eps, p.budget_scale, LearnVerifyOptions{}, 5);
    const auto outcome = tester.Test(oracle);
    ASSERT_FALSE(outcome.ok()) << "k=" << p.k << " eps=" << p.eps
                               << " budget_scale=" << p.budget_scale;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
        << "k=" << p.k << " eps=" << p.eps
        << " budget_scale=" << p.budget_scale;
    EXPECT_EQ(oracle.SamplesDrawn(), 0);
  }
}

TEST(CdgrBaselineTest, HostileParametersAreInvalidArgument) {
  ExpectHostileParametersRejected<CdgrHistogramTester>();
}

TEST(IlrBaselineTest, HostileParametersAreInvalidArgument) {
  ExpectHostileParametersRejected<IlrHistogramTester>();
}

TEST(BaselinesTest, BudgetFormulasOrderCorrectly) {
  const LearnVerifyOptions options;
  IlrHistogramTester ilr(4, 0.2, 1.0, options, 1);
  CdgrHistogramTester cdgr(4, 0.2, 1.0, options, 1);
  // ILR budget = CDGR budget / eps^2 at equal scale.
  EXPECT_GT(ilr.BudgetFor(1024), cdgr.BudgetFor(1024));
  EXPECT_NEAR(static_cast<double>(ilr.BudgetFor(1024)) /
                  static_cast<double>(cdgr.BudgetFor(1024)),
              25.0, 0.5);
}

TEST(LearnVerifyEngineTest, ValidatesParameters) {
  DistributionOracle oracle(Distribution::UniformOver(64), 3);
  Rng rng(5);
  EXPECT_FALSE(LearnThenVerifyHistogramTest(oracle, 0, 0.25, 1000,
                                            LearnVerifyOptions{}, rng)
                   .ok());
  EXPECT_FALSE(LearnThenVerifyHistogramTest(oracle, 2, 1.5, 1000,
                                            LearnVerifyOptions{}, rng)
                   .ok());
  EXPECT_FALSE(LearnThenVerifyHistogramTest(oracle, 2, 0.25, 2,
                                            LearnVerifyOptions{}, rng)
                   .ok());
  EXPECT_FALSE(LearnThenVerifyHistogramTest(oracle, 100, 0.25, 1000,
                                            LearnVerifyOptions{}, rng)
                   .ok());
}

TEST(LearnVerifyEngineTest, RejectsCombEitherStage) {
  // The comb is far from H_2; the engine must reject (at whichever stage
  // the hypothesis quality routes it to).
  const auto comb = MakeComb(512, 32, 0.1).value();
  DistributionOracle oracle(comb, 11);
  Rng rng(13);
  auto outcome = LearnThenVerifyHistogramTest(oracle, 2, 0.25, 200000,
                                              LearnVerifyOptions{}, rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kReject);
}

TEST(LearnVerifyEngineTest, OfflineStageRejectsFarHypotheses) {
  // An alternating heavy/light 6-piece histogram: any 2-piece merge pays
  // >= 0.2 in TV, so a well-learned 4-piece hypothesis is itself far from
  // H_2 and the offline DP check fires (tight offline threshold + a big
  // learning budget make the routing deterministic).
  const Partition parts = Partition::EquiWidth(600, 6);
  const auto dist =
      PiecewiseConstant::FromPartitionMasses(
          parts, {0.3, 0.03, 0.3, 0.03, 0.3, 0.04})
          .ToDistribution()
          .value();
  DistributionOracle oracle(dist, 23);
  Rng rng(29);
  LearnVerifyOptions options;
  options.learn_constant = 2000.0;  // learn the hypothesis very well
  options.offline_threshold = 0.2;
  auto outcome =
      LearnThenVerifyHistogramTest(oracle, 2, 0.25, 500000, options, rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kReject);
  EXPECT_NE(outcome.value().detail.find("offline"), std::string::npos);
}

TEST(LearnVerifyEngineTest, ReportsSamplesWithinBudget) {
  DistributionOracle oracle(Distribution::UniformOver(256), 17);
  Rng rng(19);
  const int64_t budget = 100000;
  auto outcome = LearnThenVerifyHistogramTest(oracle, 3, 0.25, budget,
                                              LearnVerifyOptions{}, rng);
  ASSERT_TRUE(outcome.ok());
  // Poissonization can overshoot slightly; allow 5 sigma.
  EXPECT_LT(outcome.value().samples_used,
            budget + 5 * static_cast<int64_t>(std::sqrt(budget)));
}

}  // namespace
}  // namespace histest
