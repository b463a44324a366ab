#include "core/histogram_tester.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "benchutil/workloads.h"
#include "common/rng.h"
#include "dist/generators.h"
#include "histogram/distance_to_hk.h"
#include "testing/oracle.h"

namespace histest {
namespace {

bool MajorityAccepts(const Distribution& dist, size_t k, double eps,
                     int reps, uint64_t seed_base = 555) {
  Rng rng(seed_base);
  int accepts = 0;
  for (int r = 0; r < reps; ++r) {
    DistributionOracle oracle(dist, rng.Next());
    HistogramTester tester(k, eps, HistogramTesterOptions{}, rng.Next());
    auto outcome = tester.Test(oracle);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.ok() && outcome.value().verdict == Verdict::kAccept) {
      ++accepts;
    }
  }
  return accepts * 2 > reps;
}

TEST(HistogramTesterTest, TrivialAcceptWhenKCoversDomain) {
  DistributionOracle oracle(Distribution::UniformOver(8), 3);
  HistogramTester tester(8, 0.25, HistogramTesterOptions{}, 5);
  auto report = tester.TestWithReport(oracle);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().verdict, Verdict::kAccept);
  EXPECT_EQ(report.value().decided_by, "trivial");
  EXPECT_EQ(report.value().samples_total, 0);
}

TEST(HistogramTesterTest, HostileParametersAreInvalidArgument) {
  const auto expect_invalid = [](size_t k, double eps, double sample_scale) {
    HistogramTesterOptions options;
    options.sample_scale = sample_scale;
    DistributionOracle oracle(Distribution::UniformOver(64), 3);
    HistogramTester tester(k, eps, options, 5);
    auto outcome = tester.Test(oracle);
    ASSERT_FALSE(outcome.ok()) << k << " " << eps << " " << sample_scale;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(oracle.SamplesDrawn(), 0);
  };
  // 1e-9 and 1e-300 are in (0, 1], but their stage budgets are past int64.
  for (const double eps : {std::nan(""), 0.0, 1.5, 1e-9, 1e-300}) {
    expect_invalid(2, eps, 1.0);
  }
  expect_invalid(0, 0.25, 1.0);
  expect_invalid(2, 0.25, 0.0);
  expect_invalid(2, 0.25, std::nan(""));
  expect_invalid(2, 0.25, 1e300);
  expect_invalid(2, 0.25, std::numeric_limits<double>::max());
  // Invalid parameters are rejected even where k >= n would accept.
  expect_invalid(100, std::nan(""), 1.0);
}

TEST(HistogramTesterTest, LearnerBudgetIsCheckedAtApproxPartsRoundedDraws) {
  // ApproxPart's budget rounds up to one sample, which may split the domain
  // into three intervals; at K = 3 the learner's budget is past 2^63, at
  // the unrounded budget's 2 m + 1 (about 1) it would look countable.
  HistogramTesterOptions options;
  options.approx_part.sample_constant = 1e-4;
  options.learner.sample_constant = 6e15;
  options.sieve.sample_constant = 1e-4;
  options.final_test.sample_constant = 1e-4;
  DistributionOracle oracle(Distribution::UniformOver(64), 3);
  HistogramTester tester(2, 0.5, options, 5);
  auto outcome = tester.Test(oracle);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle.SamplesDrawn(), 0);
}

TEST(HistogramTesterTest, IntegrationCompletenessOnWorkloadGrid) {
  Rng rng(7);
  auto grid = MakeWorkloadGrid(1024, 4, 0.25, rng);
  ASSERT_TRUE(grid.ok());
  for (const auto& inst : grid.value()) {
    if (inst.side != InstanceSide::kInClass) continue;
    EXPECT_TRUE(MajorityAccepts(inst.dist, 4, 0.25, 5)) << inst.name;
  }
}

TEST(HistogramTesterTest, IntegrationSoundnessOnWorkloadGrid) {
  Rng rng(9);
  auto grid = MakeWorkloadGrid(1024, 4, 0.25, rng);
  ASSERT_TRUE(grid.ok());
  for (const auto& inst : grid.value()) {
    if (inst.side != InstanceSide::kFar) continue;
    EXPECT_FALSE(MajorityAccepts(inst.dist, 4, 0.25, 5)) << inst.name;
  }
}

TEST(HistogramTesterTest, UniformIsAOneHistogram) {
  EXPECT_TRUE(MajorityAccepts(Distribution::UniformOver(512), 1, 0.3, 5));
}

TEST(HistogramTesterTest, ZipfIsFarFromFewPieces) {
  // Zipf(1) on 1024 elements needs many pieces; k = 2 must reject.
  const auto zipf = MakeZipf(1024, 1.0).value();
  EXPECT_FALSE(MajorityAccepts(zipf, 2, 0.2, 5));
}

TEST(HistogramTesterTest, SmoothKModalIsFarFromSmallK) {
  // Seed chosen so the random instance certifies as 0.28-far from H_2
  // (the certificate is asserted, so a generator change cannot silently
  // weaken the test into vacuity).
  Rng rng(23);
  const auto smooth = MakeSmoothedKModal(1024, 8, rng).value();
  auto bounds = DistanceToHk(smooth, 2);
  ASSERT_TRUE(bounds.ok());
  ASSERT_GE(bounds.value().lower, 0.22);
  EXPECT_FALSE(MajorityAccepts(smooth, 2, 0.2, 5));
}

TEST(HistogramTesterTest, ReportAccountsAllStages) {
  Rng rng(11);
  const auto truth = MakeRandomKHistogram(512, 3, rng).value();
  DistributionOracle oracle(truth.ToDistribution().value(), rng.Next());
  HistogramTester tester(3, 0.25, HistogramTesterOptions{}, rng.Next());
  auto report = tester.TestWithReport(oracle);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().samples_total, oracle.SamplesDrawn());
  EXPECT_GE(report.value().stages.size(), 3u);
  EXPECT_EQ(report.value().stages[0].stage, "approx_part");
  EXPECT_EQ(report.value().stages[1].stage, "learner");
  EXPECT_EQ(report.value().stages[2].stage, "sieve");
  int64_t stage_total = 0;
  for (const auto& s : report.value().stages) stage_total += s.samples;
  EXPECT_EQ(stage_total, report.value().samples_total);
  EXPECT_GT(report.value().partition_size, 0u);
}

TEST(HistogramTesterTest, SampleScaleScalesBudgets) {
  Rng rng(13);
  const auto dist = Distribution::UniformOver(512);
  HistogramTesterOptions small;
  small.sample_scale = 0.25;
  DistributionOracle o1(dist, 1);
  HistogramTester t1(2, 0.3, small, 2);
  auto r1 = t1.TestWithReport(o1);
  ASSERT_TRUE(r1.ok());
  DistributionOracle o2(dist, 1);
  HistogramTester t2(2, 0.3, HistogramTesterOptions{}, 2);
  auto r2 = t2.TestWithReport(o2);
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(r1.value().samples_total, r2.value().samples_total / 2);
}

TEST(HistogramTesterTest, SurvivesAdversarialConstantOracle) {
  ConstantOracle oracle(512, 99);
  HistogramTester tester(3, 0.25, HistogramTesterOptions{}, 17);
  auto outcome = tester.Test(oracle);
  ASSERT_TRUE(outcome.ok());
  // A point mass IS a 3-histogram; either verdict is statistically
  // defensible for a non-iid stream, but the tester must terminate.
  EXPECT_GT(outcome.value().samples_used, 0);
}

TEST(HistogramTesterTest, PaperFaithfulPresetHasPaperConstants) {
  const auto paper = HistogramTesterOptions::PaperFaithful();
  EXPECT_DOUBLE_EQ(paper.partition_b_constant, 20.0);
  EXPECT_DOUBLE_EQ(paper.learner_eps_fraction, 1.0 / 60.0);
  EXPECT_DOUBLE_EQ(paper.final_test.sample_constant, 20000.0);
  EXPECT_DOUBLE_EQ(paper.final_test.accept_threshold, 1.0 / 500.0);
  EXPECT_DOUBLE_EQ(paper.final_eps_fraction, 13.0 / 30.0);
}

TEST(HistogramTesterTest, PaperFaithfulAcceptsOnTinyDomain) {
  // The literal constants are usable only for tiny n; verify completeness
  // end-to-end there (k >= n would be trivial, so use n = 16, k = 2).
  DistributionOracle oracle(Distribution::UniformOver(16), 23);
  HistogramTester tester(2, 0.5, HistogramTesterOptions::PaperFaithful(),
                         29);
  auto outcome = tester.Test(oracle);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kAccept);
}

}  // namespace
}  // namespace histest
