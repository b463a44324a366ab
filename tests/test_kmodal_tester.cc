#include "core/kmodal_tester.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "dist/generators.h"
#include "histogram/modality.h"
#include "testing/oracle.h"

namespace histest {
namespace {

bool MajorityAccepts(const Distribution& dist, size_t max_changes,
                     double eps, int reps) {
  Rng rng(808808);
  int accepts = 0;
  for (int r = 0; r < reps; ++r) {
    DistributionOracle oracle(dist, rng.Next());
    KModalTester tester(max_changes, eps, KModalTesterOptions{}, rng.Next());
    auto outcome = tester.Test(oracle);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.ok() && outcome.value().verdict == Verdict::kAccept) {
      ++accepts;
    }
  }
  return accepts * 2 > reps;
}

TEST(KModalTesterTest, TrivialAcceptWhenChangesCoverDomain) {
  DistributionOracle oracle(Distribution::UniformOver(8), 3);
  KModalTester tester(7, 0.25, KModalTesterOptions{}, 5);
  auto outcome = tester.Test(oracle);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kAccept);
  EXPECT_EQ(outcome.value().samples_used, 0);
}

TEST(KModalTesterTest, AcceptsMonotoneAsZeroModal) {
  const auto geometric = MakeGeometric(1024, 0.995).value();
  ASSERT_EQ(DirectionChanges(geometric.pmf()), 0u);
  EXPECT_TRUE(MajorityAccepts(geometric, 0, 0.3, 5));
}

TEST(KModalTesterTest, AcceptsUnimodalGaussian) {
  const auto gauss = MakeGaussianMixture(1024, {0.5}, {0.1}, {1.0}).value();
  ASSERT_LE(DirectionChanges(gauss.pmf()), 1u);
  EXPECT_TRUE(MajorityAccepts(gauss, 1, 0.3, 5));
}

TEST(KModalTesterTest, AcceptsUniformForAnyK) {
  EXPECT_TRUE(MajorityAccepts(Distribution::UniformOver(512), 1, 0.3, 5));
}

TEST(KModalTesterTest, RejectsCombAsUnimodal) {
  const auto comb = MakeComb(1024, 32, 0.2).value();
  // Certified: the comb is far from every 1-modal sequence.
  ASSERT_GT(DistanceToKModalLowerBound(comb, 1).value(), 0.25);
  EXPECT_FALSE(MajorityAccepts(comb, 1, 0.25, 5));
}

TEST(KModalTesterTest, RejectsBimodalAsMonotone) {
  // Two well-separated gaussian bumps: 3 direction changes, far from
  // monotone.
  const auto bimodal =
      MakeGaussianMixture(1024, {0.25, 0.75}, {0.05, 0.05}, {0.5, 0.5})
          .value();
  ASSERT_GT(DistanceToKModalLowerBound(bimodal, 0).value(), 0.2);
  EXPECT_FALSE(MajorityAccepts(bimodal, 0, 0.25, 5));
}

TEST(KModalTesterTest, AcceptsBimodalWithEnoughChanges) {
  const auto bimodal =
      MakeGaussianMixture(1024, {0.25, 0.75}, {0.05, 0.05}, {0.5, 0.5})
          .value();
  EXPECT_TRUE(MajorityAccepts(bimodal, 3, 0.3, 5));
}

TEST(KModalTesterTest, ValidatesEps) {
  DistributionOracle oracle(Distribution::UniformOver(64), 3);
  for (const double eps : {0.0, std::nan(""), 1.5, 1e-9, 1e-300}) {
    KModalTester tester(1, eps, KModalTesterOptions{}, 5);
    auto outcome = tester.Test(oracle);
    ASSERT_FALSE(outcome.ok()) << eps;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument) << eps;
  }
  for (const double scale : {1e300, std::numeric_limits<double>::max()}) {
    KModalTesterOptions options;
    options.sample_scale = scale;
    KModalTester tester(1, 0.25, options, 5);
    auto outcome = tester.Test(oracle);
    ASSERT_FALSE(outcome.ok()) << scale;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument) << scale;
  }
  EXPECT_EQ(oracle.SamplesDrawn(), 0);
}

}  // namespace
}  // namespace histest
