#include "testing/identity_adk.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "dist/generators.h"
#include "lowerbound/paninski_family.h"
#include "testing/oracle.h"

namespace histest {
namespace {

bool MajorityAccepts(const Distribution& unknown, const Distribution& ref,
                     double eps, int reps) {
  Rng rng(777);
  int accepts = 0;
  for (int r = 0; r < reps; ++r) {
    DistributionOracle oracle(unknown, rng.Next());
    AdkIdentityTester tester(ref, eps, AdkOptions{}, rng.Next());
    auto outcome = tester.Test(oracle);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.ok() && outcome.value().verdict == Verdict::kAccept) {
      ++accepts;
    }
  }
  return accepts * 2 > reps;
}

TEST(AdkIdentityTest, AcceptsIdenticalDistribution) {
  const auto ref = MakeZipf(512, 0.8).value();
  EXPECT_TRUE(MajorityAccepts(ref, ref, 0.25, 7));
}

TEST(AdkIdentityTest, RejectsFarDistribution) {
  const auto ref = Distribution::UniformOver(512);
  Rng rng(3);
  const auto far = MakePaninskiInstance(512, 0.25, 2.5, 1, rng).value();
  EXPECT_FALSE(MajorityAccepts(far.dist, ref, 0.25, 7));
}

TEST(AdkIdentityTest, RejectsShiftedHistogram) {
  const auto ref = MakeStaircase(256, 4).value().ToDistribution().value();
  // Reverse the staircase: same masses, opposite order -> TV is large.
  std::vector<double> reversed(ref.pmf().rbegin(), ref.pmf().rend());
  const auto far = Distribution::Create(std::move(reversed)).value();
  EXPECT_FALSE(MajorityAccepts(far, ref, 0.25, 7));
}

TEST(AdkIdentityTest, DomainMismatchIsStructuralError) {
  DistributionOracle oracle(Distribution::UniformOver(8), 3);
  AdkIdentityTester tester(Distribution::UniformOver(16), 0.25, AdkOptions{},
                           5);
  EXPECT_FALSE(tester.Test(oracle).ok());
}

TEST(AdkIdentityTest, HostileEpsIsInvalidArgument) {
  for (const double eps : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0, 1.5,
                           std::numeric_limits<double>::infinity()}) {
    DistributionOracle oracle(Distribution::UniformOver(16), 3);
    AdkIdentityTester tester(Distribution::UniformOver(16), eps, AdkOptions{},
                             5);
    const auto outcome = tester.Test(oracle);
    ASSERT_FALSE(outcome.ok()) << "eps=" << eps;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
        << "eps=" << eps;
    EXPECT_EQ(oracle.SamplesDrawn(), 0) << "eps=" << eps;
  }
}

TEST(AdkRestrictedTest, IgnoresInactiveIntervals) {
  // The unknown distribution differs from the reference ONLY on the second
  // half; restricting the test to the first half must accept.
  const size_t n = 512;
  std::vector<double> ref_pmf(n, 1.0 / n);
  std::vector<double> unk_pmf(n, 1.0 / n);
  // Move mass within the second half (heavy on one element).
  for (size_t i = n / 2; i < n; ++i) unk_pmf[i] = 0.0;
  unk_pmf[n - 1] = 0.5;
  const auto ref = Distribution::Create(std::move(ref_pmf)).value();
  const auto unknown = Distribution::Create(std::move(unk_pmf)).value();
  const Partition partition = Partition::EquiWidth(n, 2);

  Rng rng(9);
  int accepts_restricted = 0, accepts_full = 0;
  const int reps = 7;
  for (int r = 0; r < reps; ++r) {
    DistributionOracle oracle(unknown, rng.Next());
    Rng trng(rng.Next());
    const std::vector<bool> first_half = {true, false};
    auto outcome = AdkRestrictedIdentityTest(
        oracle, ref.pmf(), partition, first_half, 0.25, 5000.0, AdkOptions{},
        trng);
    ASSERT_TRUE(outcome.ok());
    accepts_restricted +=
        outcome.value().verdict == Verdict::kAccept ? 1 : 0;

    DistributionOracle oracle2(unknown, rng.Next());
    Rng trng2(rng.Next());
    const std::vector<bool> both = {true, true};
    auto outcome2 = AdkRestrictedIdentityTest(
        oracle2, ref.pmf(), partition, both, 0.25, 5000.0, AdkOptions{},
        trng2);
    ASSERT_TRUE(outcome2.ok());
    accepts_full += outcome2.value().verdict == Verdict::kAccept ? 1 : 0;
  }
  EXPECT_GT(accepts_restricted * 2, reps);
  EXPECT_LT(accepts_full * 2, reps);
}

TEST(AdkRestrictedTest, ValidatesParameters) {
  DistributionOracle oracle(Distribution::UniformOver(8), 3);
  const Partition p = Partition::Trivial(8);
  const std::vector<bool> active = {true};
  const std::vector<double> ref(8, 0.125);
  Rng rng(5);
  EXPECT_FALSE(AdkRestrictedIdentityTest(oracle, ref, p, active, 0.0, 100.0,
                                         AdkOptions{}, rng)
                   .ok());
  EXPECT_FALSE(AdkRestrictedIdentityTest(oracle, ref, p, active, 0.25, 0.0,
                                         AdkOptions{}, rng)
                   .ok());
  const std::vector<double> wrong_size(4, 0.25);
  EXPECT_FALSE(AdkRestrictedIdentityTest(oracle, wrong_size, p, active, 0.25,
                                         100.0, AdkOptions{}, rng)
                   .ok());
}

TEST(AdkIdentityTest, PaperFaithfulThresholdsStillWorkOnTinyDomains) {
  // With the paper's constants the budget is enormous; keep n tiny.
  AdkOptions paper;
  paper.sample_constant = 20000.0;
  paper.accept_threshold = 1.0 / 500.0;
  paper.noise_sigmas = 0.0;
  const auto ref = Distribution::UniformOver(16);
  Rng rng(13);
  DistributionOracle oracle(ref, rng.Next());
  AdkIdentityTester tester(ref, 0.5, paper, rng.Next());
  auto outcome = tester.Test(oracle);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().verdict, Verdict::kAccept);
}

}  // namespace
}  // namespace histest
