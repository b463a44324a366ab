#include "dist/distribution.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace histest {
namespace {

TEST(DistributionTest, CreateValidDistribution) {
  auto d = Distribution::Create({0.25, 0.25, 0.5});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().size(), 3u);
  EXPECT_DOUBLE_EQ(d.value()[2], 0.5);
}

TEST(DistributionTest, CreateRejectsBadInput) {
  EXPECT_FALSE(Distribution::Create({}).ok());
  EXPECT_FALSE(Distribution::Create({0.5, -0.1, 0.6}).ok());
  EXPECT_FALSE(Distribution::Create({0.5, 0.4}).ok());  // sums to 0.9
  EXPECT_FALSE(Distribution::Create({0.5, std::nan("")}).ok());
  EXPECT_FALSE(
      Distribution::Create({0.5, std::numeric_limits<double>::infinity()})
          .ok());
}

TEST(DistributionTest, RejectsATotalThatOverflows) {
  // Finite entries whose sum passes DBL_MAX: the total is not finite, and a
  // NaN total would pass both factories' comparisons.
  const std::vector<double> huge = {1e308, 1e308};
  EXPECT_EQ(Distribution::Create(huge).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Distribution::FromWeights(huge).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Distribution::FromWeights({1e308, 1e308, 1.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DistributionTest, CreateRenormalizesWithinTolerance) {
  auto d = Distribution::Create({0.5, 0.5 + 1e-9});
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value()[0] + d.value()[1], 1.0, 1e-15);
}

TEST(DistributionTest, FromWeightsNormalizes) {
  auto d = Distribution::FromWeights({2.0, 6.0});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value()[0], 0.25);
  EXPECT_DOUBLE_EQ(d.value()[1], 0.75);
  EXPECT_FALSE(Distribution::FromWeights({0.0, 0.0}).ok());
}

TEST(DistributionTest, UniformAndPointMass) {
  const Distribution u = Distribution::UniformOver(4);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(u[i], 0.25);
  const Distribution p = Distribution::PointMass(4, 2);
  EXPECT_DOUBLE_EQ(p[2], 1.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_EQ(p.SupportSize(), 1u);
}

TEST(DistributionTest, MassOfInterval) {
  auto d = Distribution::Create({0.1, 0.2, 0.3, 0.4}).value();
  EXPECT_NEAR(d.MassOf({1, 3}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(d.MassOf({2, 2}), 0.0);
  EXPECT_NEAR(d.MassOf({0, 4}), 1.0, 1e-12);
}

TEST(DistributionTest, CdfEndsAtOne) {
  auto d = Distribution::Create({0.1, 0.2, 0.7}).value();
  const std::vector<double> cdf = d.Cdf();
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_NEAR(cdf[0], 0.1, 1e-12);
  EXPECT_NEAR(cdf[1], 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(DistributionTest, MaxProbabilityAndSupport) {
  auto d = Distribution::Create({0.0, 0.7, 0.3, 0.0}).value();
  EXPECT_DOUBLE_EQ(d.MaxProbability(), 0.7);
  EXPECT_EQ(d.SupportSize(), 2u);
}

TEST(DistributionTest, PrefixIndexMatchesMassOf) {
  auto d = Distribution::Create({0.1, 0.0, 0.2, 0.3, 0.4}).value();
  const PrefixMassIndex& index = d.PrefixIndex();
  EXPECT_EQ(index.domain_size(), d.size());
  for (size_t b = 0; b <= d.size(); ++b) {
    for (size_t e = b; e <= d.size(); ++e) {
      EXPECT_NEAR(index.MassOf({b, e}), d.MassOf({b, e}), 1e-14);
    }
  }
  // Repeated calls return the same published index.
  EXPECT_EQ(&d.PrefixIndex(), &index);
}

TEST(DistributionTest, PrefixIndexConcurrentFirstCallers) {
  // Many threads race to trigger the one-shot lazy build; all must observe
  // the same published index and identical query results.
  std::vector<double> pmf(4096);
  for (size_t i = 0; i < pmf.size(); ++i) {
    pmf[i] = static_cast<double>(i + 1);
  }
  const auto d = Distribution::FromWeights(std::move(pmf)).value();
  constexpr size_t kThreads = 8;
  std::vector<const PrefixMassIndex*> seen(kThreads, nullptr);
  std::vector<double> mass(kThreads, -1.0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&d, &seen, &mass, t] {
        const PrefixMassIndex& index = d.PrefixIndex();
        seen[t] = &index;
        mass[t] = index.MassOf({100, 2048});
      });
    }
    for (auto& th : threads) th.join();
  }
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(mass[t], mass[0]);  // bit-identical, not merely close
  }
  EXPECT_NEAR(mass[0], d.MassOf({100, 2048}), 1e-12);
}

TEST(DistributionTest, ConditionedOnIntervals) {
  auto d = Distribution::Create({0.1, 0.2, 0.3, 0.4}).value();
  auto c = d.ConditionedOn({{0, 1}, {3, 4}});
  ASSERT_TRUE(c.ok());
  EXPECT_NEAR(c.value()[0], 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(c.value()[1], 0.0);
  EXPECT_NEAR(c.value()[3], 0.8, 1e-12);
}

TEST(DistributionTest, ConditionedOnOutOfRangeFails) {
  auto d = Distribution::Create({0.5, 0.5}).value();
  EXPECT_FALSE(d.ConditionedOn({{0, 3}}).ok());
}

TEST(DistributionTest, ConditionedOnZeroMassFails) {
  auto d = Distribution::Create({0.0, 1.0}).value();
  EXPECT_FALSE(d.ConditionedOn({{0, 1}}).ok());
}

}  // namespace
}  // namespace histest
