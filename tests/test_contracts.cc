#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "dist/distribution.h"
#include "dist/empirical.h"
#include "dist/interval.h"
#include "testing/oracle.h"

namespace histest {
namespace {

/// Contract (CHECK) violations are programmer errors and abort the
/// process. These death tests document the fatal API boundaries so they
/// do not silently become undefined behaviour.

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, PointMassOutOfRangeAborts) {
  EXPECT_DEATH(Distribution::PointMass(4, 9), "CHECK failed");
}

TEST(ContractsDeathTest, CountVectorAddOutOfRangeAborts) {
  CountVector cv(4);
  EXPECT_DEATH(cv.Add(4), "CHECK failed");
}

TEST(ContractsDeathTest, WideFromCountsNegativeCountAborts) {
  // Dense draws skip the re-read (FromDrawnCounts); outside input, wide
  // vectors included, still goes through FromCounts' check.
  for (const size_t n : {size_t{1} << 16, (size_t{1} << 18) + 3}) {
    std::vector<int64_t> counts(n, 1);
    counts[n - 2] = -1;
    EXPECT_DEATH(CountVector::FromCounts(counts), "CHECK failed") << n;
  }
}

TEST(ContractsDeathTest, TrivialPartitionOfEmptyDomainAborts) {
  EXPECT_DEATH(Partition::Trivial(0), "CHECK failed");
}

TEST(ContractsDeathTest, IntervalOfOutOfRangeAborts) {
  const Partition p = Partition::Trivial(4);
  EXPECT_DEATH(p.IntervalOf(4), "CHECK failed");
}

TEST(ContractsDeathTest, UniformIntZeroBoundAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(0), "CHECK failed");
}

TEST(ContractsDeathTest, PoissonNegativeMeanAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.Poisson(-1.0), "CHECK failed");
}

TEST(ContractsDeathTest, ConstantOracleOutOfDomainAborts) {
  EXPECT_DEATH(ConstantOracle(4, 4), "CHECK failed");
}

TEST(ContractsDeathTest, CheckMacrosReportValues) {
  EXPECT_DEATH(HISTEST_CHECK_EQ(1, 2), "1 == 2");
  EXPECT_DEATH(HISTEST_CHECK_GT(0.5, 0.7), "0.5 > 0.7");
}

}  // namespace
}  // namespace histest
