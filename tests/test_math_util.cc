#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace histest {
namespace {

TEST(KahanSumTest, CompensatesSmallAdditions) {
  KahanSum acc;
  acc.Add(1.0);
  for (int i = 0; i < 1000000; ++i) acc.Add(1e-16);
  EXPECT_NEAR(acc.Total(), 1.0 + 1e-10, 1e-13);
}

TEST(KahanSumTest, NeumaierHandlesLargeThenSmall) {
  KahanSum acc;
  acc.Add(1e100);
  acc.Add(1.0);
  acc.Add(-1e100);
  EXPECT_DOUBLE_EQ(acc.Total(), 1.0);
}

TEST(KahanSumTest, ResetClears) {
  KahanSum acc;
  acc.Add(5.0);
  acc.Reset();
  EXPECT_DOUBLE_EQ(acc.Total(), 0.0);
}

TEST(MathUtilTest, SumOf) {
  EXPECT_DOUBLE_EQ(SumOf({1.0, 2.0, 3.0}), 6.0);
  EXPECT_DOUBLE_EQ(SumOf({}), 0.0);
}

TEST(MathUtilTest, NearlyEqual) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-10, 1e-9));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1, 1e-9));
}

TEST(MathUtilTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathUtilTest, LogChooseMatchesSmallCases) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LogChoose(10, 10), 0.0, 1e-9);
  EXPECT_NEAR(LogChoose(52, 5), std::log(2598960.0), 1e-6);
}

// Bit patterns computed with std::lgamma; LogGamma must reproduce them.
TEST(MathUtilTest, LogChooseValuesArePinned) {
  EXPECT_TRUE(ExactlyEqual(LogChoose(5, 2), 0x1.26bb1bbb55515p+1));
  EXPECT_TRUE(ExactlyEqual(LogChoose(1000, 300), 0x1.2fa2c063bc3dp+9));
  EXPECT_TRUE(ExactlyEqual(LogChoose(1000000, 12345), 0x1.03d103fae588p+16));
  EXPECT_TRUE(ExactlyEqual(LogChoose(int64_t{1} << 40, 777), 0x1.0be1f8p+14));
  EXPECT_TRUE(ExactlyEqual(LogChoose(64, 32), 0x1.506b1213610e4p+5));
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(MathUtilTest, CeilToCount) {
  EXPECT_EQ(CeilToCount(0.1), 1);
  EXPECT_EQ(CeilToCount(3.2), 4);
  EXPECT_EQ(CeilToCount(5.0), 5);
  EXPECT_EQ(CeilToCount(-2.0), 1);
}

TEST(MathUtilTest, PrefixSums) {
  const std::vector<double> p = PrefixSums({1.0, 2.0, 3.0});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 3.0);
  EXPECT_DOUBLE_EQ(p[2], 6.0);
}

TEST(MathUtilTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(MedianOf({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(MedianOf({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(MedianOf({7.0}), 7.0);
}

TEST(MathUtilTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(MeanOf({2.0, 4.0, 6.0}), 4.0);
  EXPECT_NEAR(StdDevOf({2.0, 4.0, 6.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(StdDevOf({5.0}), 0.0);
}

TEST(MathUtilTest, Log2) {
  EXPECT_DOUBLE_EQ(Log2(8.0), 3.0);
  EXPECT_DOUBLE_EQ(Log2(1.0), 0.0);
}

}  // namespace
}  // namespace histest
