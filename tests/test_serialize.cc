#include "dist/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "dist/generators.h"

namespace histest {
namespace {

TEST(SerializeDistributionTest, RoundTripExact) {
  Rng rng(3);
  const auto d =
      Distribution::Create(rng.DirichletSymmetric(64, 0.7)).value();
  const std::string text = SerializeDistribution(d);
  auto back = ParseDistribution(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.value()[i], d[i]) << "index " << i;
  }
}

TEST(SerializeDistributionTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDistribution("").ok());
  EXPECT_FALSE(ParseDistribution("wrong-magic v1\nn 2\n0.5 0.5\n").ok());
  EXPECT_FALSE(ParseDistribution("histest-dist v2\nn 2\n0.5 0.5\n").ok());
  EXPECT_FALSE(ParseDistribution("histest-dist v1\nn 0\n").ok());
  EXPECT_FALSE(ParseDistribution("histest-dist v1\nn 3\n0.5 0.5\n").ok());
  EXPECT_FALSE(
      ParseDistribution("histest-dist v1\nn 2\n0.5 0.5 extra\n").ok());
  // Valid structure but not a distribution (sums to 0.9).
  EXPECT_FALSE(ParseDistribution("histest-dist v1\nn 2\n0.5 0.4\n").ok());
  // Finite probabilities whose sum overflows.
  EXPECT_EQ(ParseDistribution("histest-dist v1\nn 2\n1e308 1e308\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializePiecewiseTest, RoundTripExact) {
  Rng rng(5);
  const auto pwc = MakeRandomKHistogram(128, 6, rng).value();
  const std::string text = SerializePiecewise(pwc);
  auto back = ParsePiecewise(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().NumPieces(), pwc.NumPieces());
  for (size_t p = 0; p < pwc.NumPieces(); ++p) {
    EXPECT_EQ(back.value().pieces()[p].interval, pwc.pieces()[p].interval);
    EXPECT_DOUBLE_EQ(back.value().pieces()[p].value, pwc.pieces()[p].value);
  }
}

TEST(SerializePiecewiseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParsePiecewise("").ok());
  EXPECT_FALSE(ParsePiecewise("histest-pwc v1\nn 4 pieces 1\n").ok());
  // Pieces that do not cover the domain.
  EXPECT_FALSE(ParsePiecewise("histest-pwc v1\nn 4 pieces 1\n3 0.25\n").ok());
  // Negative value.
  EXPECT_FALSE(
      ParsePiecewise("histest-pwc v1\nn 4 pieces 1\n4 -0.25\n").ok());
  // Trailing garbage.
  EXPECT_FALSE(
      ParsePiecewise("histest-pwc v1\nn 4 pieces 1\n4 0.25\njunk\n").ok());
}

TEST(SerializePiecewiseTest, RejectsNoUsableMass) {
  // Zero total mass, and a total (value times size) that overflows: neither
  // can be normalized into a sampler.
  for (const char* text : {"histest-pwc v1\nn 4 pieces 1\n4 0\n",
                           "histest-pwc v1\nn 4 pieces 1\n4 1e308\n",
                           "histest-pwc v1\nn 4 pieces 2\n2 0\n4 0\n"}) {
    EXPECT_EQ(ParsePiecewise(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
  // A sub-probability function with positive mass still parses.
  EXPECT_TRUE(ParsePiecewise("histest-pwc v1\nn 4 pieces 2\n2 0\n4 0.1\n")
                  .ok());
}

TEST(SerializeFileTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/histest_serialize_test.txt";
  const auto d = Distribution::UniformOver(8);
  ASSERT_TRUE(WriteTextFile(path, SerializeDistribution(d)).ok());
  auto contents = ReadTextFile(path);
  ASSERT_TRUE(contents.ok());
  auto back = ParseDistribution(contents.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 8u);
  std::remove(path.c_str());
}

TEST(SerializeFileTest, MissingFileIsNotFound) {
  auto result = ReadTextFile("/nonexistent/histest/file.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(
      WriteTextFile("/nonexistent/histest/file.txt", "x").code(),
      StatusCode::kNotFound);
}

}  // namespace
}  // namespace histest
