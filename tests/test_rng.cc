#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math_util.h"

namespace histest {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(RngTest, UniformIntBoundsAndUniformity) {
  Rng rng(13);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const uint64_t v = rng.UniformInt(bound);
    ASSERT_LT(v, bound);
    ++counts[v];
  }
  // Chi-square goodness of fit, 9 dof; 0.999 quantile ~27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(trials) / bound;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 28.0);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(19);
  const int trials = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sumsq / trials, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(23);
  const int trials = 100000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

class PoissonMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMomentsTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(29);
  const int trials = 60000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const double x = static_cast<double>(rng.Poisson(mean));
    EXPECT_GE(x, 0.0);
    sum += x;
    sumsq += x * x;
  }
  const double emp_mean = sum / trials;
  const double emp_var = sumsq / trials - emp_mean * emp_mean;
  // Tolerances ~5 standard errors.
  const double se_mean = std::sqrt(mean / trials);
  EXPECT_NEAR(emp_mean, mean, 5.0 * se_mean + 1e-9);
  EXPECT_NEAR(emp_var, mean, 0.05 * mean + 5.0 * se_mean + 0.01);
}

// Covers the Knuth branch (< 10), the PTRS branch (>= 10), and the
// boundary.
INSTANTIATE_TEST_SUITE_P(Means, PoissonMomentsTest,
                         ::testing::Values(0.1, 1.0, 5.0, 9.9, 10.0, 30.0,
                                           250.0, 4000.0));

// Pins the PTRS stream at mean 1e3: its acceptance test goes through
// LogGamma, which must keep std::lgamma's values bit for bit.
TEST(RngTest, PoissonPtrsStreamIsPinned) {
  Rng rng(20231017);
  const std::vector<int64_t> expected = {969,  1013, 1051, 1040, 1040, 971,
                                         1008, 1063, 999,  1039, 1001, 1017};
  for (const int64_t want : expected) EXPECT_EQ(rng.Poisson(1e3), want);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

class BinomialMomentsTest
    : public ::testing::TestWithParam<std::pair<int64_t, double>> {};

TEST_P(BinomialMomentsTest, MeanMatches) {
  const auto [n, p] = GetParam();
  Rng rng(37);
  const int trials = 40000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const int64_t x = rng.Binomial(n, p);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, n);
    sum += static_cast<double>(x);
  }
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p) / trials);
  EXPECT_NEAR(sum / trials, mean, 6.0 * sd + 0.01);
}

// Covers inversion (n*p < 10), BTRD (n*p >= 10), and the p > 0.5
// reflection.
INSTANTIATE_TEST_SUITE_P(
    Params, BinomialMomentsTest,
    ::testing::Values(std::pair<int64_t, double>{10, 0.3},
                      std::pair<int64_t, double>{64, 0.5},
                      std::pair<int64_t, double>{1000, 0.01},
                      std::pair<int64_t, double>{1000, 0.9}));

class BinomialPmfTest
    : public ::testing::TestWithParam<std::pair<int64_t, double>> {};

// Chi-square of 40,000 draws against the exact pmf, tail bins merged until
// each expects >= 5 draws.
TEST_P(BinomialPmfTest, MatchesExactPmf) {
  const auto [n, p] = GetParam();
  Rng rng(59);
  const int trials = 40000;
  std::vector<int64_t> seen(static_cast<size_t>(n) + 1, 0);
  for (int i = 0; i < trials; ++i) {
    const int64_t x = rng.Binomial(n, p);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, n);
    ++seen[static_cast<size_t>(x)];
  }
  double chi2 = 0.0;
  double dof = -1.0;
  double expected = 0.0;
  int64_t observed = 0;
  for (int64_t k = 0; k <= n; ++k) {
    const double log_pmf = LogChoose(n, k) +
                           static_cast<double>(k) * std::log(p) +
                           static_cast<double>(n - k) * std::log1p(-p);
    expected += trials * std::exp(log_pmf);
    observed += seen[static_cast<size_t>(k)];
    if (expected < 5.0 && k < n) continue;
    const double d = static_cast<double>(observed) - expected;
    chi2 += d * d / expected;
    dof += 1.0;
    expected = 0.0;
    observed = 0;
  }
  // 0.999 quantile (Wilson-Hilferty).
  const double h = 2.0 / (9.0 * dof);
  const double limit = dof * std::pow(1.0 - h + 3.09 * std::sqrt(h), 3.0);
  EXPECT_LT(chi2, limit) << "n " << n << " p " << p << " dof " << dof;
}

// n*p just below and at or above 10 (inversion | BTRD), the same pairs
// reflected through p > 0.5, and a wide BTRD case whose squeeze and
// Stirling tests run (|k - mode| > 15).
INSTANTIATE_TEST_SUITE_P(
    Boundary, BinomialPmfTest,
    ::testing::Values(std::pair<int64_t, double>{40, 0.24},
                      std::pair<int64_t, double>{40, 0.25},
                      std::pair<int64_t, double>{1000, 0.0099},
                      std::pair<int64_t, double>{1000, 0.0101},
                      std::pair<int64_t, double>{40, 0.76},
                      std::pair<int64_t, double>{40, 0.75},
                      std::pair<int64_t, double>{1000, 0.9901},
                      std::pair<int64_t, double>{1000, 0.9899},
                      std::pair<int64_t, double>{5000, 0.3}));

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(41);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0);
  EXPECT_EQ(rng.Binomial(100, 0.0), 0);
  EXPECT_EQ(rng.Binomial(100, 1.0), 100);
}

TEST(RngTest, BinomialHugeNReturnsInO1) {
  // n = 10^12 takes constant time on every branch: inversion (n*p = 5),
  // BTRD and its reflection.
  Rng rng(61);
  const int64_t n = 1000000000000;
  for (const double p : {5e-12, 0.3, 0.7}) {
    const double mean = static_cast<double>(n) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    for (int i = 0; i < 100; ++i) {
      const int64_t x = rng.Binomial(n, p);
      ASSERT_GE(x, 0);
      ASSERT_LE(x, n);
      EXPECT_LT(std::fabs(static_cast<double>(x) - mean), 8.0 * sd + 1.0)
          << "p " << p;
    }
  }
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(43);
  for (const double shape : {0.5, 1.0, 2.5, 10.0}) {
    const int trials = 60000;
    double sum = 0.0;
    for (int i = 0; i < trials; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / trials, shape, 0.05 * shape + 0.02) << "shape " << shape;
  }
}

TEST(RngTest, DirichletSumsToOneAndMeansMatch) {
  Rng rng(47);
  const std::vector<double> alpha = {1.0, 2.0, 3.0};
  std::vector<double> mean(3, 0.0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const std::vector<double> x = rng.Dirichlet(alpha);
    double total = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GE(x[j], 0.0);
      total += x[j];
      mean[j] += x[j];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_NEAR(mean[0] / trials, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(mean[1] / trials, 2.0 / 6.0, 0.01);
  EXPECT_NEAR(mean[2] / trials, 3.0 / 6.0, 0.01);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(53);
  const std::vector<size_t> perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t p : perm) {
    ASSERT_LT(p, 100u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(RngTest, PermutationIsNotIdentityTypically) {
  Rng rng(59);
  const std::vector<size_t> perm = rng.Permutation(64);
  size_t fixed = 0;
  for (size_t i = 0; i < perm.size(); ++i) fixed += (perm[i] == i) ? 1 : 0;
  EXPECT_LT(fixed, 10u);  // E[fixed points] = 1
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(61);
  Rng child = parent.Fork();
  // The child stream should not reproduce the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(67);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

}  // namespace
}  // namespace histest
