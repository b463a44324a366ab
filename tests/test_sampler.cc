#include "dist/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "dist/empirical.h"
#include "dist/generators.h"

namespace histest {
namespace {

/// Chi-square goodness-of-fit of sample counts against a pmf; returns the
/// statistic (dof = support size - 1).
double ChiSquareGof(const std::vector<int64_t>& counts,
                    const std::vector<double>& pmf, int64_t m) {
  double chi2 = 0.0;
  for (size_t i = 0; i < pmf.size(); ++i) {
    const double expected = static_cast<double>(m) * pmf[i];
    if (expected < 1e-12) {
      EXPECT_EQ(counts[i], 0);
      continue;
    }
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

TEST(AliasSamplerTest, MatchesDistributionChiSquare) {
  const auto dist = Distribution::Create({0.1, 0.2, 0.3, 0.25, 0.15}).value();
  AliasSampler sampler(dist);
  Rng rng(3);
  const int64_t m = 200000;
  std::vector<int64_t> counts(5, 0);
  for (int64_t s = 0; s < m; ++s) ++counts[sampler.Sample(rng)];
  // 4 dof; 0.999 quantile ~18.5.
  EXPECT_LT(ChiSquareGof(counts, dist.pmf(), m), 18.5);
}

TEST(AliasSamplerTest, PointMassAlwaysSamplesSupport) {
  AliasSampler sampler(Distribution::PointMass(10, 7));
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Sample(rng), 7u);
}

TEST(AliasSamplerTest, ZeroWeightElementsNeverSampled) {
  const auto dist = Distribution::Create({0.5, 0.0, 0.5}).value();
  AliasSampler sampler(dist);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) EXPECT_NE(sampler.Sample(rng), 1u);
}

TEST(AliasSamplerTest, FromRawWeights) {
  AliasSampler sampler(std::vector<double>{1.0, 3.0});
  Rng rng(9);
  int ones = 0;
  const int m = 100000;
  for (int i = 0; i < m; ++i) ones += sampler.Sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / m, 0.75, 0.01);
}

TEST(AliasSamplerTest, SampleMany) {
  AliasSampler sampler(Distribution::UniformOver(4));
  Rng rng(11);
  const auto samples = sampler.SampleMany(rng, 100);
  EXPECT_EQ(samples.size(), 100u);
  for (size_t s : samples) EXPECT_LT(s, 4u);
}

TEST(AliasSamplerTest, SampleBatchStreamMatchesRepeatedSample) {
  // Two tables: random weights, whose prob values spread over (0, 1], and a
  // k-histogram, whose few distinct mid-range prob values are the tester's
  // common case. The lengths cross SampleBatch's 1024-sample chunk boundary.
  Rng weights_rng(4106);
  std::vector<double> weights(777);
  for (double& w : weights) w = weights_rng.UniformDouble();
  const AliasSampler random_table(weights);
  const AliasSampler staircase(
      MakeStaircase(777, 7).value().ToDistribution().value());
  const int64_t kCounts[] = {0, 1, 3, 4, 5, 7, 8, 9, 31, 1023, 1024, 1025,
                             2049};
  for (const AliasSampler* sampler : {&random_table, &staircase}) {
    for (const int64_t count : kCounts) {
      const size_t len = static_cast<size_t>(count);
      Rng rng_batch(static_cast<uint64_t>(9000 + count));
      Rng rng_single(static_cast<uint64_t>(9000 + count));
      // One guard slot past the end, which SampleBatch must not write.
      std::vector<size_t> batch(len + 1, ~size_t{0});
      sampler->SampleBatch(rng_batch, batch.data(), count);
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(batch[i], sampler->Sample(rng_single))
            << "count=" << count << " i=" << i;
      }
      EXPECT_EQ(batch[len], ~size_t{0}) << "count=" << count;
      // Both streams end at the same Rng state.
      EXPECT_EQ(rng_batch.Next(), rng_single.Next()) << "count=" << count;
    }
  }
}

TEST(PiecewiseSamplerTest, MatchesPiecewiseDistribution) {
  Rng gen(13);
  const auto pwc = MakeRandomKHistogram(64, 4, gen).value();
  PiecewiseSampler sampler(pwc);
  Rng rng(15);
  const int64_t m = 200000;
  std::vector<int64_t> counts(64, 0);
  for (int64_t s = 0; s < m; ++s) ++counts[sampler.Sample(rng)];
  const auto dense = pwc.ToDistribution().value();
  // 63 dof; 0.9999 quantile ~ 118.
  EXPECT_LT(ChiSquareGof(counts, dense.pmf(), m), 118.0);
}

TEST(PiecewiseSamplerTest, SubProbabilityFunctionsSampleConditional) {
  // Mass 0.6 function: sampling normalizes.
  const auto pwc =
      PiecewiseConstant::Create(
          4, {PiecewiseConstant::Piece{{0, 2}, 0.2},
              PiecewiseConstant::Piece{{2, 4}, 0.1}})
          .value();
  PiecewiseSampler sampler(pwc);
  Rng rng(17);
  int low = 0;
  const int m = 100000;
  for (int i = 0; i < m; ++i) low += sampler.Sample(rng) < 2 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(low) / m, 0.4 / 0.6, 0.01);
}

TEST(PoissonizedCountsTest, MeansMatch) {
  const auto dist = Distribution::Create({0.5, 0.3, 0.2}).value();
  Rng rng(19);
  const double m = 1000.0;
  std::vector<double> avg(3, 0.0);
  const int reps = 2000;
  for (int r = 0; r < reps; ++r) {
    const auto counts = PoissonizedCounts(dist, m, rng);
    for (size_t i = 0; i < 3; ++i) avg[i] += static_cast<double>(counts[i]);
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(avg[i] / reps, m * dist[i], 0.03 * m * dist[i] + 1.0);
  }
}

TEST(MultinomialCountsTest, TotalsAreExact) {
  AliasSampler sampler(Distribution::UniformOver(8));
  Rng rng(21);
  std::vector<int64_t> counts(8, 0);
  sampler.AddCounts(rng, 1234, counts.data());
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 1234);
}

/// 0.999 quantile of chi-square with `dof` degrees of freedom
/// (Wilson-Hilferty).
double ChiSquareQuantile999(double dof) {
  const double h = 2.0 / (9.0 * dof);
  const double w = 1.0 - h + 3.09 * std::sqrt(h);
  return dof * w * w * w;
}

/// First and second moments of `reps` AddCounts draws: the Pearson
/// statistic of the summed counts (a sum of multinomials is multinomial,
/// so it is chi-square with n - 1 dof), and the sample variance and
/// covariance of the first `tracked` elements.
struct CountMoments {
  double pearson = 0.0;
  double dof = 0.0;
  std::vector<double> variance;
  std::vector<std::vector<double>> covariance;
};

CountMoments MeasureAddCounts(const Distribution& dist, int64_t count,
                              int reps, size_t tracked, uint64_t seed) {
  const size_t n = dist.size();
  AliasSampler sampler(dist);
  Rng rng(seed);
  std::vector<int64_t> sum(n, 0);
  std::vector<std::vector<double>> cross(tracked,
                                         std::vector<double>(tracked, 0.0));
  std::vector<int64_t> counts(n);
  for (int r = 0; r < reps; ++r) {
    std::fill(counts.begin(), counts.end(), 0);
    sampler.AddCounts(rng, count, counts.data());
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(counts[i], 0);
      total += counts[i];
      sum[i] += counts[i];
    }
    EXPECT_EQ(total, count) << "rep " << r;
    for (size_t i = 0; i < tracked; ++i) {
      for (size_t j = 0; j < tracked; ++j) {
        cross[i][j] += static_cast<double>(counts[i] * counts[j]);
      }
    }
  }
  CountMoments out;
  const double all = static_cast<double>(count) * reps;
  for (size_t i = 0; i < n; ++i) {
    const double expected = all * dist[i];
    if (expected <= 0.0) {
      EXPECT_EQ(sum[i], 0) << i;
      continue;
    }
    const double d = static_cast<double>(sum[i]) - expected;
    out.pearson += d * d / expected;
    out.dof += 1.0;
  }
  out.dof -= 1.0;
  out.covariance.assign(tracked, std::vector<double>(tracked, 0.0));
  for (size_t i = 0; i < tracked; ++i) {
    for (size_t j = 0; j < tracked; ++j) {
      const double mi = static_cast<double>(sum[i]) / reps;
      const double mj = static_cast<double>(sum[j]) / reps;
      out.covariance[i][j] = (cross[i][j] - reps * mi * mj) / (reps - 1);
    }
    out.variance.push_back(out.covariance[i][i]);
  }
  return out;
}

/// Checks mean, variance count p (1 - p) and covariance -count p_i p_j
/// of the first `tracked` elements against the multinomial, each within
/// six standard errors. A Poissonized vector (variance count p,
/// covariance 0) fails these for the heavy elements the cases put first.
void ExpectMultinomialMoments(const Distribution& dist, int64_t count,
                              size_t tracked, uint64_t seed) {
  const int reps = 20000;
  const CountMoments m = MeasureAddCounts(dist, count, reps, tracked, seed);
  EXPECT_LT(m.pearson, ChiSquareQuantile999(m.dof))
      << "dof " << m.dof << " count " << count;
  const double c = static_cast<double>(count);
  for (size_t i = 0; i < tracked; ++i) {
    for (size_t j = 0; j < tracked; ++j) {
      const double var_i = c * dist[i] * (1.0 - dist[i]);
      const double var_j = c * dist[j] * (1.0 - dist[j]);
      const double want = i == j ? var_i : -c * dist[i] * dist[j];
      // se of a sample (co)variance: sqrt((var_i var_j + cov^2) / reps).
      const double se = std::sqrt((var_i * var_j + want * want) / reps);
      EXPECT_NEAR(m.covariance[i][j], want, 6.0 * se + 1e-9)
          << "(" << i << ", " << j << ") count " << count;
    }
  }
}

/// Three heavy elements first (0.3, 0.2, 0.1), the rest of the mass spread
/// unevenly so the alias table has columns with every kind of split.
Distribution HeavyHeadPmf(size_t n) {
  std::vector<double> w(n);
  w[0] = 0.3;
  w[1] = 0.2;
  w[2] = 0.1;
  double tail = 0.0;
  for (size_t i = 3; i < n; ++i) tail += 1.0 + static_cast<double>(i % 7);
  for (size_t i = 3; i < n; ++i) {
    w[i] = 0.4 * (1.0 + static_cast<double>(i % 7)) / tail;
  }
  return Distribution::Create(w).value();
}

TEST(AddCountsTest, MultinomialJustAboveSparseCutover) {
  // count = n/8 + 1: the smallest dense shape, lambda ~ 0.09 per column.
  ExpectMultinomialMoments(HeavyHeadPmf(1024), 129, 4, 101);
}

TEST(AddCountsTest, MultinomialBernoulliSplit) {
  // count / n = 20: columns mostly split by summed coin flips.
  ExpectMultinomialMoments(HeavyHeadPmf(256), 20 * 256, 4, 102);
}

TEST(AddCountsTest, MultinomialBinomialSplitFromTable) {
  // count / n = 200: table-drawn columns split by Binomial.
  ExpectMultinomialMoments(HeavyHeadPmf(64), 200 * 64, 4, 103);
}

TEST(AddCountsTest, MultinomialBinomialSplitLargeColumns) {
  // count / n = 1250: columns past the table limit (Rng::Poisson).
  ExpectMultinomialMoments(HeavyHeadPmf(16), 1250 * 16, 4, 104);
}

TEST(AddCountsTest, MultinomialUniformPmf) {
  // Every prob_ is 1: no column splits at all.
  AliasSampler sampler(Distribution::UniformOver(256));
  for (double p : sampler.prob()) ASSERT_EQ(p, 1.0);
  ExpectMultinomialMoments(Distribution::UniformOver(256), 3000, 3, 105);
}

TEST(AddCountsTest, PointMassGetsEveryCount) {
  AliasSampler sampler(Distribution::PointMass(500, 123));
  Rng rng(106);
  for (const int64_t count : {int64_t{63}, int64_t{5000}, int64_t{2000000}}) {
    std::vector<int64_t> counts(500, 0);
    sampler.AddCounts(rng, count, counts.data());
    for (size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i], i == 123 ? count : 0) << i;
    }
  }
}

TEST(AddCountsTest, SameSeedSameVector) {
  const auto dist = HeavyHeadPmf(4096);
  AliasSampler sampler(dist);
  for (const int64_t count : {int64_t{600}, int64_t{80000}, int64_t{9000000}}) {
    Rng a(107), b(107);
    std::vector<int64_t> ca(dist.size(), 0), cb(dist.size(), 0);
    sampler.AddCounts(a, count, ca.data());
    sampler.AddCounts(b, count, cb.data());
    EXPECT_EQ(ca, cb) << count;
    EXPECT_EQ(a.Next(), b.Next());  // and both streams end in one place
  }
}

/// Two-sample chi-square of the values two samplers give one element:
/// bins merged left to right until each holds >= 20 of both samples.
double TwoSampleChiSquare(const std::vector<int64_t>& a,
                          const std::vector<int64_t>& b, double* dof) {
  const int64_t hi =
      std::max(*std::max_element(a.begin(), a.end()),
               *std::max_element(b.begin(), b.end()));
  std::vector<int64_t> ha(static_cast<size_t>(hi) + 1, 0), hb(ha);
  for (int64_t v : a) ++ha[static_cast<size_t>(v)];
  for (int64_t v : b) ++hb[static_cast<size_t>(v)];
  double chi2 = 0.0;
  *dof = -1.0;
  int64_t bin_a = 0, bin_b = 0;
  for (size_t v = 0; v < ha.size(); ++v) {
    bin_a += ha[v];
    bin_b += hb[v];
    if (bin_a + bin_b < 20 && v + 1 < ha.size()) continue;
    const double d = static_cast<double>(bin_a - bin_b);
    chi2 += d * d / static_cast<double>(bin_a + bin_b);
    *dof += 1.0;
    bin_a = bin_b = 0;
  }
  return chi2;
}

TEST(AddCountsTest, MarginalsMatchTheSampleStream) {
  // Per-element marginals of the count-level draw against counts built
  // one alias sample at a time, for heavy, middling and light elements.
  for (const auto& [n, count] : {std::pair<size_t, int64_t>{1024, 200},
                                 std::pair<size_t, int64_t>{64, 1280}}) {
    const auto dist = HeavyHeadPmf(n);
    AliasSampler sampler(dist);
    Rng count_rng(108), stream_rng(109);
    const int reps = 5000;
    const std::vector<size_t> watched = {0, 1, 2, 3, n - 1};
    std::vector<std::vector<int64_t>> by_counts(watched.size()),
        by_stream(watched.size());
    std::vector<int64_t> counts(n);
    for (int r = 0; r < reps; ++r) {
      std::fill(counts.begin(), counts.end(), 0);
      sampler.AddCounts(count_rng, count, counts.data());
      for (size_t w = 0; w < watched.size(); ++w) {
        by_counts[w].push_back(counts[watched[w]]);
      }
      std::fill(counts.begin(), counts.end(), 0);
      for (int64_t s = 0; s < count; ++s) ++counts[sampler.Sample(stream_rng)];
      for (size_t w = 0; w < watched.size(); ++w) {
        by_stream[w].push_back(counts[watched[w]]);
      }
    }
    for (size_t w = 0; w < watched.size(); ++w) {
      double dof = 0.0;
      const double chi2 = TwoSampleChiSquare(by_counts[w], by_stream[w], &dof);
      EXPECT_LT(chi2, ChiSquareQuantile999(std::max(dof, 1.0)))
          << "n " << n << " element " << watched[w] << " dof " << dof;
    }
  }
}

}  // namespace
}  // namespace histest
