#include "dist/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
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

TEST(AliasSamplerTest, RepresentationFollowsTheDistinctValues) {
  // Stored by level up to kMaxLevels distinct positive values, whatever n
  // is; mass-0 elements are no level.
  EXPECT_EQ(AliasSampler(Distribution::UniformOver(1 << 16)).levels(), 1u);
  EXPECT_EQ(AliasSampler(Distribution::PointMass(1000, 3)).levels(), 1u);
  EXPECT_EQ(AliasSampler(MakeZipf(255, 1.0).value()).levels(), 255u);
  std::vector<double> weights(600, 0.0);
  for (size_t i = 0; i < 255; ++i) weights[2 * i] = 1.0 + i;
  EXPECT_EQ(AliasSampler(weights).levels(), 255u);
  weights[599] = 1000.0;  // the 256th distinct value
  EXPECT_EQ(AliasSampler(weights).levels(), 0u);
  EXPECT_EQ(AliasSampler(MakeZipf(1024, 1.0).value()).levels(), 0u);
}

TEST(AliasSamplerTest, SampleBatchStreamMatchesRepeatedSample) {
  // Four tables: random weights, whose prob values spread over (0, 1] (the
  // per-element table); a k-histogram, whose few values are the tester's
  // common case; an interleaved three-valued pmf with mass-0 elements; and
  // two singleton levels. The last three are stored by level. The lengths
  // cross SampleBatch's 1024-sample chunk boundary.
  Rng weights_rng(4106);
  std::vector<double> weights(777);
  for (double& w : weights) w = weights_rng.UniformDouble();
  const AliasSampler random_table(weights);
  const AliasSampler staircase(
      MakeStaircase(777, 7).value().ToDistribution().value());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = i % 5 == 0 ? 0.0 : 1.0 + static_cast<double>(i % 3);
  }
  const AliasSampler interleaved(weights);
  const AliasSampler singletons(std::vector<double>{1.0, 3.0});
  ASSERT_EQ(random_table.levels(), 0u);
  ASSERT_EQ(staircase.levels(), 7u);
  ASSERT_EQ(interleaved.levels(), 3u);
  ASSERT_EQ(singletons.levels(), 2u);
  const int64_t kCounts[] = {0, 1, 3, 4, 5, 7, 8, 9, 31, 1023, 1024, 1025,
                             2049};
  for (const AliasSampler* sampler :
       {&random_table, &staircase, &interleaved, &singletons}) {
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

/// A heavy-head domain just over two column blocks: the last block is
/// ragged, and light columns in every block alias the heavy head.
constexpr size_t kMultiBlockN = 2 * AliasSampler::kColumnBlock + 3;

TEST(MultinomialCountsTest, TotalsAreExact) {
  // One block, then several, where the blocks' parked alias counts must
  // all land.
  for (const Distribution& dist : {Distribution::UniformOver(8),
                                   MakeZipf(kMultiBlockN, 1.0).value()}) {
    AliasSampler sampler(dist);
    Rng rng(21);
    for (const int64_t count : {int64_t{1234}, int64_t{5000000}}) {
      std::vector<int64_t> counts(dist.size(), 0);
      sampler.AddCounts(rng, count, counts.data());
      int64_t total = 0;
      for (int64_t c : counts) total += c;
      EXPECT_EQ(total, count) << "n " << dist.size();
    }
  }
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
    int64_t total = 0, negative = 0;
    for (size_t i = 0; i < n; ++i) {
      negative += counts[i] < 0 ? 1 : 0;
      total += counts[i];
      sum[i] += counts[i];
    }
    EXPECT_EQ(negative, 0) << "rep " << r;
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
                              size_t tracked, uint64_t seed,
                              int reps = 20000) {
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
/// unevenly over seven more values: ten levels, so the sampler is stored
/// by level, with levels of every size from one element to n/7.
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

/// A many-valued pmf (n >= 256 distinct values, so the per-element alias
/// table) with a heavy head: Zipf(1) puts 1/H_n on element 0, and the alias
/// table has columns with every kind of split.
Distribution ManyValuedPmf(size_t n) {
  const Distribution zipf = MakeZipf(n, 1.0).value();
  EXPECT_EQ(AliasSampler(zipf).levels(), 0u);
  return zipf;
}

TEST(AddCountsTest, MultinomialJustAboveSparseCutover) {
  // count = n/8 + 1: the smallest dense shape, lambda ~ 0.09 per column.
  ExpectMultinomialMoments(HeavyHeadPmf(1024), 129, 4, 101);
  ExpectMultinomialMoments(ManyValuedPmf(1024), 129, 4, 121);
}

TEST(AddCountsTest, MultinomialBernoulliSplit) {
  // count / n = 20: columns mostly split by summed coin flips; by level,
  // the tail levels draw from tables.
  ExpectMultinomialMoments(HeavyHeadPmf(256), 20 * 256, 4, 102);
  ExpectMultinomialMoments(ManyValuedPmf(256), 20 * 256, 4, 122);
  // count / n = 4 over three blocks, the last one ragged. Per element, the
  // tracked heavy head collects most of its count through the blocks'
  // parked alias counts; by level, the blocks are the multi-block level
  // pass. Fewer reps keep the case short; a Poissonized vector's
  // heavy-element variance is still over 10 standard errors off.
  ExpectMultinomialMoments(HeavyHeadPmf(kMultiBlockN),
                           4 * static_cast<int64_t>(kMultiBlockN), 4, 112,
                           2000);
  ExpectMultinomialMoments(ManyValuedPmf(kMultiBlockN),
                           4 * static_cast<int64_t>(kMultiBlockN), 4, 132,
                           2000);
}

TEST(AddCountsTest, MultinomialBinomialSplitFromTable) {
  // count / n = 200: table-drawn columns split by Binomial (n = 512 holds
  // the ~330-entry table); by level, the heavy singletons are past the
  // table limit and the tail levels draw from tables.
  ExpectMultinomialMoments(HeavyHeadPmf(64), 200 * 64, 4, 103);
  ExpectMultinomialMoments(ManyValuedPmf(512), 200 * 512, 4, 123);
}

TEST(AddCountsTest, MultinomialBinomialSplitLargeColumns) {
  // count / n = 1250: columns past the table limit (Rng::Poisson); by
  // level, every level is past it.
  ExpectMultinomialMoments(HeavyHeadPmf(16), 1250 * 16, 4, 104);
  ExpectMultinomialMoments(ManyValuedPmf(256), 1250 * 256, 4, 124);
}

TEST(AddCountsTest, MultinomialUniformPmf) {
  // One level holding every element: one Poisson sampler serves the whole
  // pass (a table of ~30 entries for 256 elements).
  const auto dist = Distribution::UniformOver(256);
  ASSERT_EQ(AliasSampler(dist).levels(), 1u);
  ExpectMultinomialMoments(dist, 3000, 3, 105);
}

TEST(AddCountsTest, MultinomialLevelPastTheTableLimit) {
  // A 1000-element level whose per-element mean (~1960) is past the table
  // limit, beside a light level that draws from a table and mass-0
  // elements that draw nothing.
  std::vector<double> w(3000, 0.0);
  for (size_t i = 0; i < 1000; ++i) w[3 * i] = 1.0;
  for (size_t i = 0; i < 1000; ++i) w[3 * i + 1] = 0.001;
  const auto dist = Distribution::FromWeights(w).value();
  ASSERT_EQ(AliasSampler(dist).levels(), 2u);
  ExpectMultinomialMoments(dist, 2000000, 4, 125, 2000);
}

TEST(AddCountsTest, MultinomialAllFromTheLevelTopUp) {
  // count <= 9 puts the pass mean count - 3 sqrt(count) at or below 0, so
  // the whole vector is the by-level top-up: a binomial per level, then a
  // uniform member per draw. Two singleton levels lead, beside mass-0
  // elements and a level of four.
  std::vector<double> w = {0.4, 0.0, 0.25, 0.0, 0.0};
  for (int i = 0; i < 4; ++i) w.push_back(0.0875);
  w.push_back(0.0);
  const auto dist = Distribution::Create(w).value();
  ASSERT_EQ(AliasSampler(dist).levels(), 3u);
  for (const int64_t count : {int64_t{1}, int64_t{9}}) {
    ExpectMultinomialMoments(dist, count, 6, 126 + count);
  }
}

/// A point mass at `at`, and, when `dusted`, every other element holds a
/// distinct mass near 1e-300: the per-element alias table, where every other
/// column aliases the mass and no draw in any test lands elsewhere.
Distribution PointMassPmf(size_t n, size_t at, bool dusted) {
  if (!dusted) return Distribution::PointMass(n, at);
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = i == at ? 1.0 : 1e-300 * static_cast<double>(i + 1);
  }
  return Distribution::FromWeights(w).value();
}

TEST(AddCountsTest, PointMassGetsEveryCount) {
  // A single level, and a per-element table where every other column
  // aliases the mass. Above one block the mass sits in the ragged last
  // block, so with the per-element table the other blocks reach it only
  // through the scatter of their parked counts.
  for (const bool dusted : {false, true}) {
    for (const auto& [n, at] :
         {std::pair<size_t, size_t>{500, 123},
          std::pair<size_t, size_t>{kMultiBlockN, kMultiBlockN - 2}}) {
      AliasSampler sampler(PointMassPmf(n, at, dusted));
      ASSERT_EQ(sampler.levels(), dusted ? 0u : 1u);
      Rng rng(106);
      for (const int64_t count :
           {int64_t{63}, int64_t{5000}, int64_t{2000000}}) {
        std::vector<int64_t> counts(n, 0);
        sampler.AddCounts(rng, count, counts.data());
        for (size_t i = 0; i < counts.size(); ++i) {
          ASSERT_EQ(counts[i], i == at ? count : 0)
              << "n " << n << " i " << i << " dusted " << dusted;
        }
      }
    }
  }
}

TEST(AddCountsTest, SameSeedSameVector) {
  // One block, and several with a ragged last one.
  for (const size_t n : {size_t{4096}, 3 * AliasSampler::kColumnBlock + 5}) {
    const auto dist = HeavyHeadPmf(n);
    AliasSampler sampler(dist);
    for (const int64_t count :
         {int64_t{600}, int64_t{80000}, int64_t{9000000}}) {
      Rng a(107), b(107);
      std::vector<int64_t> ca(dist.size(), 0), cb(dist.size(), 0);
      sampler.AddCounts(a, count, ca.data());
      sampler.AddCounts(b, count, cb.data());
      EXPECT_EQ(ca, cb) << n << " " << count;
      EXPECT_EQ(a.Next(), b.Next());  // and both streams end in one place
    }
  }
}

TEST(AddCountsTest, BlocksRunInlineGiveTheSameVector) {
  // A multi-block draw must not depend on which executors run its blocks.
  // The top-level draws spread their eight blocks over the pool; the inner
  // draw runs inside a ParallelFor job while every other job holds a pool
  // worker, so all of its blocks run inline on one thread. Both the level
  // pass and the per-element column pass.
  constexpr size_t kN = 8 * AliasSampler::kColumnBlock + 3;
  for (const Distribution& dist : {HeavyHeadPmf(kN), ManyValuedPmf(kN)}) {
    AliasSampler sampler(dist);
    const int64_t count = 20 * static_cast<int64_t>(dist.size());
    std::vector<std::vector<int64_t>> tops;
    uint64_t top_next = 0;
    for (int round = 0; round < 3; ++round) {
      Rng top_rng(113);
      tops.emplace_back(dist.size(), 0);
      sampler.AddCounts(top_rng, count, tops.back().data());
      top_next = top_rng.Next();
    }
    std::vector<int64_t> inner(dist.size(), 0);
    const int executors = ThreadPool::Shared().size() + 1;
    std::atomic<int> started{0};
    std::atomic<bool> drawn{false};
    uint64_t inner_next = 0;
    ParallelFor(executors, executors, [&](int64_t) {
      if (started.fetch_add(1) == 0) {
        while (started.load() < executors) std::this_thread::yield();
        Rng inner_rng(113);
        sampler.AddCounts(inner_rng, count, inner.data());
        inner_next = inner_rng.Next();
        drawn.store(true);
      } else {
        while (!drawn.load()) std::this_thread::yield();
      }
    });
    for (const auto& top : tops) EXPECT_EQ(top, inner);
    EXPECT_EQ(top_next, inner_next);  // both streams end in one place
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
  // one sample at a time, for heavy, middling and light elements, stored
  // by level and per element.
  for (const auto& [dist, count] :
       {std::pair<Distribution, int64_t>{HeavyHeadPmf(1024), 200},
        std::pair<Distribution, int64_t>{HeavyHeadPmf(64), 1280},
        std::pair<Distribution, int64_t>{ManyValuedPmf(1024), 200},
        std::pair<Distribution, int64_t>{ManyValuedPmf(256), 5120}}) {
    const size_t n = dist.size();
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
