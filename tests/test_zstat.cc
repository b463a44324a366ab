#include "stats/zstat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/kernels.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "dist/distance.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/obs.h"

namespace histest {
namespace {

/// The serial dense sweep that the blocked dense sweep must match
/// bit-for-bit: one FusedCountsZKernel call per active interval, the
/// results Kahan-summed in interval order.
ZStatResult SerialDenseZ(const std::vector<int64_t>& counts, double m,
                         const std::vector<double>& dstar,
                         const Partition& partition, double eps,
                         const std::vector<bool>* active) {
  const double cut =
      ZStatOptions{}.aeps_factor * eps / static_cast<double>(dstar.size());
  ZStatResult result;
  result.z.assign(partition.NumIntervals(), 0.0);
  KahanSum total;
  for (size_t j = 0; j < partition.NumIntervals(); ++j) {
    if (active != nullptr && !(*active)[j]) continue;
    const Interval& iv = partition.interval(j);
    result.z[j] = FusedCountsZKernel(dstar.data() + iv.begin,
                                     counts.data() + iv.begin, iv.size(), m,
                                     cut);
    total.Add(result.z[j]);
  }
  result.total = total.Total();
  return result;
}

TEST(ZStatTest, ValidatesInput) {
  const CountVector counts(4);
  const Partition p = Partition::Trivial(4);
  const std::vector<double> dstar(4, 0.25);
  EXPECT_FALSE(ComputeZStatistics(counts, 0.0, dstar, p, 0.5).ok());
  EXPECT_FALSE(ComputeZStatistics(counts, 10.0, dstar, p, 0.0).ok());
  EXPECT_FALSE(
      ComputeZStatistics(CountVector(5), 10.0, dstar, p, 0.5).ok());
  const std::vector<bool> bad_active(2, true);
  EXPECT_FALSE(
      ComputeZStatistics(counts, 10.0, dstar, p, 0.5, {}, &bad_active).ok());
}

TEST(ZStatTest, ZeroCountsGiveZeroStatisticMinusNothing) {
  // With all counts zero, each term is (0 - m d)^2 / (m d) = m d, so
  // Z = m * sum(d) over A_eps.
  const CountVector counts(4);
  const Partition p = Partition::Trivial(4);
  const std::vector<double> dstar(4, 0.25);
  auto z = ComputeZStatistics(counts, 100.0, dstar, p, 0.5);
  ASSERT_TRUE(z.ok());
  EXPECT_NEAR(z.value().total, 100.0, 1e-9);
}

TEST(ZStatTest, ExactCountsGiveNegativeOfCounts) {
  // N_i = m d_i exactly: term = (0 - N_i)/(m d_i) = -1 per element.
  const CountVector counts = CountVector::FromCounts({25, 25, 25, 25});
  const Partition p = Partition::Trivial(4);
  const std::vector<double> dstar(4, 0.25);
  auto z = ComputeZStatistics(counts, 100.0, dstar, p, 0.5);
  ASSERT_TRUE(z.ok());
  EXPECT_NEAR(z.value().total, -4.0, 1e-9);
}

TEST(ZStatTest, AepsFilterSkipsLightElements) {
  // dstar = (heavy, tiny): with eps = 0.5 and factor 1/50, the cutoff is
  // 0.5/(50*2) = 0.005; the second element (0.001) is skipped.
  const CountVector counts = CountVector::FromCounts({0, 1000});
  const Partition p = Partition::Trivial(2);
  const std::vector<double> dstar = {0.999, 0.001};
  auto z = ComputeZStatistics(counts, 10.0, dstar, p, 0.5);
  ASSERT_TRUE(z.ok());
  // Only the first element contributes: (0 - 9.99)^2 / 9.99 = 9.99.
  EXPECT_NEAR(z.value().total, 9.99, 1e-9);
}

TEST(ZStatTest, ActiveIntervalMaskZeroesInactive) {
  const CountVector counts = CountVector::FromCounts({50, 0, 0, 50});
  const Partition p = Partition::EquiWidth(4, 2);
  const std::vector<double> dstar(4, 0.25);
  const std::vector<bool> active = {true, false};
  auto z = ComputeZStatistics(counts, 100.0, dstar, p, 0.5, {}, &active);
  ASSERT_TRUE(z.ok());
  EXPECT_DOUBLE_EQ(z.value().z[1], 0.0);
  EXPECT_DOUBLE_EQ(z.value().total, z.value().z[0]);
}

TEST(ZStatTest, UnbiasedUnderTheNull) {
  // Sampling from dstar itself: E[Z_j] = 0. Average over many Poissonized
  // draws and check each interval's mean is near zero.
  Rng rng(5);
  const auto dist = MakeZipf(32, 0.5).value();
  const Partition p = Partition::EquiWidth(32, 4);
  const double m = 500.0;
  std::vector<double> avg(4, 0.0);
  const int reps = 3000;
  for (int r = 0; r < reps; ++r) {
    const CountVector counts =
        CountVector::FromCounts(PoissonizedCounts(dist, m, rng));
    auto z = ComputeZStatistics(counts, m, dist.pmf(), p, 0.3);
    ASSERT_TRUE(z.ok());
    for (size_t j = 0; j < 4; ++j) avg[j] += z.value().z[j];
  }
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(avg[j] / reps, 0.0, 0.3) << "interval " << j;
  }
}

TEST(ZStatTest, MeanMatchesExpectedZUnderAlternative) {
  // Sampling from d != dstar: E[Z_j] = m * chi^2_j (on A_eps).
  Rng rng(7);
  const auto dstar = Distribution::UniformOver(16);
  const auto d = MakeZipf(16, 0.7).value();
  const Partition p = Partition::EquiWidth(16, 2);
  const double m = 400.0;
  const double eps = 0.3;
  std::vector<double> avg(2, 0.0);
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    const CountVector counts =
        CountVector::FromCounts(PoissonizedCounts(d, m, rng));
    auto z = ComputeZStatistics(counts, m, dstar.pmf(), p, eps);
    ASSERT_TRUE(z.ok());
    for (size_t j = 0; j < 2; ++j) avg[j] += z.value().z[j];
  }
  for (size_t j = 0; j < 2; ++j) {
    const double expected =
        ExpectedZ(d.pmf(), dstar.pmf(), p.interval(j), m, eps);
    EXPECT_NEAR(avg[j] / reps, expected, 0.1 * expected + 0.5)
        << "interval " << j;
  }
}

TEST(ZStatTest, DenseSweepMatchesSerialReference) {
  // The dense sweep runs its kernel blocks as jobs: inline below 2^16
  // elements, on the shared pool from there on. z, the total and the
  // kernel call count must be the serial sweep's exactly: for one interval
  // over the whole domain (split into many jobs), for many ragged
  // intervals, and under active masks.
  Rng rng(31);
  for (const size_t n :
       {(size_t{1} << 14) + 3, size_t{1} << 16, size_t{1} << 18}) {
    std::vector<double> weights(n);
    for (size_t i = 0; i < n; ++i) {
      // Every fifth element is far below the A_eps cut.
      weights[i] = i % 5 == 0 ? 1e-12 : 1.0 + rng.UniformDouble();
    }
    const Distribution dstar = Distribution::FromWeights(weights).value();
    const double m = 20.0 * static_cast<double>(n);
    // Counts from a perturbed pmf, so most terms and every z_j are nonzero.
    for (size_t i = 0; i < n; ++i) weights[i] *= 0.5 + rng.UniformDouble();
    const std::vector<int64_t> counts = PoissonizedCounts(
        Distribution::FromWeights(weights).value(), m, rng);
    const CountVector cv = CountVector::FromCounts(counts);
    std::vector<size_t> ends;
    for (size_t end = 0; end < n;) {
      end = std::min(n, end + 1 + rng.UniformInt(rng.UniformInt(4) == 0
                                                     ? 40000
                                                     : 700));
      ends.push_back(end);
    }
    const std::vector<Partition> partitions = {
        Partition::Trivial(n), Partition::FromEndpoints(n, ends).value(),
        Partition::EquiWidth(n, 37)};
    for (const Partition& p : partitions) {
      std::vector<bool> half(p.NumIntervals());
      for (size_t j = 0; j < half.size(); ++j) half[j] = rng.UniformInt(2) == 1;
      const std::vector<bool> none(p.NumIntervals(), false);
      const std::vector<const std::vector<bool>*> masks = {nullptr, &half,
                                                           &none};
      for (const std::vector<bool>* active : masks) {
        const ZStatResult want =
            SerialDenseZ(counts, m, dstar.pmf(), p, 0.25, active);
        obs::MetricsRegistry::Global().ResetForTest();
        obs::SetEnabled(true);
        auto got = ComputeZStatistics(cv, m, dstar.pmf(), p, 0.25, {}, active);
        const int64_t calls =
            obs::MetricsRegistry::Global()
                .GetCounter(obs::names::kKernelFusedCountsZCalls)
                .Value();
        obs::SetEnabled(false);
        obs::MetricsRegistry::Global().ResetForTest();
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value().z.size(), want.z.size());
        for (size_t j = 0; j < want.z.size(); ++j) {
          ASSERT_EQ(std::bit_cast<uint64_t>(got.value().z[j]),
                    std::bit_cast<uint64_t>(want.z[j]))
              << n << " interval " << j;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(got.value().total),
                  std::bit_cast<uint64_t>(want.total))
            << n;
        size_t active_count = 0;
        for (size_t j = 0; j < p.NumIntervals(); ++j) {
          active_count += active == nullptr || (*active)[j] ? 1 : 0;
        }
        EXPECT_EQ(calls, static_cast<int64_t>(active_count)) << n;
      }
    }
  }
}

TEST(ExpectedZTest, MatchesChiSquareTimesM) {
  const std::vector<double> d = {0.5, 0.5};
  const std::vector<double> dstar = {0.25, 0.75};
  const double expected = 100.0 * ChiSquareDistance(d, dstar);
  EXPECT_NEAR(ExpectedZ(d, dstar, Interval{0, 2}, 100.0, 1.0), expected,
              1e-9);
}

}  // namespace
}  // namespace histest
