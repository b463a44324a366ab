/// Differential tests for the producer-consumer fused kernels.
///
/// The load-bearing claim is materialize-then-reduce equivalence: the fused
/// kernel must return bit-for-bit what the unfused kernel returns on the
/// expanded/converted input, because the fused term generators feed the
/// identical blocked summation order.

#include "common/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"

namespace histest {
namespace {

/// A run-length-compressed vector: parallel (value, exclusive end) arrays.
struct Runs {
  std::vector<double> values;
  std::vector<size_t> ends;

  size_t domain_size() const { return ends.empty() ? 0 : ends.back(); }

  std::vector<double> Expand() const {
    std::vector<double> dense(domain_size());
    size_t pos = 0;
    for (size_t r = 0; r < values.size(); ++r) {
      for (; pos < ends[r]; ++pos) dense[pos] = values[r];
    }
    return dense;
  }
};

/// Random run structure over [0, n): geometric-ish run lengths so width-1
/// runs, multi-lane runs, and block-straddling runs all occur.
Runs RandomRuns(Rng& rng, size_t n) {
  Runs runs;
  size_t pos = 0;
  while (pos < n) {
    size_t len = 1;
    // ~half the runs are width 1; the rest grow geometrically up to ~64.
    while (len < 64 && pos + len < n && rng.UniformDouble() < 0.5) len *= 2;
    len = std::min(len, n - pos);
    pos += len;
    runs.values.push_back(rng.UniformDouble());
    runs.ends.push_back(pos);
  }
  return runs;
}

std::vector<double> RandomVector(Rng& rng, size_t n, double scale) {
  std::vector<double> v(n);
  for (double& x : v) x = scale * rng.UniformDouble();
  return v;
}

std::vector<int64_t> RandomCounts(Rng& rng, size_t n, int64_t scale) {
  std::vector<int64_t> c(n);
  for (int64_t& x : c) {
    x = static_cast<int64_t>(rng.UniformDouble() * static_cast<double>(scale));
  }
  return c;
}

bool NanSafeEq(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  return ExactlyEqual(a, b);
}

/// Block/lane edge sizes around the four-lane body, plus multi-block sizes.
const size_t kEdgeSizes[] = {0,    1,    3,    4,    5,    7,    8,
                             9,    1023, 1024, 1025, 4099, 3 * 1024};

TEST(FusedExpandTest, MatchesMaterializeThenReduceBitForBit) {
  Rng rng(8101);
  for (const size_t n : kEdgeSizes) {
    const Runs runs = RandomRuns(rng, n);
    const std::vector<double> dense = runs.Expand();
    const std::vector<double> b = RandomVector(rng, n, 1.0);
    const double fused_l1 = FusedExpandL1Kernel(
        runs.values.data(), runs.ends.data(), runs.values.size(), b.data(), n);
    const double staged_l1 = L1DistanceKernel(dense.data(), b.data(), n);
    EXPECT_TRUE(NanSafeEq(fused_l1, staged_l1))
        << "l1 n=" << n << " fused=" << fused_l1 << " staged=" << staged_l1;
    const double fused_l2 = FusedExpandL2Kernel(
        runs.values.data(), runs.ends.data(), runs.values.size(), b.data(), n);
    const double staged_l2 = L2DistanceSquaredKernel(dense.data(), b.data(), n);
    EXPECT_TRUE(NanSafeEq(fused_l2, staged_l2)) << "l2 n=" << n;
  }
}

TEST(FusedExpandTest, NullBIsTheZeroVector) {
  Rng rng(8103);
  for (const size_t n : {size_t{5}, size_t{1025}, size_t{4099}}) {
    const Runs runs = RandomRuns(rng, n);
    const std::vector<double> dense = runs.Expand();
    const std::vector<double> zeros(n, 0.0);
    EXPECT_TRUE(NanSafeEq(
        FusedExpandL1Kernel(runs.values.data(), runs.ends.data(),
                            runs.values.size(), nullptr, n),
        L1DistanceKernel(dense.data(), zeros.data(), n)))
        << "null-b l1 n=" << n;
    EXPECT_TRUE(NanSafeEq(
        FusedExpandL2Kernel(runs.values.data(), runs.ends.data(),
                            runs.values.size(), nullptr, n),
        SumSquaresKernel(dense.data(), n)))
        << "null-b l2 n=" << n;
  }
}

TEST(FusedExpandTest, DegenerateRunStructures) {
  Rng rng(8104);
  const size_t n = 2 * 1024 + 51;  // two blocks plus a tail
  const std::vector<double> b = RandomVector(rng, n, 1.0);
  // (a) One run spanning the whole domain.
  Runs one;
  one.values = {0.37};
  one.ends = {n};
  // (b) Every run width 1 (num_runs == n).
  Runs singles;
  singles.values = RandomVector(rng, n, 1.0);
  singles.ends.resize(n);
  for (size_t i = 0; i < n; ++i) singles.ends[i] = i + 1;
  for (const Runs* runs : {&one, &singles}) {
    const std::vector<double> dense = runs->Expand();
    EXPECT_TRUE(NanSafeEq(
        FusedExpandL1Kernel(runs->values.data(), runs->ends.data(),
                            runs->values.size(), b.data(), n),
        L1DistanceKernel(dense.data(), b.data(), n)))
        << "degenerate l1 num_runs=" << runs->values.size();
    EXPECT_TRUE(NanSafeEq(
        FusedExpandL2Kernel(runs->values.data(), runs->ends.data(),
                            runs->values.size(), b.data(), n),
        L2DistanceSquaredKernel(dense.data(), b.data(), n)))
        << "degenerate l2 num_runs=" << runs->values.size();
  }
}

TEST(FusedExpandTest, SpecialValuesInRunsAndB) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double den = std::numeric_limits<double>::denorm_min();
  Rng rng(8105);
  const size_t n = 1030;
  Runs runs = RandomRuns(rng, n);
  std::vector<double> b = RandomVector(rng, n, 1.0);
  // Adversarial values in run bodies (shared by many lanes) and in b (hit
  // both the four-lane body and the sub-lane tail).
  runs.values[0] = nan;
  runs.values[runs.values.size() / 2] = inf;
  runs.values.back() = -den;
  b[200] = inf;
  b[201] = -inf;
  b[n - 1] = nan;
  const std::vector<double> dense = runs.Expand();
  EXPECT_TRUE(NanSafeEq(
      FusedExpandL1Kernel(runs.values.data(), runs.ends.data(),
                          runs.values.size(), b.data(), n),
      L1DistanceKernel(dense.data(), b.data(), n)));
  EXPECT_TRUE(NanSafeEq(
      FusedExpandL2Kernel(runs.values.data(), runs.ends.data(),
                          runs.values.size(), b.data(), n),
      L2DistanceSquaredKernel(dense.data(), b.data(), n)));
}

TEST(FusedCountsZTest, MatchesStagedConversionBitForBit) {
  Rng rng(8106);
  const double m = 1e4;
  for (const size_t n : kEdgeSizes) {
    const std::vector<double> dstar = RandomVector(rng, n, 1e-3);
    // Large counts exercise the int64 -> double conversion well beyond the
    // float32 range (still exact below 2^53).
    const std::vector<int64_t> counts = RandomCounts(rng, n, int64_t{1} << 40);
    std::vector<double> staged(n);
    for (size_t i = 0; i < n; ++i) {
      staged[i] = static_cast<double>(counts[i]);
    }
    const double cut = 0.25 / static_cast<double>(n + 1);
    EXPECT_TRUE(NanSafeEq(
        FusedCountsZKernel(dstar.data(), counts.data(), n, m, cut),
        ZAccumulateKernel(dstar.data(), staged.data(), n, m, cut)))
        << "counts_z n=" << n;
  }
}

TEST(FusedCountsZTest, NanCutSemanticsMatchUnfused) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(8107);
  const size_t n = 517;
  std::vector<double> dstar = RandomVector(rng, n, 1e-3);
  const std::vector<int64_t> counts = RandomCounts(rng, n, 50);
  dstar[123] = nan;  // NaN dstar is not < cut: kept, poisons the sum
  EXPECT_TRUE(std::isnan(
      FusedCountsZKernel(dstar.data(), counts.data(), n, 100.0, 1e-4)));
  dstar[123] = 0.0;  // cut above everything: all dropped incl. 0 divisor
  EXPECT_EQ(FusedCountsZKernel(dstar.data(), counts.data(), n, 100.0, 1.0),
            0.0);
}

TEST(FusedCountsChiSquareTest, MatchesStagedPmfBitForBit) {
  Rng rng(8108);
  for (const size_t n : kEdgeSizes) {
    const std::vector<int64_t> counts = RandomCounts(rng, n, 1000);
    const std::vector<double> q = RandomVector(rng, n, 1.0);
    int64_t total = 0;
    for (int64_t c : counts) total += c;
    const double inv_total =
        total > 0 ? 1.0 / static_cast<double>(total) : 1.0;
    std::vector<double> p(n);
    for (size_t i = 0; i < n; ++i) {
      p[i] = static_cast<double>(counts[i]) * inv_total;
    }
    EXPECT_TRUE(NanSafeEq(
        FusedCountsChiSquareKernel(counts.data(), inv_total, q.data(), n),
        ChiSquareKernel(p.data(), q.data(), n)))
        << "chi n=" << n;
  }
}

TEST(FusedCountsChiSquareTest, ZeroDenominatorConvention) {
  Rng rng(8109);
  const size_t n = 1027;
  std::vector<int64_t> counts = RandomCounts(rng, n, 100);
  std::vector<double> q = RandomVector(rng, n, 1.0);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) {
    counts[0] = 1;
    total = 1;
  }
  const double inv_total = 1.0 / static_cast<double>(total);
  const double inf = std::numeric_limits<double>::infinity();
  // q == 0 where the empirical pmf is 0 too: no contribution.
  counts[9] = 0;
  q[9] = 0.0;
  counts[n - 1] = 0;
  q[n - 1] = -0.0;  // negative zero is <= 0 too
  EXPECT_TRUE(std::isfinite(
      FusedCountsChiSquareKernel(counts.data(), inv_total, q.data(), n)));
  // q <= 0 with empirical mass (lane body, then tail): +inf, never NaN.
  counts[9] = 5;
  EXPECT_EQ(FusedCountsChiSquareKernel(counts.data(), inv_total, q.data(), n),
            inf);
  counts[9] = 0;
  counts[n - 1] = 5;
  EXPECT_EQ(FusedCountsChiSquareKernel(counts.data(), inv_total, q.data(), n),
            inf);
}

}  // namespace
}  // namespace histest
