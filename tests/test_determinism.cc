#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/histogram_tester.h"
#include "core/kmodal_tester.h"
#include "dist/generators.h"
#include "dist/serialize.h"
#include "testing/oracle.h"

namespace histest {
namespace {

/// Cross-run determinism: every randomized component is seeded explicitly,
/// so identical seeds must give identical results — the property that
/// makes experiment tables and test expectations reproducible.

void ExpectSameReport(const HistogramTestReport& a,
                      const HistogramTestReport& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.samples_total, b.samples_total);
  EXPECT_EQ(a.decided_by, b.decided_by);
  EXPECT_EQ(a.partition_size, b.partition_size);
  EXPECT_EQ(a.removed_intervals, b.removed_intervals);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].samples, b.stages[s].samples) << a.stages[s].stage;
    EXPECT_EQ(a.stages[s].info, b.stages[s].info) << a.stages[s].stage;
  }
}

TEST(DeterminismTest, HistogramTesterReportIsSeedDeterministic) {
  Rng gen(5);
  const auto dist = MakeRandomKHistogram(512, 4, gen).value()
                        .ToDistribution()
                        .value();
  auto run = [&]() {
    DistributionOracle oracle(dist, 111);
    HistogramTester tester(4, 0.25, HistogramTesterOptions{}, 222);
    return tester.TestWithReport(oracle).value();
  };
  ExpectSameReport(run(), run());
}

TEST(DeterminismTest, KModalTesterReportIsSeedDeterministic) {
  const auto dist =
      MakeGaussianMixture(512, {0.3, 0.7}, {0.08, 0.08}, {0.5, 0.5}).value();
  auto run = [&]() {
    DistributionOracle oracle(dist, 111);
    KModalTester tester(3, 0.3, KModalTesterOptions{}, 222);
    return tester.TestWithReport(oracle).value();
  };
  const HistogramTestReport a = run();
  EXPECT_GT(a.samples_total, 0);
  ExpectSameReport(a, run());
}

TEST(DeterminismTest, GeneratorsAreRngStateDeterministic) {
  Rng a(42), b(42);
  const auto ha = MakeRandomKHistogram(256, 7, a).value();
  const auto hb = MakeRandomKHistogram(256, 7, b).value();
  ASSERT_EQ(ha.NumPieces(), hb.NumPieces());
  for (size_t p = 0; p < ha.NumPieces(); ++p) {
    EXPECT_EQ(ha.pieces()[p].interval, hb.pieces()[p].interval);
    EXPECT_DOUBLE_EQ(ha.pieces()[p].value, hb.pieces()[p].value);
  }
}

TEST(DeterminismTest, SerializedArtifactsAreStableAcrossRuns) {
  // A golden-format check: the serialized text of a deterministic object
  // must be byte-stable (guards the file-format contract).
  const auto d = Distribution::Create({0.25, 0.5, 0.25}).value();
  EXPECT_EQ(SerializeDistribution(d),
            "histest-dist v1\nn 3\n0.25 0.5 0.25\n");
  const auto pwc = PiecewiseConstant::Flat(4, 0.25);
  EXPECT_EQ(SerializePiecewise(pwc), "histest-pwc v1\nn 4 pieces 1\n4 0.25\n");
}

TEST(DeterminismTest, RngIsPlatformStable) {
  // Golden values for the xoshiro256++/SplitMix64 pipeline: if these ever
  // change, every seeded expectation in the repo silently shifts.
  Rng rng(12345);
  const uint64_t first = rng.Next();
  Rng rng2(12345);
  EXPECT_EQ(rng2.Next(), first);
  // The stream must not degenerate.
  uint64_t x = first;
  for (int i = 0; i < 8; ++i) {
    const uint64_t y = rng.Next();
    EXPECT_NE(y, x);
    x = y;
  }
}

}  // namespace
}  // namespace histest
