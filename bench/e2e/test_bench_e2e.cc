// Checks the two outside-in instruments of bench_e2e: the stage-timed
// replica decides exactly like HistogramTester::TestWithReport, and the
// TimingOracle decorator leaves the sample stream untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "benchutil/workloads.h"
#include "common/rng.h"
#include "core/histogram_tester.h"
#include "e2e_layers.h"
#include "testing/oracle.h"

namespace histest {
namespace bench {
namespace {

TEST(StageTimedTesterTest, MatchesTestWithReportOnGrid) {
  for (uint64_t seed : {1u, 7u, 20230601u, 424242u}) {
    Rng rng(seed);
    auto grid = MakeWorkloadGrid(256, 4, 0.25, rng);
    ASSERT_TRUE(grid.ok());
    for (const WorkloadInstance& inst : grid.value()) {
      SCOPED_TRACE(inst.name + " seed " + std::to_string(seed));
      const uint64_t oracle_seed = rng.Next();
      const uint64_t tester_seed = rng.Next();
      DistributionOracle reference_oracle(inst.dist, oracle_seed);
      HistogramTester reference(4, 0.25, HistogramTesterOptions{},
                                tester_seed);
      auto report = reference.TestWithReport(reference_oracle);
      ASSERT_TRUE(report.ok());

      DistributionOracle replica_oracle(inst.dist, oracle_seed);
      StageTimedTester replica(4, 0.25, HistogramTesterOptions{},
                               tester_seed);
      auto outcome = replica.Test(replica_oracle);
      ASSERT_TRUE(outcome.ok());
      const StageSplit& split = replica.last();
      EXPECT_EQ(split.verdict, report.value().verdict);
      EXPECT_EQ(outcome.value().verdict, report.value().verdict);
      EXPECT_EQ(split.decided_by, report.value().decided_by);
      EXPECT_EQ(split.samples_total, report.value().samples_total);
      EXPECT_EQ(outcome.value().samples_used, report.value().samples_total);
      EXPECT_EQ(split.partition_size, report.value().partition_size);
      EXPECT_EQ(split.removed_intervals, report.value().removed_intervals);

      // The per-stage samples add up to the total, and every stage that
      // ran took time no shorter than the oracle time inside it.
      int64_t stage_samples = 0;
      for (int s = 0; s < kStages; ++s) {
        stage_samples += split.samples[s];
        EXPECT_GE(split.nanos[s], split.oracle_nanos[s]);
      }
      EXPECT_EQ(stage_samples, split.samples_total);
      EXPECT_TRUE(split.ran[kApproxPart]);
      EXPECT_TRUE(split.ran[kSieve]);
    }
  }
}

TEST(TimingOracleTest, CountsMatchBareOracle) {
  Rng rng(99);
  auto grid = MakeWorkloadGrid(256, 4, 0.25, rng);
  ASSERT_TRUE(grid.ok());
  const Distribution& dist = grid.value()[2].dist;
  DistributionOracle bare(dist, 12345);
  DistributionOracle wrapped_inner(dist, 12345);
  TimingOracle timed(wrapped_inner);
  EXPECT_EQ(timed.DomainSize(), bare.DomainSize());
  // Dense (m >> n) and sparse (m << n) shapes, interleaved with the
  // other two sampling entry points.
  for (int64_t m : {int64_t{5000}, int64_t{17}, int64_t{100000}}) {
    const CountVector a = bare.DrawCounts(m);
    const CountVector b = timed.DrawCounts(m);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.total(), b.total());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
    EXPECT_EQ(bare.Draw(), timed.Draw());
    std::vector<size_t> x(33);
    std::vector<size_t> y(33);
    bare.DrawBatch(x.data(), 33);
    timed.DrawBatch(y.data(), 33);
    EXPECT_EQ(x, y);
  }
  EXPECT_EQ(timed.SamplesDrawn(), bare.SamplesDrawn());
  EXPECT_EQ(timed.calls(), 9);
  EXPECT_GT(timed.nanos(), 0);
}

}  // namespace
}  // namespace bench
}  // namespace histest
