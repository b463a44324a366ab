#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "benchutil/parallel.h"
#include "common/rng.h"
#include "core/histogram_tester.h"
#include "core/kmodal_tester.h"
#include "dist/distribution.h"
#include "dist/generators.h"
#include "testing/oracle.h"

namespace histest {
namespace {

/// The accounting invariant under test: with tracing enabled, the
/// per-stage samples_drawn counters emitted by HistogramTester sum
/// exactly to the oracle's own ground-truth draw count. Every test gets
/// a fresh registry so counters start at zero.
class ObsAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().ResetForTest();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::MetricsRegistry::Global().ResetForTest();
  }

  static int64_t CounterValue(const std::string& name) {
    return obs::MetricsRegistry::Global().GetCounter(name).Value();
  }

  static int64_t StageCounterSum() {
    return CounterValue("histest.stage.approx_part.samples_drawn") +
           CounterValue("histest.stage.learner.samples_drawn") +
           CounterValue("histest.stage.sieve.samples_drawn") +
           CounterValue("histest.stage.final.samples_drawn");
  }
};

TEST_F(ObsAccountingTest, StageCountersSumToOracleDrawsDense) {
  // Small domain: every DrawCounts budget exceeds n/8, so the oracle
  // shapes dense count vectors throughout.
  DistributionOracle oracle(Distribution::UniformOver(64), 101);
  HistogramTester tester(2, 0.3, HistogramTesterOptions{}, 102);
  auto report = tester.TestWithReport(oracle);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(oracle.SamplesDrawn(), 0);
  EXPECT_EQ(StageCounterSum(), oracle.SamplesDrawn());
  EXPECT_EQ(CounterValue("histest.oracle.counts_samples") +
                CounterValue("histest.oracle.batch_samples"),
            oracle.SamplesDrawn());
  EXPECT_GT(CounterValue("histest.oracle.counts_dense"), 0);
  EXPECT_EQ(CounterValue("histest.oracle.counts_sparse"), 0);
  EXPECT_EQ(CounterValue("histest.tester.runs"), 1);
}

TEST_F(ObsAccountingTest, StageCountersSumToOracleDrawsLargeDomain) {
  Rng rng(31);
  const auto dist = MakeRandomKHistogram(1 << 16, 3, rng);
  ASSERT_TRUE(dist.ok());
  DistributionOracle oracle(dist.value().ToDistribution().value(),
                            rng.Next());
  HistogramTester tester(3, 0.3, HistogramTesterOptions{}, rng.Next());
  auto report = tester.TestWithReport(oracle);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(oracle.SamplesDrawn(), 0);
  EXPECT_EQ(StageCounterSum(), oracle.SamplesDrawn());
}

TEST_F(ObsAccountingTest, OracleCountsAccountingInBothStorageModes) {
  // DrawCounts shapes its vector sparse when the budget is under n/8 and
  // dense otherwise; the accounting counters must agree with the mode and
  // with the oracle's ground-truth draw count in both.
  DistributionOracle oracle(Distribution::UniformOver(1 << 14), 5);
  auto sparse_cv = oracle.DrawCounts(100);  // 100 < 16384/8: sparse
  EXPECT_TRUE(sparse_cv.is_sparse());
  auto dense_cv = oracle.DrawCounts(5000);  // 5000 >= 16384/8: dense
  EXPECT_FALSE(dense_cv.is_sparse());
  EXPECT_EQ(CounterValue("histest.oracle.counts_sparse"), 1);
  EXPECT_EQ(CounterValue("histest.oracle.counts_dense"), 1);
  EXPECT_EQ(CounterValue("histest.oracle.counts_samples"), 5100);
  EXPECT_EQ(CounterValue("histest.oracle.counts_samples"),
            oracle.SamplesDrawn());
}

TEST_F(ObsAccountingTest, StageCountersMatchReportStages) {
  // Both testers run the one Algorithm-1 stage runner, so both account.
  using RunFn = std::function<Result<HistogramTestReport>(SampleOracle&)>;
  const std::pair<const char*, RunFn> testers[] = {
      {"histogram",
       [](SampleOracle& oracle) {
         return HistogramTester(2, 0.25, HistogramTesterOptions{}, 8)
             .TestWithReport(oracle);
       }},
      {"kmodal",
       [](SampleOracle& oracle) {
         return KModalTester(1, 0.3, KModalTesterOptions{}, 8)
             .TestWithReport(oracle);
       }},
  };
  for (const auto& [name, run] : testers) {
    obs::MetricsRegistry::Global().ResetForTest();
    DistributionOracle oracle(Distribution::UniformOver(512), 7);
    auto report = run(oracle);
    ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
    EXPECT_EQ(report.value().decided_by, "final") << name;
    for (const auto& s : report.value().stages) {
      if (s.stage == "check") continue;  // offline: no counter, 0 samples
      EXPECT_EQ(CounterValue("histest.stage." + s.stage + ".samples_drawn"),
                s.samples)
          << name << " " << s.stage;
    }
    EXPECT_EQ(StageCounterSum(), report.value().samples_total) << name;
    EXPECT_EQ(StageCounterSum(), oracle.SamplesDrawn()) << name;
    EXPECT_EQ(CounterValue("histest.tester.runs"), 1) << name;
  }
}

TEST_F(ObsAccountingTest, ParallelTrialTotalsIndependentOfThreadCount) {
  const auto dist = Distribution::UniformOver(256);
  const auto factory = [](uint64_t seed) {
    return std::make_unique<HistogramTester>(2, 0.3,
                                             HistogramTesterOptions{}, seed);
  };
  constexpr int kTrials = 6;

  auto run = [&](int threads) {
    obs::MetricsRegistry::Global().ResetForTest();
    auto stats = EstimateAcceptanceParallel(factory, dist, kTrials,
                                            /*seed=*/99, threads);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return StageCounterSum();
  };

  const int64_t serial_total = run(1);
  EXPECT_GT(serial_total, 0);
  EXPECT_EQ(CounterValue("histest.trials.run"), kTrials);
  const int64_t parallel_total = run(4);
  EXPECT_EQ(parallel_total, serial_total);
  EXPECT_EQ(CounterValue("histest.trials.run"), kTrials);
}

TEST_F(ObsAccountingTest, ParallelTrialsEmitOneSpanEach) {
  const auto dist = Distribution::UniformOver(256);
  const auto factory = [](uint64_t seed) {
    return std::make_unique<HistogramTester>(2, 0.3,
                                             HistogramTesterOptions{}, seed);
  };
  constexpr int kTrials = 5;

  obs::FakeClock clock;
  obs::TraceSession session("accounting", &clock);
  {
    obs::ScopedTraceActivation activation(&session);
    auto stats = EstimateAcceptanceParallel(factory, dist, kTrials,
                                            /*seed=*/44, /*threads=*/3);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }

  int trial_spans = 0;
  int verdict_annotations = 0;
  for (const auto& span : session.Spans()) {
    if (span.name != "trial") continue;
    ++trial_spans;
    for (const auto& ann : span.annotations) {
      if (ann.key == "verdict") ++verdict_annotations;
    }
  }
  EXPECT_EQ(trial_spans, kTrials);
  EXPECT_EQ(verdict_annotations, kTrials);
}

}  // namespace
}  // namespace histest
