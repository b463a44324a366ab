#ifndef HISTEST_BENCH_E2E_E2E_LAYERS_H_
#define HISTEST_BENCH_E2E_E2E_LAYERS_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "core/histogram_tester.h"
#include "obs/clock.h"
#include "testing/tester.h"

namespace histest {
namespace bench {

/// Decorator that times every sampling call of the wrapped oracle from the
/// outside. The sample stream is the wrapped oracle's, untouched.
class TimingOracle : public SampleOracle {
 public:
  explicit TimingOracle(SampleOracle& inner) : inner_(inner) {}

  size_t DomainSize() const override { return inner_.DomainSize(); }
  size_t Draw() override;
  void DrawBatch(size_t* out, int64_t count) override;
  CountVector DrawCounts(int64_t count) override;
  int64_t SamplesDrawn() const override { return inner_.SamplesDrawn(); }

  /// Sampling calls made and nanoseconds spent inside them so far.
  int64_t calls() const { return calls_; }
  int64_t nanos() const { return nanos_; }

 private:
  SampleOracle& inner_;
  int64_t calls_ = 0;
  int64_t nanos_ = 0;
};

/// The timed stages of one Algorithm 1 run, in pipeline order. kExpand is
/// the hypothesis's dense expansion between the learner and the sieve.
enum Stage { kApproxPart, kLearner, kExpand, kSieve, kCheck, kFinal, kStages };

/// One test's outside-in split: wall time per stage, oracle time and calls
/// inside it, and the outcome fields the cross-check compares.
struct StageSplit {
  std::array<int64_t, kStages> nanos{};
  std::array<int64_t, kStages> oracle_nanos{};
  std::array<int64_t, kStages> oracle_calls{};
  std::array<int64_t, kStages> samples{};
  std::array<bool, kStages> ran{};
  int64_t total_nanos = 0;
  int sieve_rounds = 0;

  Verdict verdict = Verdict::kReject;
  std::string decided_by;
  int64_t samples_total = 0;
  size_t partition_size = 0;
  size_t removed_intervals = 0;
};

/// Replica of HistogramTester::TestWithReport built from the public stage
/// functions, timing each stage call. Same seed, same options and same
/// oracle stream give the same verdict, samples, K and removed count.
class StageTimedTester : public DistributionTester {
 public:
  StageTimedTester(size_t k, double eps, HistogramTesterOptions options,
                   uint64_t seed);

  std::string Name() const override { return "histest-algorithm1-staged"; }
  Result<TestOutcome> Test(SampleOracle& oracle) override;

  /// The split of the most recent Test() call.
  const StageSplit& last() const { return last_; }

 private:
  size_t k_;
  double eps_;
  HistogramTesterOptions options_;
  Rng rng_;
  const obs::Clock& clock_;
  StageSplit last_;
};

}  // namespace bench
}  // namespace histest

#endif  // HISTEST_BENCH_E2E_E2E_LAYERS_H_
