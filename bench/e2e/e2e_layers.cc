#include "e2e_layers.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/arena.h"
#include "common/status.h"
#include "core/approx_part.h"
#include "core/hk_check.h"
#include "core/learner.h"
#include "core/sieve.h"
#include "testing/identity_adk.h"

namespace histest {
namespace bench {

size_t TimingOracle::Draw() {
  const int64_t t0 = obs::MonotonicClock::Get()->NowNanos();
  const size_t s = inner_.Draw();
  nanos_ += obs::MonotonicClock::Get()->NowNanos() - t0;
  ++calls_;
  return s;
}

void TimingOracle::DrawBatch(size_t* out, int64_t count) {
  const int64_t t0 = obs::MonotonicClock::Get()->NowNanos();
  inner_.DrawBatch(out, count);
  nanos_ += obs::MonotonicClock::Get()->NowNanos() - t0;
  ++calls_;
}

CountVector TimingOracle::DrawCounts(int64_t count) {
  const int64_t t0 = obs::MonotonicClock::Get()->NowNanos();
  CountVector counts = inner_.DrawCounts(count);
  nanos_ += obs::MonotonicClock::Get()->NowNanos() - t0;
  ++calls_;
  return counts;
}

StageTimedTester::StageTimedTester(size_t k, double eps,
                                   HistogramTesterOptions options,
                                   uint64_t seed)
    : k_(k),
      eps_(eps),
      options_(options),
      rng_(seed),
      clock_(*obs::MonotonicClock::Get()) {}

// Mirrors HistogramTester::TestWithReport step for step (the same options
// scaling, stage calls, Rng use and early exits); keep the two in sync.
Result<TestOutcome> StageTimedTester::Test(SampleOracle& inner) {
  TimingOracle oracle(inner);
  last_ = StageSplit{};
  StageSplit& split = last_;
  const int64_t start = clock_.NowNanos();
  const size_t n = oracle.DomainSize();
  const int64_t drawn_start = oracle.SamplesDrawn();

  const auto timed = [&](Stage stage, auto&& body) {
    const int64_t t0 = clock_.NowNanos();
    const int64_t oracle0 = oracle.nanos();
    const int64_t calls0 = oracle.calls();
    const int64_t drawn0 = oracle.SamplesDrawn();
    auto result = body();
    split.nanos[stage] = clock_.NowNanos() - t0;
    split.oracle_nanos[stage] = oracle.nanos() - oracle0;
    split.oracle_calls[stage] = oracle.calls() - calls0;
    split.samples[stage] = oracle.SamplesDrawn() - drawn0;
    split.ran[stage] = true;
    return result;
  };
  const auto finish = [&](Verdict verdict, const char* decided_by) {
    split.verdict = verdict;
    split.decided_by = decided_by;
    split.samples_total = oracle.SamplesDrawn() - drawn_start;
    split.total_nanos = clock_.NowNanos() - start;
    TestOutcome outcome;
    outcome.verdict = verdict;
    outcome.samples_used = split.samples_total;
    outcome.detail = split.decided_by;
    return outcome;
  };

  if (k_ >= n) return finish(Verdict::kAccept, "trivial");

  HistogramTesterOptions opts = options_;
  opts.approx_part.sample_constant *= opts.sample_scale;
  opts.learner.sample_constant *= opts.sample_scale;
  opts.sieve.sample_constant *= opts.sample_scale;
  opts.final_test.sample_constant *= opts.sample_scale;

  const double kd = static_cast<double>(k_);
  double b = opts.partition_b_constant * kd * std::log2(kd + 1.0) / eps_;
  b = std::max(1.0, std::min(b, static_cast<double>(n)));
  auto partition = timed(kApproxPart, [&] {
    return ApproxPartition(oracle, b, opts.approx_part);
  });
  HISTEST_RETURN_IF_ERROR(partition.status());
  split.partition_size = partition.value().NumIntervals();

  const double eps_learn = opts.learner_eps_fraction * eps_;
  auto dhat = timed(kLearner, [&] {
    return LearnHistogramChiSquare(oracle, partition.value(), eps_learn,
                                   opts.learner);
  });
  HISTEST_RETURN_IF_ERROR(dhat.status());

  ScratchArena& arena = ScratchArena::ThreadLocal();
  const ScratchArena::Scope arena_scope(arena);
  double* dstar_storage = arena.Alloc<double>(n);
  timed(kExpand, [&] {
    dhat.value().ToDenseInto(std::span<double>(dstar_storage, n));
    return 0;
  });
  const std::span<const double> dstar(dstar_storage, n);

  auto sieve = timed(kSieve, [&] {
    return SieveIntervals(oracle, dstar, partition.value(), k_, eps_,
                          opts.sieve, rng_);
  });
  HISTEST_RETURN_IF_ERROR(sieve.status());
  split.removed_intervals =
      sieve.value().removed_heavy + sieve.value().removed_iterative;
  split.sieve_rounds = sieve.value().rounds_used;
  if (sieve.value().rejected) return finish(Verdict::kReject, "sieve");

  auto check = timed(kCheck, [&] {
    return CheckCloseToHkOnSubdomain(dhat.value(), partition.value(),
                                     sieve.value().active, k_, eps_,
                                     opts.check);
  });
  HISTEST_RETURN_IF_ERROR(check.status());
  if (!check.value().close) return finish(Verdict::kReject, "check");

  const double eps_final = opts.final_eps_fraction * eps_;
  const double m_final = opts.final_test.sample_constant *
                         std::sqrt(static_cast<double>(n)) /
                         (eps_final * eps_final);
  auto final_outcome = timed(kFinal, [&] {
    return AdkRestrictedIdentityTest(oracle, dstar, partition.value(),
                                     sieve.value().active, eps_final, m_final,
                                     opts.final_test, rng_);
  });
  HISTEST_RETURN_IF_ERROR(final_outcome.status());
  return finish(final_outcome.value().verdict, "final");
}

}  // namespace bench
}  // namespace histest
