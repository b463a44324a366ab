#include "core/histogram_tester.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>

#include "common/arena.h"
#include "common/check.h"
#include "common/math_util.h"
#include "obs/obs.h"
#include "obs/names.h"

namespace histest {

HistogramTesterOptions HistogramTesterOptions::PaperFaithful() {
  HistogramTesterOptions o;
  o.partition_b_constant = 20.0;
  o.learner_eps_fraction = 1.0 / 60.0;
  o.learner.sample_constant = 10.0;  // Markov with 9/10 success
  o.sieve.sample_constant = 20000.0;
  o.sieve.final_eps_fraction = 13.0 / 30.0;
  o.sieve.final_accept_threshold = 1.0 / 500.0;
  o.sieve.noise_sigmas = 0.0;  // the paper's m makes the null noise negligible
  o.check.threshold_fraction = 1.0 / 60.0;
  o.final_eps_fraction = 13.0 / 30.0;
  o.final_test.sample_constant = 20000.0;
  o.final_test.accept_threshold = 1.0 / 500.0;
  o.final_test.noise_sigmas = 0.0;
  return o;
}

HistogramTester::HistogramTester(size_t k, double eps,
                                 HistogramTesterOptions options, uint64_t seed)
    : k_(k), eps_(eps), options_(options), rng_(seed) {
  HISTEST_CHECK_GE(k_, 1u);
  HISTEST_CHECK_GT(eps_, 0.0);
  HISTEST_CHECK_LE(eps_, 1.0);
  HISTEST_CHECK_GT(options_.sample_scale, 0.0);
}

Result<TestOutcome> HistogramTester::Test(SampleOracle& oracle) {
  auto report = TestWithReport(oracle);
  HISTEST_RETURN_IF_ERROR(report.status());
  TestOutcome outcome;
  outcome.verdict = report.value().verdict;
  outcome.samples_used = report.value().samples_total;
  std::ostringstream detail;
  detail << "decided_by=" << report.value().decided_by
         << " K=" << report.value().partition_size
         << " removed=" << report.value().removed_intervals;
  outcome.detail = detail.str();
  return outcome;
}

Result<HistogramTestReport> HistogramTester::TestWithReport(
    SampleOracle& oracle) {
  const size_t n = oracle.DomainSize();
  HistogramTestReport report;
  const int64_t drawn_start = oracle.SamplesDrawn();

  // Root span for the whole run; stage spans nest under it. Inert (and the
  // helpers below are one load + branch each) unless tracing is enabled.
  obs::TraceSpan test_span(obs::names::kSpanHistogramTest);
  test_span.AnnotateInt("n", static_cast<int64_t>(n));
  test_span.AnnotateInt("k", static_cast<int64_t>(k_));
  test_span.AnnotateDouble("eps", eps_);
  const auto finish = [&](const HistogramTestReport& r) {
    test_span.AnnotateString("verdict", VerdictToString(r.verdict));
    test_span.AnnotateString("decided_by", r.decided_by);
    test_span.AnnotateInt("samples_total", r.samples_total);
    obs::AddCount(obs::names::kTesterRuns, 1);
  };

  // Trivial regime: every distribution over [0, n) is an n-histogram.
  if (k_ >= n) {
    report.verdict = Verdict::kAccept;
    report.decided_by = "trivial";
    report.stages.push_back(StageReport{"trivial", 0, "k >= n"});
    finish(report);
    return report;
  }

  // Apply the global sample scale to every stage's budget.
  HistogramTesterOptions opts = options_;
  opts.approx_part.sample_constant *= opts.sample_scale;
  opts.learner.sample_constant *= opts.sample_scale;
  opts.sieve.sample_constant *= opts.sample_scale;
  opts.final_test.sample_constant *= opts.sample_scale;

  // --- Step 1-3: ApproxPart. ---
  const double kd = static_cast<double>(k_);
  double b = opts.partition_b_constant * kd * std::log2(kd + 1.0) / eps_;
  b = std::max(1.0, std::min(b, static_cast<double>(n)));
  int64_t stage_start = oracle.SamplesDrawn();
  std::optional<obs::TraceSpan> stage_span;
  stage_span.emplace(obs::names::kSpanStageApproxPart);
  auto partition = ApproxPartition(oracle, b, opts.approx_part);
  {
    const int64_t drawn = oracle.SamplesDrawn() - stage_start;
    stage_span->AnnotateInt("samples_drawn", drawn);
    stage_span.reset();
    obs::AddCount(obs::names::kStageApproxPartSamplesDrawn, drawn);
  }
  HISTEST_RETURN_IF_ERROR(partition.status());
  report.partition_size = partition.value().NumIntervals();
  {
    std::ostringstream info;
    info << "b=" << b << " K=" << partition.value().NumIntervals();
    report.stages.push_back(StageReport{
        "approx_part", oracle.SamplesDrawn() - stage_start, info.str()});
  }

  // --- Step 4: chi-square learner. ---
  stage_start = oracle.SamplesDrawn();
  const double eps_learn = opts.learner_eps_fraction * eps_;
  stage_span.emplace(obs::names::kSpanStageLearner);
  auto dhat = LearnHistogramChiSquare(oracle, partition.value(), eps_learn,
                                      opts.learner);
  {
    const int64_t drawn = oracle.SamplesDrawn() - stage_start;
    stage_span->AnnotateInt("samples_drawn", drawn);
    stage_span.reset();
    obs::AddCount(obs::names::kStageLearnerSamplesDrawn, drawn);
  }
  HISTEST_RETURN_IF_ERROR(dhat.status());
  report.stages.push_back(StageReport{
      "learner", oracle.SamplesDrawn() - stage_start,
      "eps_l=" + std::to_string(eps_learn)});
  // The hypothesis's dense expansion is the run's dominant O(n) temporary;
  // it comes from the thread's scratch arena, so repeated Test() calls on
  // one thread (the trial loop) reuse the same retained chunks instead of
  // allocating n doubles per trial. The downstream stages take spans, so
  // no vector is ever formed.
  ScratchArena& arena = ScratchArena::ThreadLocal();
  const ScratchArena::Scope arena_scope(arena);
  double* dstar_storage = arena.Alloc<double>(n);
  dhat.value().ToDenseInto(std::span<double>(dstar_storage, n));
  const std::span<const double> dstar(dstar_storage, n);
  obs::SetGauge(obs::names::kTrialArenaBytes,
                static_cast<int64_t>(arena.bytes_reserved()));

  // --- Steps 6-8: sieving. ---
  stage_start = oracle.SamplesDrawn();
  stage_span.emplace(obs::names::kSpanStageSieve);
  auto sieve = SieveIntervals(oracle, dstar, partition.value(), k_, eps_,
                              opts.sieve, rng_);
  {
    const int64_t drawn = oracle.SamplesDrawn() - stage_start;
    stage_span->AnnotateInt("samples_drawn", drawn);
    stage_span.reset();
    obs::AddCount(obs::names::kStageSieveSamplesDrawn, drawn);
  }
  HISTEST_RETURN_IF_ERROR(sieve.status());
  report.removed_intervals =
      sieve.value().removed_heavy + sieve.value().removed_iterative;
  report.stages.push_back(StageReport{"sieve",
                                      oracle.SamplesDrawn() - stage_start,
                                      sieve.value().detail});
  if (sieve.value().rejected) {
    report.verdict = Verdict::kReject;
    report.decided_by = "sieve";
    report.samples_total = oracle.SamplesDrawn() - drawn_start;
    finish(report);
    return report;
  }

  // --- Step 10: offline closeness check on the kept subdomain. ---
  stage_span.emplace(obs::names::kSpanStageCheck);
  auto check = CheckCloseToHkOnSubdomain(dhat.value(), partition.value(),
                                         sieve.value().active, k_, eps_,
                                         opts.check);
  stage_span->AnnotateInt("samples_drawn", 0);
  stage_span.reset();
  HISTEST_RETURN_IF_ERROR(check.status());
  {
    std::ostringstream info;
    info << "dist(Dhat,Hk|G) in [" << check.value().bounds.lower << ", "
         << check.value().bounds.upper << "] threshold="
         << opts.check.threshold_fraction * eps_ << " decided_by="
         << HkBoundName(check.value().decided_by);
    report.stages.push_back(StageReport{"check", 0, info.str()});
  }
  if (!check.value().close) {
    report.verdict = Verdict::kReject;
    report.decided_by = "check";
    report.samples_total = oracle.SamplesDrawn() - drawn_start;
    finish(report);
    return report;
  }

  // --- Step 13: restricted [ADK15] identity test against the hypothesis. --
  stage_start = oracle.SamplesDrawn();
  const double eps_final = opts.final_eps_fraction * eps_;
  const double m_final = opts.final_test.sample_constant *
                         std::sqrt(static_cast<double>(n)) /
                         (eps_final * eps_final);
  stage_span.emplace(obs::names::kSpanStageFinal);
  auto final_outcome = AdkRestrictedIdentityTest(
      oracle, dstar, partition.value(), sieve.value().active, eps_final,
      m_final, opts.final_test, rng_);
  {
    const int64_t drawn = oracle.SamplesDrawn() - stage_start;
    stage_span->AnnotateInt("samples_drawn", drawn);
    stage_span.reset();
    obs::AddCount(obs::names::kStageFinalSamplesDrawn, drawn);
  }
  HISTEST_RETURN_IF_ERROR(final_outcome.status());
  report.stages.push_back(StageReport{"final",
                                      oracle.SamplesDrawn() - stage_start,
                                      final_outcome.value().detail});
  report.verdict = final_outcome.value().verdict;
  report.decided_by = "final";
  report.samples_total = oracle.SamplesDrawn() - drawn_start;
  finish(report);
  return report;
}

}  // namespace histest
