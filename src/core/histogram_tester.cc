#include "core/histogram_tester.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <utility>

#include "common/arena.h"
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

namespace {

/// A stage's names: its StageReport label, trace span and
/// samples_drawn counter (none for the offline check).
struct StageNames {
  const char* stage;
  const char* span;
  const char* counter;
};

constexpr StageNames kApproxPartStage{"approx_part",
                                      obs::names::kSpanStageApproxPart,
                                      obs::names::kStageApproxPartSamplesDrawn};
constexpr StageNames kLearnerStage{"learner", obs::names::kSpanStageLearner,
                                   obs::names::kStageLearnerSamplesDrawn};
constexpr StageNames kSieveStage{"sieve", obs::names::kSpanStageSieve,
                                 obs::names::kStageSieveSamplesDrawn};
constexpr StageNames kCheckStage{"check", obs::names::kSpanStageCheck,
                                 nullptr};
constexpr StageNames kFinalStage{"final", obs::names::kSpanStageFinal,
                                 obs::names::kStageFinalSamplesDrawn};

/// Runs one stage under its span and accounts for it: the span's
/// samples_drawn annotation, the stage counter and, when the stage
/// succeeds, its StageReport with the info `describe` gives for the result.
template <typename Run, typename Describe>
auto RunStage(const StageNames& names, SampleOracle& oracle,
              HistogramTestReport& report, Run run, Describe describe)
    -> decltype(run()) {
  const int64_t start = oracle.SamplesDrawn();
  auto result = [&] {
    obs::TraceSpan span(names.span);
    auto r = run();
    span.AnnotateInt("samples_drawn", oracle.SamplesDrawn() - start);
    return r;
  }();
  const int64_t drawn = oracle.SamplesDrawn() - start;
  if (names.counter != nullptr) obs::AddCount(names.counter, drawn);
  if (result.ok()) {
    report.stages.push_back(
        StageReport{names.stage, drawn, describe(result.value())});
  }
  return result;
}

Status ValidateSpec(const Algorithm1Spec& spec) {
  if (!(spec.eps > 0.0 && spec.eps <= 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (spec.pieces < 1) return Status::InvalidArgument("k must be >= 1");
  const double scale = spec.stages.sample_scale;
  if (!(scale > 0.0 && scale <= kMaxSampleScale)) {
    return Status::InvalidArgument("sample_scale must be in (0, 1e6]");
  }
  return Status::Ok();
}

}  // namespace

Result<HistogramTestReport> RunAlgorithm1(SampleOracle& oracle,
                                          const Algorithm1Spec& spec,
                                          Rng& rng) {
  HISTEST_RETURN_IF_ERROR(ValidateSpec(spec));
  const size_t n = oracle.DomainSize();
  const double eps = spec.eps;
  HistogramTestReport report;
  const int64_t drawn_start = oracle.SamplesDrawn();

  // Root span for the whole run; stage spans nest under it. Inert (and the
  // helpers below are one load + branch each) unless tracing is enabled.
  obs::TraceSpan test_span(spec.span_name);
  test_span.AnnotateInt("n", static_cast<int64_t>(n));
  test_span.AnnotateInt("k", static_cast<int64_t>(spec.pieces));
  test_span.AnnotateDouble("eps", eps);
  const auto finish = [&](Verdict verdict, const char* decided_by) {
    report.verdict = verdict;
    report.decided_by = decided_by;
    report.samples_total = oracle.SamplesDrawn() - drawn_start;
    test_span.AnnotateString("verdict", VerdictToString(report.verdict));
    test_span.AnnotateString("decided_by", report.decided_by);
    test_span.AnnotateInt("samples_total", report.samples_total);
    obs::AddCount(obs::names::kTesterRuns, 1);
    return std::move(report);
  };

  if (spec.pieces >= n) {
    report.stages.push_back(StageReport{"trivial", 0, "k >= n"});
    return finish(Verdict::kAccept, "trivial");
  }

  // Apply the global sample scale to every stage's budget.
  StageOptions opts = spec.stages;
  opts.approx_part.sample_constant *= opts.sample_scale;
  opts.learner.sample_constant *= opts.sample_scale;
  opts.sieve.sample_constant *= opts.sample_scale;
  opts.final_test.sample_constant *= opts.sample_scale;

  const double nd = static_cast<double>(n);
  const double b = std::max(1.0, std::min(spec.b, nd));
  const double eps_learn = opts.learner_eps_fraction * eps;
  const double eps_final = opts.final_eps_fraction * eps;
  const double m_final =
      opts.final_test.sample_constant * std::sqrt(nd) / (eps_final * eps_final);

  // Every stage's budget must be countable before the first draw: they grow
  // like 1/eps^2, so a tiny eps pushes them past int64. ApproxPart's K, which
  // sizes the learner's, is at most n and at most two intervals per sample
  // it draws, plus one.
  const double m_approx = ApproxPartSampleBudget(b, opts.approx_part);
  const double k_max = std::min(nd, 2.0 * std::ceil(m_approx) + 1.0);
  for (const double m :
       {m_approx, LearnerSampleBudget(k_max, eps_learn, opts.learner),
        SieveSampleBudget(n, eps, opts.sieve), m_final}) {
    if (!IsCountable(m)) {
      return Status::InvalidArgument(
          "eps too small: a stage's sample budget is past 2^62");
    }
  }

  // --- Steps 1-3: ApproxPart. ---
  auto partition = RunStage(
      kApproxPartStage, oracle, report,
      [&] { return ApproxPartition(oracle, b, opts.approx_part); },
      [&](const Partition& p) {
        std::ostringstream info;
        info << "b=" << b << " K=" << p.NumIntervals();
        return info.str();
      });
  HISTEST_RETURN_IF_ERROR(partition.status());
  report.partition_size = partition.value().NumIntervals();

  // --- Step 4: chi-square learner. ---
  auto dhat = RunStage(
      kLearnerStage, oracle, report,
      [&] {
        return LearnHistogramChiSquare(oracle, partition.value(), eps_learn,
                                       opts.learner);
      },
      [&](const PiecewiseConstant&) {
        return "eps_l=" + std::to_string(eps_learn);
      });
  HISTEST_RETURN_IF_ERROR(dhat.status());
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
  auto sieve = RunStage(
      kSieveStage, oracle, report,
      [&] {
        return SieveIntervals(oracle, dstar, partition.value(), spec.pieces,
                              eps, opts.sieve, rng);
      },
      [](const SieveResult& r) { return r.detail; });
  HISTEST_RETURN_IF_ERROR(sieve.status());
  report.removed_intervals =
      sieve.value().removed_heavy + sieve.value().removed_iterative;
  if (sieve.value().rejected) return finish(Verdict::kReject, "sieve");

  // --- Step 10: offline projection check on the kept subdomain. ---
  auto check = RunStage(
      kCheckStage, oracle, report,
      [&] {
        return spec.check(dhat.value(), partition.value(),
                          sieve.value().active);
      },
      [](const ProjectionCheck& c) { return c.info; });
  HISTEST_RETURN_IF_ERROR(check.status());
  if (!check.value().close) return finish(Verdict::kReject, "check");

  // --- Step 13: restricted [ADK15] identity test against the hypothesis. --
  auto final_outcome = RunStage(
      kFinalStage, oracle, report,
      [&] {
        return AdkRestrictedIdentityTest(oracle, dstar, partition.value(),
                                         sieve.value().active, eps_final,
                                         m_final, opts.final_test, rng);
      },
      [](const TestOutcome& o) { return o.detail; });
  HISTEST_RETURN_IF_ERROR(final_outcome.status());
  return finish(final_outcome.value().verdict, "final");
}

TestOutcome OutcomeOf(const HistogramTestReport& report) {
  TestOutcome outcome;
  outcome.verdict = report.verdict;
  outcome.samples_used = report.samples_total;
  std::ostringstream detail;
  detail << "decided_by=" << report.decided_by
         << " K=" << report.partition_size
         << " removed=" << report.removed_intervals;
  outcome.detail = detail.str();
  return outcome;
}

HistogramTester::HistogramTester(size_t k, double eps,
                                 HistogramTesterOptions options, uint64_t seed)
    : k_(k), eps_(eps), options_(options), rng_(seed) {}

Result<TestOutcome> HistogramTester::Test(SampleOracle& oracle) {
  auto report = TestWithReport(oracle);
  HISTEST_RETURN_IF_ERROR(report.status());
  return OutcomeOf(report.value());
}

Result<HistogramTestReport> HistogramTester::TestWithReport(
    SampleOracle& oracle) {
  Algorithm1Spec spec;
  spec.pieces = k_;
  spec.eps = eps_;
  const double kd = static_cast<double>(k_);
  spec.b = options_.partition_b_constant * kd * std::log2(kd + 1.0) / eps_;
  spec.stages = StageOptions::Of(options_);
  spec.check = [this](const PiecewiseConstant& dhat,
                      const Partition& partition,
                      const std::vector<bool>& active)
      -> Result<ProjectionCheck> {
    auto check = CheckCloseToHkOnSubdomain(dhat, partition, active, k_, eps_,
                                           options_.check);
    HISTEST_RETURN_IF_ERROR(check.status());
    std::ostringstream info;
    info << "dist(Dhat,Hk|G) in [" << check.value().bounds.lower << ", "
         << check.value().bounds.upper << "] threshold="
         << options_.check.threshold_fraction * eps_ << " decided_by="
         << HkBoundName(check.value().decided_by);
    return ProjectionCheck{check.value().close, info.str()};
  };
  return RunAlgorithm1(oracle, spec, rng_);
}

}  // namespace histest
