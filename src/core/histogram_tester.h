#ifndef HISTEST_CORE_HISTOGRAM_TESTER_H_
#define HISTEST_CORE_HISTOGRAM_TESTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/approx_part.h"
#include "core/hk_check.h"
#include "core/learner.h"
#include "core/sieve.h"
#include "obs/names.h"
#include "testing/identity_adk.h"
#include "testing/tester.h"

namespace histest {

/// All tuning of Algorithm 1. Two presets:
///  - Calibrated() (the default-constructed values): constants chosen so the
///    tester is correct at laptop scale; every statistic, threshold shape,
///    and control-flow decision matches the paper, only the leading
///    constants differ (validated empirically by experiment E4).
///  - PaperFaithful(): the literal constants from the paper's analysis
///    (b = 20 k log k / eps, learner accuracy eps/60, m >= 20000 sqrt(n) /
///    eps^2, thresholds 1/500 vs 1/5, ...). Astronomically conservative —
///    provided for reference and for tiny-domain demonstrations.
struct HistogramTesterOptions {
  /// ApproxPart parameter b = partition_b_constant * k * log2(k + 1) / eps
  /// (paper: 20), clamped to [1, n].
  double partition_b_constant = 8.0;
  ApproxPartOptions approx_part;

  /// Learner accuracy eps_l = learner_eps_fraction * eps (paper: 1/60).
  double learner_eps_fraction = 1.0 / 12.0;
  LearnerOptions learner;

  SieveOptions sieve;
  HkCheckOptions check;

  /// Final test distance eps' = final_eps_fraction * eps (paper: 13/30).
  double final_eps_fraction = 0.35;
  AdkOptions final_test;

  /// Multiplies every stage's sample constant; the knob the benchmark
  /// harness's minimal-budget search varies. Test() rejects a scale
  /// outside (0, kMaxSampleScale].
  double sample_scale = 1.0;

  /// The paper's literal constants.
  static HistogramTesterOptions PaperFaithful();
};

/// Per-stage accounting for diagnostics and the experiment harness.
struct StageReport {
  std::string stage;
  int64_t samples = 0;
  std::string info;
};

/// Extended outcome of an Algorithm-1 run (RunAlgorithm1).
struct HistogramTestReport {
  Verdict verdict = Verdict::kReject;
  int64_t samples_total = 0;
  /// Which stage produced the verdict ("sieve", "check", "final", or
  /// "trivial").
  std::string decided_by;
  size_t partition_size = 0;
  size_t removed_intervals = 0;
  std::vector<StageReport> stages;
};

/// The stage constants the Algorithm-1 runner reads. Both testers' option
/// structs carry them under these names.
struct StageOptions {
  ApproxPartOptions approx_part;
  double learner_eps_fraction = 0.0;
  LearnerOptions learner;
  SieveOptions sieve;
  double final_eps_fraction = 0.0;
  AdkOptions final_test;
  /// Multiplies the four stage sample constants above.
  double sample_scale = 1.0;

  template <typename TesterOptions>
  static StageOptions Of(const TesterOptions& o) {
    return {o.approx_part, o.learner_eps_fraction, o.learner, o.sieve,
            o.final_eps_fraction, o.final_test, o.sample_scale};
  }
};

/// The Step-10 verdict: is the hypothesis close to the tested class on the
/// kept subdomain? `info` becomes the check's StageReport info.
struct ProjectionCheck {
  bool close = false;
  std::string info;
};

/// Step 10 of Algorithm 1, supplied by the tester: the class-specific
/// projection of the hypothesis `dhat` restricted to the partition
/// intervals the sieve kept (`active`).
using ProjectionCheckFn = std::function<Result<ProjectionCheck>(
    const PiecewiseConstant& dhat, const Partition& partition,
    const std::vector<bool>& active)>;

/// One tester's instance of Algorithm 1.
struct Algorithm1Spec {
  /// Root span of the run (a kSpan* constant from obs/names.h).
  const char* span_name = obs::names::kSpanHistogramTest;
  /// Pieces the class allows: k for H_k, max_changes + 1 monotone runs for
  /// k-modality (annotated as `k` on the root span). It is the sieve's
  /// removal budget, and pieces >= n accepts without sampling: every
  /// distribution on [0, n) is then in the class.
  size_t pieces = 0;
  double eps = 0.0;
  /// ApproxPart parameter; the runner clamps it to [1, n].
  double b = 1.0;
  StageOptions stages;
  ProjectionCheckFn check;
};

/// Runs Algorithm 1 for `spec`: ApproxPart, chi-square learner, dense
/// expansion of the hypothesis, sieve, the Step-10 `spec.check`, and the
/// restricted [ADK15] identity test. Each stage runs under its trace span
/// and reports its draws. Returns InvalidArgument when eps is outside
/// (0, 1], pieces is 0, or sample_scale is outside (0, kMaxSampleScale].
Result<HistogramTestReport> RunAlgorithm1(SampleOracle& oracle,
                                          const Algorithm1Spec& spec,
                                          Rng& rng);

/// The TestOutcome of a runner report: its verdict, samples and a
/// `decided_by=... K=... removed=...` detail.
TestOutcome OutcomeOf(const HistogramTestReport& report);

/// Algorithm 1: the paper's tester for the class H_k of k-histograms.
///
///   1. ApproxPart with b = Theta(k log k / eps)  (Prop 3.4);
///   2. chi-square Laplace learner on the partition (Lemma 3.5);
///   3. sieve away up to O(k log k) breakpoint-suspect intervals
///      (Sec. 3.2.1);
///   4. offline DP check that the hypothesis is close to H_k on the kept
///      subdomain (Step 10, [CDGR16, Lemma 4.11]);
///   5. restricted [ADK15] chi^2-vs-TV test of D against the hypothesis
///      (Step 13, Theorem 3.2).
///
/// Test() runs RunAlgorithm1 with CheckCloseToHkOnSubdomain as the Step-10
/// callback. Completeness/soundness 2/3 per Theorem 3.1; sample complexity
/// O(sqrt(n)/eps^2 log k + k/eps^3 log^2 k + (k/eps) log(k/eps)).
class HistogramTester : public DistributionTester {
 public:
  HistogramTester(size_t k, double eps, HistogramTesterOptions options,
                  uint64_t seed);

  std::string Name() const override { return "histest-algorithm1"; }

  Result<TestOutcome> Test(SampleOracle& oracle) override;

  /// Like Test() but with per-stage accounting. Invalid parameters (see
  /// RunAlgorithm1) come back as InvalidArgument.
  Result<HistogramTestReport> TestWithReport(SampleOracle& oracle);

  size_t k() const { return k_; }
  double eps() const { return eps_; }

 private:
  size_t k_;
  double eps_;
  HistogramTesterOptions options_;
  Rng rng_;
};

}  // namespace histest

#endif  // HISTEST_CORE_HISTOGRAM_TESTER_H_
