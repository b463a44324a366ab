#ifndef HISTEST_CORE_KMODAL_TESTER_H_
#define HISTEST_CORE_KMODAL_TESTER_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "core/histogram_tester.h"

namespace histest {

/// Tuning of the k-modal tester (same knobs as HistogramTesterOptions; the
/// partition parameter gains a log n factor because flattening a *smooth*
/// monotone run over equal-mass intervals costs ~log(n)/K, unlike the
/// piecewise-constant case — Birgé's decomposition).
struct KModalTesterOptions {
  /// b = partition_b_constant * (k + 1) * log2(n + 1) / eps.
  double partition_b_constant = 6.0;
  ApproxPartOptions approx_part;
  double learner_eps_fraction = 1.0 / 16.0;
  LearnerOptions learner;
  SieveOptions sieve;
  /// Offline check: hypothesis must be (fraction * eps)-close in restricted
  /// TV to some <= k direction-change function on the kept subdomain.
  double check_threshold_fraction = 1.0 / 10.0;
  size_t check_coarsen_limit = 512;
  double final_eps_fraction = 0.35;
  AdkOptions final_test;
  double sample_scale = 1.0;
};

/// Tester for the class of k-modal distributions — pmfs whose direction
/// changes ("up-down" switches) number at most k. This is the class the
/// paper's remark after Theorem 1.2 extends the lower bound to; the tester
/// instantiates the same testing-by-learning pipeline as Algorithm 1
/// (partition, chi-square learner, sieve, offline projection check, [ADK15]
/// verification) — it runs RunAlgorithm1 — with the H_k dynamic program
/// replaced by the exact L1-isotonic (PAVA) k-modal projection as the
/// Step-10 check. k = 0 tests monotonicity, k = 1 unimodality.
class KModalTester : public DistributionTester {
 public:
  KModalTester(size_t max_changes, double eps, KModalTesterOptions options,
               uint64_t seed);

  std::string Name() const override { return "histest-kmodal"; }
  Result<TestOutcome> Test(SampleOracle& oracle) override;

  /// Like Test() but with per-stage accounting. Invalid parameters (see
  /// RunAlgorithm1) come back as InvalidArgument.
  Result<HistogramTestReport> TestWithReport(SampleOracle& oracle);

  size_t max_changes() const { return max_changes_; }

 private:
  size_t max_changes_;
  double eps_;
  KModalTesterOptions options_;
  Rng rng_;
};

}  // namespace histest

#endif  // HISTEST_CORE_KMODAL_TESTER_H_
