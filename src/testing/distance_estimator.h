#ifndef HISTEST_TESTING_DISTANCE_ESTIMATOR_H_
#define HISTEST_TESTING_DISTANCE_ESTIMATOR_H_

#include <cstdint>

#include "common/status.h"
#include "testing/tester.h"

namespace histest {

/// A tolerant estimate of d_TV(D, H_k) from samples.
struct DistanceEstimate {
  /// Certified bracket around d_TV(D_emp, H_k) widened by the statistical
  /// accuracy alpha: with probability >= 1 - delta,
  /// d_TV(D, H_k) lies in [lower, upper].
  double lower = 0.0;
  double upper = 1.0;
  /// Midpoint convenience value.
  double point = 0.0;
  int64_t samples_used = 0;
};

struct DistanceEstimatorOptions {
  /// m = sample_constant * (k + log2(1/delta)) / alpha^2. The constant
  /// covers the VC-style uniform convergence of interval-class (A_{O(k)})
  /// norms.
  double sample_constant = 8.0;
  double delta = 0.1;
};

/// Estimates the distance from the unknown distribution to the class H_k
/// within +/- alpha, using O(k / alpha^2) samples: the empirical
/// distribution's A_{O(k)}-norm distance to D is at most alpha w.h.p.
/// (VC dimension of unions of k intervals is O(k)), and the distance to a
/// k-piece class is Lipschitz in that norm, so the offline DP bracket on
/// the empirical distribution, widened by alpha, brackets the true
/// distance. This is the tolerant counterpart of the tester, and the
/// quantitative engine behind model selection ("how many bins are
/// enough?").
Result<DistanceEstimate> EstimateDistanceToHk(
    SampleOracle& oracle, size_t k, double alpha,
    const DistanceEstimatorOptions& options = {});

/// Tolerant histogram tester built on the estimator: distinguishes
/// d_TV(D, H_k) <= eps1 from d_TV(D, H_k) >= eps2 (eps1 < eps2), the
/// two-threshold relaxation the plain tester (eps1 = 0) cannot provide.
/// Sample cost O(k / (eps2 - eps1)^2) — the learning route; the paper's
/// discussion of [VV10] explains why a sqrt(n)-type tolerant tester cannot
/// exist in general.
class TolerantHistogramTester : public DistributionTester {
 public:
  TolerantHistogramTester(size_t k, double eps1, double eps2,
                          DistanceEstimatorOptions options = {});

  std::string Name() const override { return "tolerant-histogram"; }
  Result<TestOutcome> Test(SampleOracle& oracle) override;

 private:
  size_t k_;
  double eps1_;
  double eps2_;
  DistanceEstimatorOptions options_;
};

}  // namespace histest

#endif  // HISTEST_TESTING_DISTANCE_ESTIMATOR_H_
