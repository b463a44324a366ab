#include "testing/distance_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "histogram/distance_to_hk.h"

namespace histest {

Result<DistanceEstimate> EstimateDistanceToHk(
    SampleOracle& oracle, size_t k, double alpha,
    const DistanceEstimatorOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(alpha > 0.0) || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (!(options.delta > 0.0) || options.delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  const int64_t drawn_before = oracle.SamplesDrawn();
  const double kd = static_cast<double>(k);
  const int64_t m = CeilToCount(
      options.sample_constant *
      (kd + std::log2(1.0 / options.delta)) / (alpha * alpha));
  const CountVector counts = oracle.DrawCounts(m);
  auto empirical = counts.ToEmpirical();
  HISTEST_RETURN_IF_ERROR(empirical.status());
  auto bounds = DistanceToHk(empirical.value(), k);
  HISTEST_RETURN_IF_ERROR(bounds.status());
  DistanceEstimate estimate;
  estimate.lower = std::max(0.0, bounds.value().lower - alpha);
  estimate.upper = std::min(1.0, bounds.value().upper + alpha);
  estimate.point = Clamp(
      0.5 * (bounds.value().lower + bounds.value().upper), 0.0, 1.0);
  estimate.samples_used = oracle.SamplesDrawn() - drawn_before;
  return estimate;
}

TolerantHistogramTester::TolerantHistogramTester(
    size_t k, double eps1, double eps2, DistanceEstimatorOptions options)
    : k_(k), eps1_(eps1), eps2_(eps2), options_(options) {
  HISTEST_CHECK_GE(eps1_, 0.0);
  HISTEST_CHECK_LT(eps1_, eps2_);
  HISTEST_CHECK_LE(eps2_, 1.0);
}

Result<TestOutcome> TolerantHistogramTester::Test(SampleOracle& oracle) {
  // Resolve the gap with accuracy a bit under half of it, then threshold
  // the estimate at the midpoint.
  const double alpha = (eps2_ - eps1_) / 3.0;
  auto estimate = EstimateDistanceToHk(oracle, k_, alpha, options_);
  HISTEST_RETURN_IF_ERROR(estimate.status());
  TestOutcome outcome;
  const double midpoint = 0.5 * (eps1_ + eps2_);
  outcome.verdict = estimate.value().point <= midpoint ? Verdict::kAccept
                                                       : Verdict::kReject;
  outcome.samples_used = estimate.value().samples_used;
  outcome.detail = "tolerant: estimate in [" +
                   std::to_string(estimate.value().lower) + ", " +
                   std::to_string(estimate.value().upper) + "] midpoint " +
                   std::to_string(midpoint);
  return outcome;
}

}  // namespace histest
