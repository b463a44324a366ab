#include "testing/naive_tester.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"
#include "histogram/distance_to_hk.h"

namespace histest {

NaiveHistogramTester::NaiveHistogramTester(size_t k, double eps,
                                           NaiveTesterOptions options)
    : k_(k), eps_(eps), options_(options) {
  HISTEST_CHECK_GE(k_, 1u);
  HISTEST_CHECK_GT(eps_, 0.0);
  HISTEST_CHECK_LE(eps_, 1.0);
}

Result<TestOutcome> NaiveHistogramTester::Test(SampleOracle& oracle) {
  const size_t n = oracle.DomainSize();
  const int64_t m = CeilToCount(options_.sample_constant *
                                static_cast<double>(n) / (eps_ * eps_));
  const int64_t drawn_before = oracle.SamplesDrawn();
  const CountVector counts = oracle.DrawCounts(m);
  auto empirical = counts.ToEmpirical();
  HISTEST_RETURN_IF_ERROR(empirical.status());
  auto bounds = DistanceToHk(empirical.value(), k_);
  HISTEST_RETURN_IF_ERROR(bounds.status());
  const double mid = 0.5 * (bounds.value().lower + bounds.value().upper);
  TestOutcome outcome;
  outcome.verdict = mid <= 0.5 * eps_ ? Verdict::kAccept : Verdict::kReject;
  outcome.samples_used = oracle.SamplesDrawn() - drawn_before;
  std::ostringstream detail;
  detail << "dist(emp,Hk) in [" << bounds.value().lower << ", "
         << bounds.value().upper << "] threshold=" << 0.5 * eps_;
  outcome.detail = detail.str();
  return outcome;
}

}  // namespace histest
