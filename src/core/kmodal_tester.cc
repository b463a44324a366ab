#include "core/kmodal_tester.h"

#include <cmath>
#include <sstream>

#include "histogram/modality.h"
#include "obs/names.h"

namespace histest {

KModalTester::KModalTester(size_t max_changes, double eps,
                           KModalTesterOptions options, uint64_t seed)
    : max_changes_(max_changes), eps_(eps), options_(options), rng_(seed) {}

Result<TestOutcome> KModalTester::Test(SampleOracle& oracle) {
  auto report = TestWithReport(oracle);
  HISTEST_RETURN_IF_ERROR(report.status());
  return OutcomeOf(report.value());
}

Result<HistogramTestReport> KModalTester::TestWithReport(
    SampleOracle& oracle) {
  Algorithm1Spec spec;
  spec.span_name = obs::names::kSpanKModalTest;
  // The sieve's removal budget is keyed by the number of monotone runs,
  // i.e. of intervals that can hide a direction change.
  spec.pieces = max_changes_ + 1;
  spec.eps = eps_;
  // The log n factor covers the flattening error of smooth monotone runs.
  spec.b = options_.partition_b_constant * static_cast<double>(spec.pieces) *
           std::log2(static_cast<double>(oracle.DomainSize()) + 1.0) / eps_;
  spec.stages = StageOptions::Of(options_);
  // Step 10 with the exact k-modal projection; an empty kept subdomain is
  // vacuously close.
  spec.check = [this](const PiecewiseConstant& dhat,
                      const Partition& partition,
                      const std::vector<bool>& active)
      -> Result<ProjectionCheck> {
    const std::vector<Interval> kept = ActiveSubdomain(partition, active);
    if (kept.empty()) return ProjectionCheck{true, "empty subdomain"};
    auto dist = RestrictedDistanceToKModal(dhat, kept, max_changes_,
                                           options_.check_coarsen_limit);
    HISTEST_RETURN_IF_ERROR(dist.status());
    const double threshold = options_.check_threshold_fraction * eps_;
    std::ostringstream info;
    info << "dist(Dhat," << max_changes_ << "-modal|G) >= "
         << dist.value().lower << " threshold=" << threshold;
    return ProjectionCheck{!(dist.value().lower > threshold), info.str()};
  };
  return RunAlgorithm1(oracle, spec, rng_);
}

}  // namespace histest
