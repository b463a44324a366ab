#include "testing/baseline_cdgr.h"

#include "stats/bounds.h"

namespace histest {

CdgrHistogramTester::CdgrHistogramTester(size_t k, double eps,
                                         double budget_scale,
                                         LearnVerifyOptions options,
                                         uint64_t seed)
    : k_(k), eps_(eps), budget_scale_(budget_scale), options_(options),
      rng_(seed) {}

int64_t CdgrHistogramTester::BudgetFor(size_t n) const {
  return CdgrSampleComplexity(n, k_, eps_, budget_scale_);
}

Result<TestOutcome> CdgrHistogramTester::Test(SampleOracle& oracle) {
  HISTEST_RETURN_IF_ERROR(ValidateBaselineParameters(k_, eps_, budget_scale_));
  return LearnThenVerifyHistogramTest(oracle, k_, eps_,
                                      BudgetFor(oracle.DomainSize()),
                                      options_, rng_);
}

}  // namespace histest
