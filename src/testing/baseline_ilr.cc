#include "testing/baseline_ilr.h"

#include "stats/bounds.h"

namespace histest {

IlrHistogramTester::IlrHistogramTester(size_t k, double eps,
                                       double budget_scale,
                                       LearnVerifyOptions options,
                                       uint64_t seed)
    : k_(k), eps_(eps), budget_scale_(budget_scale), options_(options),
      rng_(seed) {}

int64_t IlrHistogramTester::BudgetFor(size_t n) const {
  return IlrSampleComplexity(n, k_, eps_, budget_scale_);
}

Result<TestOutcome> IlrHistogramTester::Test(SampleOracle& oracle) {
  HISTEST_RETURN_IF_ERROR(ValidateBaselineParameters(k_, eps_, budget_scale_));
  return LearnThenVerifyHistogramTest(oracle, k_, eps_,
                                      BudgetFor(oracle.DomainSize()),
                                      options_, rng_);
}

}  // namespace histest
