#include "testing/baseline_ilr.h"

#include "stats/bounds.h"

namespace histest {

IlrHistogramTester::IlrHistogramTester(size_t k, double eps,
                                       double budget_scale,
                                       LearnVerifyOptions options,
                                       uint64_t seed)
    : k_(k), eps_(eps), budget_scale_(budget_scale), options_(options),
      rng_(seed) {}

Result<TestOutcome> IlrHistogramTester::Test(SampleOracle& oracle) {
  HISTEST_RETURN_IF_ERROR(ValidateBaselineParameters(k_, eps_, budget_scale_));
  const int64_t budget =
      IlrSampleComplexity(oracle.DomainSize(), k_, eps_, budget_scale_);
  return LearnThenVerifyHistogramTest(oracle, k_, eps_, budget, options_,
                                      rng_);
}

}  // namespace histest
