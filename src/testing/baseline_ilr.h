#ifndef HISTEST_TESTING_BASELINE_ILR_H_
#define HISTEST_TESTING_BASELINE_ILR_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "testing/learn_verify.h"
#include "testing/tester.h"

namespace histest {

/// [ILR12]-style baseline histogram tester: the learn-then-verify engine
/// run with the O(sqrt(kn)/eps^5 * log n) sample budget of Indyk, Levi, and
/// Rubinfeld. See LearnThenVerifyHistogramTest for the decision procedure
/// and DESIGN.md for the substitution rationale.
class IlrHistogramTester : public DistributionTester {
 public:
  /// `budget_scale` multiplies the theorem's budget formula (the paper's
  /// constants are asymptotic; the scale is what the minimal-sample search
  /// in the benchmark harness varies). Test() checks the parameters (see
  /// ValidateBaselineParameters).
  IlrHistogramTester(size_t k, double eps, double budget_scale,
                     LearnVerifyOptions options, uint64_t seed);

  std::string Name() const override { return "ilr12-baseline"; }
  Result<TestOutcome> Test(SampleOracle& oracle) override;

  /// The budget this tester would spend on a domain of size n. Requires
  /// parameters that Test() accepts (hostile ones trip a CHECK here).
  int64_t BudgetFor(size_t n) const;

 private:
  size_t k_;
  double eps_;
  double budget_scale_;
  LearnVerifyOptions options_;
  Rng rng_;
};

}  // namespace histest

#endif  // HISTEST_TESTING_BASELINE_ILR_H_
