#ifndef HISTEST_TESTING_BASELINE_CDGR_H_
#define HISTEST_TESTING_BASELINE_CDGR_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "testing/learn_verify.h"
#include "testing/tester.h"

namespace histest {

/// [CDGR16]-style baseline histogram tester: the learn-then-verify engine
/// run with the O(sqrt(kn)/eps^3 * log n) sample budget of Canonne,
/// Diakonikolas, Gouleakis, and Rubinfeld's shape-restriction framework.
class CdgrHistogramTester : public DistributionTester {
 public:
  /// Test() checks the parameters (see ValidateBaselineParameters).
  CdgrHistogramTester(size_t k, double eps, double budget_scale,
                      LearnVerifyOptions options, uint64_t seed);

  std::string Name() const override { return "cdgr16-baseline"; }
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

#endif  // HISTEST_TESTING_BASELINE_CDGR_H_
