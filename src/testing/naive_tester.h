#ifndef HISTEST_TESTING_NAIVE_TESTER_H_
#define HISTEST_TESTING_NAIVE_TESTER_H_

#include <cstdint>
#include <string>

#include "testing/tester.h"

namespace histest {

/// The O(n / eps^2) "learn everything" strawman the paper's introduction
/// argues a sublinear tester must beat: learn D to TV accuracy eps/4 via
/// the empirical distribution, then decide offline by computing the
/// distance to H_k. Sample complexity Theta(n / eps^2); always correct, so
/// it anchors both the correctness matrix and the cost comparisons.
struct NaiveTesterOptions {
  /// m = sample_constant * n / eps^2.
  double sample_constant = 4.0;
};

class NaiveHistogramTester : public DistributionTester {
 public:
  NaiveHistogramTester(size_t k, double eps, NaiveTesterOptions options);

  std::string Name() const override { return "naive-learn-everything"; }
  Result<TestOutcome> Test(SampleOracle& oracle) override;

 private:
  size_t k_;
  double eps_;
  NaiveTesterOptions options_;
};

}  // namespace histest

#endif  // HISTEST_TESTING_NAIVE_TESTER_H_
