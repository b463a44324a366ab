#ifndef HISTEST_CORE_LEARNER_H_
#define HISTEST_CORE_LEARNER_H_

#include "common/status.h"
#include "dist/interval.h"
#include "dist/piecewise.h"
#include "testing/tester.h"

namespace histest {

/// Tuning of the chi-square histogram learner (Lemma 3.5).
struct LearnerOptions {
  /// Sample count m = ceil(sample_constant * K / eps^2) where K is the
  /// partition size. Lemma 3.5's Markov argument uses a constant of 10 for
  /// a 9/10 success probability; the calibrated default relies on the
  /// expectation bound E[chi^2] <= K/m with a 3x margin.
  double sample_constant = 4.0;
};

/// The learner's sample budget before rounding up for a partition of
/// `intervals` intervals: sample_constant * intervals / eps^2.
double LearnerSampleBudget(double intervals, double eps,
                           const LearnerOptions& options);

/// The Laplace ("add-one") interval estimator of Lemma 3.5: draws
/// m = O(K / eps^2) samples and outputs the K-piece histogram
///   Dhat(j) = (m_I + 1) / (m + K) * 1 / |I|   for j in I.
///
/// Guarantee: if D is a k-histogram (k <= K) and J are its breakpoint
/// intervals, then with probability >= 9/10 the flattened distribution
/// D-tilde^J satisfies d_chi^2(D-tilde^J || Dhat) <= eps^2, i.e., the
/// hypothesis is chi^2-accurate everywhere except possibly on breakpoint
/// intervals. The output always has total mass exactly 1.
Result<PiecewiseConstant> LearnHistogramChiSquare(
    SampleOracle& oracle, const Partition& partition, double eps,
    const LearnerOptions& options = {});

}  // namespace histest

#endif  // HISTEST_CORE_LEARNER_H_
