#ifndef HISTEST_TESTING_LEARN_VERIFY_H_
#define HISTEST_TESTING_LEARN_VERIFY_H_

#include <cstdint>

#include "common/rng.h"
#include "testing/identity_adk.h"
#include "testing/tester.h"

namespace histest {

/// Shared decision engine for the [ILR12]- and [CDGR16]-style baselines:
/// the classical learn-then-verify structure those papers build on.
///
///  1. Learn a 2k-piece histogram hypothesis D-hat by greedy merging of an
///     empirical distribution (agnostic L1 learner).
///  2. Offline, reject if D-hat is already far from H_k.
///  3. Refine D-hat's pieces into Theta(k / eps) intervals of roughly equal
///     hypothesis mass and run a chi-square (Z) verification of D against
///     D-hat on them, exempting up to k-1 light intervals (the hypothesis's
///     possible breakpoint misalignments) with the largest statistics.
///
/// The two baselines differ in how much budget the cited theorems grant
/// them (sqrt(kn)/eps^5 log n vs sqrt(kn)/eps^3 log n); the engine spends
/// whatever it is given, so empirical sample-cost curves follow the cited
/// scaling laws while decisions remain genuinely correct.
struct LearnVerifyOptions {
  /// m_learn = min(3 * budget / 5, learn_constant * k / eps^3). The
  /// constant must be large enough that the hypothesis's chi-square error
  /// (~ K' / m_learn over K' = 4k/eps refined intervals) sits well under
  /// the verification threshold accept_threshold * eps^2.
  double learn_constant = 150.0;
  /// Refined intervals target hypothesis mass refine_mass_factor * eps / k.
  double refine_mass_factor = 0.25;
  /// Offline reject when dist(D-hat, H_k) lower bound exceeds
  /// offline_threshold * eps.
  double offline_threshold = 0.5;
  /// An interval is exemptable iff its empirical mass is at most
  /// exempt_mass_factor * (refine_mass_factor * eps / k) and it is not a
  /// singleton (a singleton cannot hide a breakpoint).
  double exempt_mass_factor = 3.0;
  /// Z-statistic thresholds for the verification stage.
  AdkOptions adk;
};

/// Runs the engine with a total sample budget. Returns the verdict and the
/// samples actually drawn. Requires budget >= 4 and eps in (0, 1].
Result<TestOutcome> LearnThenVerifyHistogramTest(SampleOracle& oracle,
                                                 size_t k, double eps,
                                                 int64_t budget,
                                                 const LearnVerifyOptions& options,
                                                 Rng& rng);

/// The parameter check the two baseline testers make in Test(), before
/// any budget is computed or sample drawn: InvalidArgument unless k >= 1,
/// eps is in (0, 1] and budget_scale is in (0, kMaxSampleScale].
Status ValidateBaselineParameters(size_t k, double eps, double budget_scale);

}  // namespace histest

#endif  // HISTEST_TESTING_LEARN_VERIFY_H_
