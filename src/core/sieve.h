#ifndef HISTEST_CORE_SIEVE_H_
#define HISTEST_CORE_SIEVE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dist/interval.h"
#include "stats/zstat.h"
#include "testing/tester.h"

namespace histest {

/// Tuning of the sieving stage (Section 3.2.1). The paper states its
/// thresholds in units of m*alpha^2 for a free constant alpha = eps/C; the
/// calibrated implementation ties them directly to the final [ADK15] test's
/// acceptance threshold T = final_accept_threshold * m * (eps')^2, which is
/// the quantity the sieve exists to protect (see DESIGN.md).
struct SieveOptions {
  /// Z-pass budget m = sample_constant * sqrt(n) / eps^2; the sieve runs
  /// O(log k) such passes, giving the sqrt(n)/eps^2 * log k leading term.
  double sample_constant = 150.0;
  /// eps' = final_eps_fraction * eps of the downstream test (Step 13).
  double final_eps_fraction = 0.35;
  /// Acceptance rate of the downstream test (Z <= rate * m * eps'^2).
  double final_accept_threshold = 0.12;
  /// Heavy stage: remove interval j when its median Z_j exceeds
  /// heavy_fraction * T.
  double heavy_fraction = 0.5;
  /// Iterative stage stops once the active total Z is at most
  /// stop_fraction * T + noise_sigmas * sigma(Z | null).
  double stop_fraction = 0.4;
  /// Per-round removal target: remove the largest statistics until the
  /// remaining total is at most target_fraction * T + noise.
  double target_fraction = 0.2;
  /// Gaussian slack for the null fluctuation of Z (sd = sqrt(2 * |A_eps|)).
  double noise_sigmas = 2.5;
  /// Median repetitions in the heavy stage; 0 derives
  /// min(2 ceil(log2(k+1)) + 1, 7) (the paper's log(1/delta) with
  /// delta = 1/(10(k+1)), capped for laptop budgets).
  int heavy_repetitions = 0;
  /// Iterative rounds; 0 derives ceil(log2(k+1)).
  int max_rounds = 0;
  ZStatOptions zstat;
};

/// What the sieve decided.
struct SieveResult {
  /// Surviving intervals (true = kept). All removed intervals are
  /// non-singletons, so the ApproxPart mass guarantee bounds the discarded
  /// probability weight.
  std::vector<bool> active;
  /// True when the sieve itself detected far-ness (removal budget
  /// exhausted): Algorithm 1 must output reject.
  bool rejected = false;
  size_t removed_heavy = 0;
  size_t removed_iterative = 0;
  int rounds_used = 0;
  int64_t samples_used = 0;
  std::string detail;
};

/// The mean of each Poissonized Z pass of the sieve over a domain of n:
/// sample_constant * sqrt(n) / eps^2.
double SieveSampleBudget(size_t n, double eps, const SieveOptions& options);

/// Runs the two-stage sieve against the learned hypothesis `dstar` (dense,
/// passed as a span so arena-backed buffers work): first discards intervals
/// whose median Z is individually damning, then iteratively removes the
/// largest remaining statistics until the total is consistent with
/// chi^2-closeness, up to O(log k) rounds and O(k log k) removals in total.
Result<SieveResult> SieveIntervals(SampleOracle& oracle,
                                   std::span<const double> dstar,
                                   const Partition& partition, size_t k,
                                   double eps, const SieveOptions& options,
                                   Rng& rng);

}  // namespace histest

#endif  // HISTEST_CORE_SIEVE_H_
