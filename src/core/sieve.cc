#include "core/sieve.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"
#include "obs/obs.h"
#include "obs/names.h"
#include "stats/poissonization.h"

namespace histest {
namespace {

/// Number of A_eps elements in each interval, counted once per sieve (in
/// an integer: a chain of double adds costs about 3x as much at n = 2^18).
std::vector<double> AepsCounts(std::span<const double> dstar,
                               const Partition& partition, double eps,
                               const ZStatOptions& zstat) {
  const double cut = zstat.aeps_factor * eps / static_cast<double>(dstar.size());
  std::vector<double> counts(partition.NumIntervals());
  for (size_t j = 0; j < partition.NumIntervals(); ++j) {
    const Interval& iv = partition.interval(j);
    size_t members = 0;
    for (size_t i = iv.begin; i < iv.end; ++i) {
      members += dstar[i] >= cut ? 1 : 0;
    }
    counts[j] = static_cast<double>(members);
  }
  return counts;
}

/// Number of A_eps elements inside active intervals: the null variance of
/// the total Z statistic is twice this count. The sum of integers held in
/// doubles is exact, so it does not depend on how the count is grouped.
double ActiveAepsCount(const std::vector<double>& aeps_counts,
                       const std::vector<bool>& active) {
  double count = 0.0;
  for (size_t j = 0; j < aeps_counts.size(); ++j) {
    if (active[j]) count += aeps_counts[j];
  }
  return count;
}

}  // namespace

double SieveSampleBudget(size_t n, double eps, const SieveOptions& options) {
  return options.sample_constant * std::sqrt(static_cast<double>(n)) /
         (eps * eps);
}

Result<SieveResult> SieveIntervals(SampleOracle& oracle,
                                   std::span<const double> dstar,
                                   const Partition& partition, size_t k,
                                   double eps, const SieveOptions& options,
                                   Rng& rng) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (oracle.DomainSize() != dstar.size() ||
      partition.domain_size() != dstar.size()) {
    return Status::InvalidArgument("oracle/dstar/partition size mismatch");
  }
  const size_t big_k = partition.NumIntervals();
  const double m = SieveSampleBudget(dstar.size(), eps, options);
  const double eps_final = options.final_eps_fraction * eps;
  const double big_t =
      options.final_accept_threshold * m * eps_final * eps_final;

  const int log_k = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(k) + 1.0)));
  int heavy_reps = options.heavy_repetitions;
  if (heavy_reps <= 0) heavy_reps = std::min(2 * log_k + 1, 7);
  int max_rounds = options.max_rounds;
  if (max_rounds <= 0) max_rounds = std::max(log_k, 1);

  SieveResult result;
  result.active.assign(big_k, true);
  const int64_t drawn_before = oracle.SamplesDrawn();

  // Candidate / survivor accounting, recorded at both exit paths.
  const auto record_counts = [&]() {
    if (!obs::Enabled()) return;
    int64_t survivors = 0;
    for (size_t j = 0; j < big_k; ++j) {
      if (result.active[j]) ++survivors;
    }
    obs::AddCount(obs::names::kSieveCandidates, static_cast<int64_t>(big_k));
    obs::AddCount(obs::names::kSieveSurvivors, survivors);
    obs::AddCount(obs::names::kSieveRemovedHeavy,
                  static_cast<int64_t>(result.removed_heavy));
    obs::AddCount(obs::names::kSieveRemovedIterative,
                  static_cast<int64_t>(result.removed_iterative));
    obs::AddCount(obs::names::kSieveRounds,
                  static_cast<int64_t>(result.rounds_used));
  };

  // The A_eps truncation must match the downstream test's (which runs at
  // eps'): otherwise light breakpoint intervals that the final statistic
  // scores would be invisible to the sieve.
  auto one_z_pass = [&]() -> Result<ZStatResult> {
    const int64_t actual = PoissonizedSampleCount(m, rng);
    const CountVector counts = oracle.DrawCounts(actual);
    return ComputeZStatistics(counts, m, dstar, partition, eps_final,
                              options.zstat, &result.active);
  };

  // --- Stage 1: discard individually heavy intervals (median of
  // repetitions, so a fluke pass cannot doom a good interval). ---
  std::vector<std::vector<double>> reps(static_cast<size_t>(heavy_reps));
  for (auto& rep : reps) {
    auto z = one_z_pass();
    HISTEST_RETURN_IF_ERROR(z.status());
    rep = std::move(z.value().z);
  }
  const double heavy_cut = options.heavy_fraction * big_t;
  for (size_t j = 0; j < big_k; ++j) {
    if (partition.interval(j).size() < 2) continue;  // singletons immune
    std::vector<double> zj(reps.size());
    for (size_t r = 0; r < reps.size(); ++r) zj[r] = reps[r][j];
    if (MedianOf(std::move(zj)) > heavy_cut) {
      result.active[j] = false;
      ++result.removed_heavy;
    }
  }
  if (result.removed_heavy > k) {
    result.rejected = true;
    result.samples_used = oracle.SamplesDrawn() - drawn_before;
    std::ostringstream detail;
    detail << "sieve: " << result.removed_heavy
           << " individually heavy intervals (> k = " << k << ")";
    result.detail = detail.str();
    record_counts();
    return result;
  }

  // --- Stage 2: iterative removal of the largest statistics. ---
  const std::vector<double> aeps_counts =
      AepsCounts(dstar, partition, eps_final, options.zstat);
  const size_t removal_budget =
      k * static_cast<size_t>(std::max(max_rounds, 1));
  for (int round = 0; round < max_rounds; ++round) {
    ++result.rounds_used;
    auto z = one_z_pass();
    HISTEST_RETURN_IF_ERROR(z.status());
    const double sigma =
        std::sqrt(2.0 * ActiveAepsCount(aeps_counts, result.active));
    const double noise = options.noise_sigmas * sigma;
    if (z.value().total <= options.stop_fraction * big_t + noise) break;
    // Sort removable intervals by decreasing statistic.
    std::vector<size_t> order;
    for (size_t j = 0; j < big_k; ++j) {
      if (result.active[j] && partition.interval(j).size() >= 2) {
        order.push_back(j);
      }
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return z.value().z[a] > z.value().z[b];
    });
    double remaining = z.value().total;
    size_t removed_this_round = 0;
    const double target = options.target_fraction * big_t + noise;
    for (size_t j : order) {
      if (remaining <= target || removed_this_round >= k) break;
      if (z.value().z[j] <= 0.0) break;  // nothing damning left to remove
      result.active[j] = false;
      // analyzer-allow(raw-accumulate): greedy removal loop; the early-exit
      // condition reads the running value after every step, so the
      // sequential order is the algorithm, not a reduction.
      remaining -= z.value().z[j];
      ++removed_this_round;
      ++result.removed_iterative;
    }
    if (result.removed_iterative > removal_budget) {
      result.rejected = true;
      break;
    }
  }

  result.samples_used = oracle.SamplesDrawn() - drawn_before;
  std::ostringstream detail;
  detail << "sieve: removed_heavy=" << result.removed_heavy
         << " removed_iterative=" << result.removed_iterative
         << " rounds=" << result.rounds_used << " T=" << big_t
         << (result.rejected ? " -> reject (removal budget exhausted)" : "");
  result.detail = detail.str();
  record_counts();
  return result;
}

}  // namespace histest
