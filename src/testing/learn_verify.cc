#include "testing/learn_verify.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"
#include "dist/piecewise.h"
#include "histogram/distance_to_hk.h"
#include "histogram/fit_merge.h"
#include "stats/poissonization.h"
#include "stats/zstat.h"

namespace histest {
namespace {

/// Splits each hypothesis piece into sub-intervals of roughly equal
/// hypothesis mass (at most `target_mass` each, except that no interval is
/// split below one element).
Partition RefinePieces(const PiecewiseConstant& dhat, double target_mass) {
  std::vector<size_t> ends;
  for (const auto& piece : dhat.pieces()) {
    const double piece_mass =
        piece.value * static_cast<double>(piece.interval.size());
    size_t chunks = 1;
    if (target_mass > 0.0 && piece_mass > target_mass) {
      chunks = static_cast<size_t>(std::ceil(piece_mass / target_mass));
    }
    chunks = std::min(chunks, piece.interval.size());
    const size_t len = piece.interval.size();
    for (size_t c = 1; c <= chunks; ++c) {
      ends.push_back(piece.interval.begin + len * c / chunks);
    }
  }
  auto partition = Partition::FromEndpoints(dhat.domain_size(), std::move(ends));
  HISTEST_CHECK_OK(partition);
  return std::move(partition).value();
}

}  // namespace

Status ValidateBaselineParameters(size_t k, double eps,
                                  double budget_scale) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (!(budget_scale > 0.0) || !std::isfinite(budget_scale)) {
    return Status::InvalidArgument("budget_scale must be positive and finite");
  }
  return Status::Ok();
}

Result<TestOutcome> LearnThenVerifyHistogramTest(SampleOracle& oracle,
                                                 size_t k, double eps,
                                                 int64_t budget,
                                                 const LearnVerifyOptions& options,
                                                 Rng& rng) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (budget < 4) return Status::InvalidArgument("budget must be >= 4");
  const size_t n = oracle.DomainSize();
  if (k > n) return Status::InvalidArgument("k must be <= n");
  const int64_t drawn_before = oracle.SamplesDrawn();

  // Stage 1: learn a 2k-piece hypothesis.
  const int64_t learn_cap = CeilToCount(
      options.learn_constant * static_cast<double>(k) / (eps * eps * eps));
  const int64_t m_learn = std::min(3 * budget / 5, learn_cap);
  const CountVector learn_counts = oracle.DrawCounts(m_learn);
  auto dhat = LearnMergedHistogram(learn_counts, std::min(2 * k, n));
  HISTEST_RETURN_IF_ERROR(dhat.status());

  // Stage 2: offline distance check of the hypothesis.
  auto dhat_dist = dhat.value().ToDistribution();
  HISTEST_RETURN_IF_ERROR(dhat_dist.status());
  auto offline = DistanceToHk(dhat_dist.value(), k);
  HISTEST_RETURN_IF_ERROR(offline.status());
  TestOutcome outcome;
  if (offline.value().lower > options.offline_threshold * eps) {
    outcome.verdict = Verdict::kReject;
    outcome.samples_used = oracle.SamplesDrawn() - drawn_before;
    std::ostringstream detail;
    detail << "offline: dist(Dhat,Hk) >= " << offline.value().lower
           << " > " << options.offline_threshold * eps;
    outcome.detail = detail.str();
    return outcome;
  }

  // Stage 3: chi-square verification on the refined partition.
  const double target_mass =
      options.refine_mass_factor * eps / static_cast<double>(k);
  const Partition refined = RefinePieces(dhat.value(), target_mass);
  const std::vector<double> dstar = dhat.value().ToDense();
  const double m_verify = static_cast<double>(budget - m_learn);
  const int64_t actual = PoissonizedSampleCount(m_verify, rng);
  const CountVector counts = oracle.DrawCounts(actual);
  auto z = ComputeZStatistics(counts, m_verify, dstar, refined, eps,
                              options.adk.zstat);
  HISTEST_RETURN_IF_ERROR(z.status());

  // Exempt up to k-1 light, non-singleton intervals with the largest Z.
  const double draw_total =
      std::max<double>(1.0, static_cast<double>(counts.total()));
  const double mass_cap = options.exempt_mass_factor * target_mass;
  std::vector<size_t> eligible;
  for (size_t j = 0; j < refined.NumIntervals(); ++j) {
    if (refined.interval(j).size() < 2) continue;
    const double emp_mass =
        static_cast<double>(counts.IntervalCount(refined.interval(j))) /
        draw_total;
    if (emp_mass <= mass_cap) eligible.push_back(j);
  }
  std::sort(eligible.begin(), eligible.end(), [&](size_t a, size_t b) {
    return z.value().z[a] > z.value().z[b];
  });
  KahanSum exempted;
  const size_t exempt_count = std::min(eligible.size(), k - 1);
  for (size_t e = 0; e < exempt_count; ++e) {
    exempted.Add(z.value().z[eligible[e]]);
  }
  const double z_rest = z.value().total - exempted.Total();
  // Same finite-m null-noise allowance as the ADK tester: sd(Z) =
  // sqrt(2 |A_eps|) even under a perfect hypothesis.
  const double threshold =
      options.adk.accept_threshold * m_verify * eps * eps +
      options.adk.noise_sigmas * std::sqrt(2.0 * static_cast<double>(n));
  outcome.verdict = z_rest <= threshold ? Verdict::kAccept : Verdict::kReject;
  outcome.samples_used = oracle.SamplesDrawn() - drawn_before;
  std::ostringstream detail;
  detail << "verify: Z_rest=" << z_rest << " threshold=" << threshold
         << " exempted=" << exempt_count << " K'=" << refined.NumIntervals()
         << " m_learn=" << m_learn << " m_verify=" << m_verify;
  outcome.detail = detail.str();
  return outcome;
}

}  // namespace histest
