#include "testing/identity_adk.h"

#include <cmath>
#include <sstream>

#include "stats/poissonization.h"

namespace histest {

Result<TestOutcome> AdkRestrictedIdentityTest(
    SampleOracle& oracle, std::span<const double> dstar,
    const Partition& partition, const std::vector<bool>& active_intervals,
    double eps, double m, const AdkOptions& options, Rng& rng) {
  if (oracle.DomainSize() != dstar.size()) {
    return Status::InvalidArgument("oracle/dstar domain mismatch");
  }
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (!(m > 0.0)) return Status::InvalidArgument("m must be positive");
  const int64_t drawn_before = oracle.SamplesDrawn();
  const int64_t actual = PoissonizedSampleCount(m, rng);
  const CountVector counts = oracle.DrawCounts(actual);
  auto z = ComputeZStatistics(counts, m, dstar, partition, eps, options.zstat,
                              &active_intervals);
  HISTEST_RETURN_IF_ERROR(z.status());
  // Null fluctuation of Z: sd = sqrt(2 * #active A_eps elements).
  const double aeps_cut =
      options.zstat.aeps_factor * eps / static_cast<double>(dstar.size());
  double active_aeps = 0.0;
  for (size_t j = 0; j < partition.NumIntervals(); ++j) {
    if (!active_intervals[j]) continue;
    const Interval& iv = partition.interval(j);
    for (size_t i = iv.begin; i < iv.end; ++i) {
      if (dstar[i] >= aeps_cut) active_aeps += 1.0;
    }
  }
  const double threshold = options.accept_threshold * m * eps * eps +
                           options.noise_sigmas * std::sqrt(2.0 * active_aeps);
  TestOutcome outcome;
  outcome.verdict =
      z.value().total <= threshold ? Verdict::kAccept : Verdict::kReject;
  outcome.samples_used = oracle.SamplesDrawn() - drawn_before;
  std::ostringstream detail;
  detail << "Z=" << z.value().total << " threshold=" << threshold
         << " m=" << m;
  outcome.detail = detail.str();
  return outcome;
}

AdkIdentityTester::AdkIdentityTester(Distribution dstar, double eps,
                                     AdkOptions options, uint64_t seed)
    : dstar_(std::move(dstar)), eps_(eps), options_(options), rng_(seed) {}

Result<TestOutcome> AdkIdentityTester::Test(SampleOracle& oracle) {
  const size_t n = dstar_.size();
  if (oracle.DomainSize() != n) {
    return Status::InvalidArgument("oracle domain does not match reference");
  }
  const double m = options_.sample_constant *
                   std::sqrt(static_cast<double>(n)) / (eps_ * eps_);
  const Partition trivial = Partition::Trivial(n);
  const std::vector<bool> active(1, true);
  return AdkRestrictedIdentityTest(oracle, dstar_.pmf(), trivial, active,
                                   eps_, m, options_, rng_);
}

}  // namespace histest
