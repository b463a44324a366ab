#include "core/learner.h"

#include "common/check.h"
#include "common/math_util.h"

namespace histest {

double LearnerSampleBudget(double intervals, double eps,
                           const LearnerOptions& options) {
  return options.sample_constant * intervals / (eps * eps);
}

Result<PiecewiseConstant> LearnHistogramChiSquare(
    SampleOracle& oracle, const Partition& partition, double eps,
    const LearnerOptions& options) {
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (oracle.DomainSize() != partition.domain_size()) {
    return Status::InvalidArgument("oracle/partition domain mismatch");
  }
  const size_t big_k = partition.NumIntervals();
  const int64_t m = CeilToCount(
      LearnerSampleBudget(static_cast<double>(big_k), eps, options));
  const CountVector counts = oracle.DrawCounts(m);
  const std::vector<int64_t> interval_counts = counts.IntervalCounts(partition);
  const double denom = static_cast<double>(m) + static_cast<double>(big_k);
  std::vector<double> masses(big_k);
  for (size_t j = 0; j < big_k; ++j) {
    masses[j] = (static_cast<double>(interval_counts[j]) + 1.0) / denom;
  }
  return PiecewiseConstant::FromPartitionMasses(partition, masses);
}

}  // namespace histest
