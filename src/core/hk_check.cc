#include "core/hk_check.h"

#include "common/check.h"

namespace histest {

std::vector<Interval> ActiveSubdomain(const Partition& partition,
                                      const std::vector<bool>& active) {
  HISTEST_CHECK_EQ(partition.NumIntervals(), active.size());
  std::vector<Interval> kept;
  for (size_t j = 0; j < partition.NumIntervals(); ++j) {
    if (!active[j]) continue;
    const Interval& iv = partition.interval(j);
    if (!kept.empty() && kept.back().end == iv.begin) {
      kept.back().end = iv.end;
    } else {
      kept.push_back(iv);
    }
  }
  return kept;
}

Result<HkCheckResult> CheckCloseToHkOnSubdomain(
    const PiecewiseConstant& dhat, const Partition& partition,
    const std::vector<bool>& active, size_t k, double eps,
    const HkCheckOptions& options) {
  if (partition.NumIntervals() != active.size()) {
    return Status::InvalidArgument("partition/active size mismatch");
  }
  if (partition.domain_size() != dhat.domain_size()) {
    return Status::InvalidArgument("partition/dhat domain mismatch");
  }
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  const std::vector<Interval> kept = ActiveSubdomain(partition, active);
  if (kept.empty()) {
    // Everything was discarded: vacuously close.
    return HkCheckResult{true, DistanceBounds{0.0, 0.0}, HkBound::kGreedy};
  }
  return DecideRestrictedDistanceToHk(dhat, kept, k,
                                      options.threshold_fraction * eps);
}

}  // namespace histest
