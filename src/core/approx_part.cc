#include "core/approx_part.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {

double ApproxPartSampleBudget(double b, const ApproxPartOptions& options) {
  return options.sample_constant * b * std::log2(b + 2.0);
}

Result<Partition> ApproxPartition(SampleOracle& oracle, double b,
                                  const ApproxPartOptions& options) {
  if (!(b > 0.0)) return Status::InvalidArgument("b must be positive");
  if (!(options.singleton_threshold > 0.0) ||
      !(options.close_threshold > 0.0)) {
    return Status::InvalidArgument("thresholds must be positive");
  }
  const size_t n = oracle.DomainSize();
  const int64_t m = CeilToCount(ApproxPartSampleBudget(b, options));
  const CountVector counts = oracle.DrawCounts(m);
  const double md = static_cast<double>(counts.total());
  const double singleton_cut = options.singleton_threshold / b;
  const double close_cut = options.close_threshold / b;

  // Greedy left-to-right sweep over the empirical distribution. Zero-count
  // elements can neither be singletons nor move the accumulating mass, so
  // only the non-zero entries are visited (O(#distinct) instead of O(n),
  // and sparse count vectors never densify); `run_begin` tracks the start
  // of the currently accumulating interval, which always resumes right
  // after the last emitted one. The emitted partition is identical to the
  // per-element sweep's.
  std::vector<Interval> intervals;
  size_t run_begin = 0;
  double open_mass = 0.0;
  counts.ForEachNonZero([&](size_t i, int64_t c) {
    const double emp = static_cast<double>(c) / md;
    if (emp >= singleton_cut) {
      if (i > run_begin) intervals.push_back(Interval{run_begin, i});
      intervals.push_back(Interval{i, i + 1});
      run_begin = i + 1;
      open_mass = 0.0;
      return;
    }
    open_mass += emp;
    if (open_mass >= close_cut) {
      intervals.push_back(Interval{run_begin, i + 1});
      run_begin = i + 1;
      open_mass = 0.0;
    }
  });
  if (run_begin < n) intervals.push_back(Interval{run_begin, n});
  return Partition::Create(n, std::move(intervals));
}

}  // namespace histest
