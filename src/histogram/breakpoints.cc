#include "histogram/breakpoints.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {

std::vector<size_t> BreakpointsOf(const std::vector<double>& values) {
  std::vector<size_t> breaks;
  for (size_t i = 1; i < values.size(); ++i) {
    if (!ExactlyEqual(values[i - 1], values[i])) breaks.push_back(i);
  }
  return breaks;
}

size_t MinPiecesOf(const std::vector<double>& values) {
  HISTEST_CHECK(!values.empty());
  return BreakpointsOf(values).size() + 1;
}

bool IsKHistogramDense(const std::vector<double>& values, size_t k) {
  return MinPiecesOf(values) <= k;
}

std::vector<size_t> BreakpointIntervalsOf(const PiecewiseConstant& d,
                                          const Partition& partition) {
  HISTEST_CHECK_EQ(d.domain_size(), partition.domain_size());
  std::vector<size_t> result;
  const PiecewiseConstant simplified = d.Simplified();
  for (size_t p = 1; p < simplified.NumPieces(); ++p) {
    // A new piece of d starts at `cut`; the interval containing cut-1 and
    // cut is a breakpoint interval iff the cut is strictly inside it.
    const size_t cut = simplified.pieces()[p].interval.begin;
    const size_t j = partition.IntervalOf(cut);
    if (partition.interval(j).begin < cut) {
      if (result.empty() || result.back() != j) result.push_back(j);
    }
  }
  return result;
}

}  // namespace histest
