#include "histogram/model_select.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "histogram/fit_merge.h"

namespace histest {
namespace {

/// One amplified probe: majority of `repetitions` independent tester runs.
Result<bool> ProbeK(SampleOracle& oracle, const HistogramTesterFactory& factory,
                    size_t k, int repetitions, Rng& rng) {
  int reps = std::max(repetitions, 1);
  if (reps % 2 == 0) ++reps;
  int accepts = 0;
  for (int r = 0; r < reps; ++r) {
    auto tester = factory(k, rng.Next());
    HISTEST_CHECK(tester != nullptr);
    auto outcome = tester->Test(oracle);
    HISTEST_RETURN_IF_ERROR(outcome.status());
    if (outcome.value().verdict == Verdict::kAccept) ++accepts;
  }
  return accepts * 2 > reps;
}

}  // namespace

Result<ModelSelectResult> FindSmallestAcceptedK(
    SampleOracle& oracle, const HistogramTesterFactory& factory,
    const ModelSelectOptions& options, uint64_t seed) {
  Rng rng(seed);
  const size_t max_k =
      options.max_k == 0 ? oracle.DomainSize() : options.max_k;
  if (max_k == 0) return Status::InvalidArgument("max_k must be positive");
  ModelSelectResult result;
  const int64_t drawn_before = oracle.SamplesDrawn();

  // Doubling phase.
  size_t hi = 1;
  size_t last_rejected = 0;
  bool found = false;
  while (true) {
    auto probe = ProbeK(oracle, factory, hi, options.repetitions, rng);
    HISTEST_RETURN_IF_ERROR(probe.status());
    result.probes.emplace_back(hi, probe.value());
    if (probe.value()) {
      found = true;
      break;
    }
    last_rejected = hi;
    if (hi >= max_k) break;
    hi = std::min(hi * 2, max_k);
  }
  if (!found) {
    result.k = max_k;
    result.samples_used = oracle.SamplesDrawn() - drawn_before;
    return result;
  }

  // Binary search for the smallest accepted k in (last_rejected, hi].
  size_t lo = last_rejected + 1;
  size_t best = hi;
  while (lo < best) {
    const size_t mid = lo + (best - lo) / 2;
    auto probe = ProbeK(oracle, factory, mid, options.repetitions, rng);
    HISTEST_RETURN_IF_ERROR(probe.status());
    result.probes.emplace_back(mid, probe.value());
    if (probe.value()) {
      best = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.k = best;
  result.samples_used = oracle.SamplesDrawn() - drawn_before;
  return result;
}

Result<PiecewiseConstant> LearnKHistogramFromOracle(SampleOracle& oracle,
                                                    size_t k, double eps,
                                                    double sample_constant) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  const int64_t m = CeilToCount(sample_constant * static_cast<double>(k) /
                                (eps * eps));
  const CountVector counts = oracle.DrawCounts(m);
  return LearnMergedHistogram(counts, std::min(k, oracle.DomainSize()));
}

}  // namespace histest
