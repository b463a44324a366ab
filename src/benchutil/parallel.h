#ifndef HISTEST_BENCHUTIL_PARALLEL_H_
#define HISTEST_BENCHUTIL_PARALLEL_H_

#include <cstdint>

#include "benchutil/sweep.h"
#include "common/thread_pool.h"  // IWYU pragma: export

namespace histest {

/// Parallel version of EstimateAcceptance: trial seeds are precomputed
/// sequentially from `seed` and all trials share one immutable sampler
/// table, so the result is bit-identical to the serial version regardless
/// of scheduling or thread count.
Result<TrialStats> EstimateAcceptanceParallel(
    const SeededTesterFactory& factory, const Distribution& dist, int trials,
    uint64_t seed, int threads);

}  // namespace histest

#endif  // HISTEST_BENCHUTIL_PARALLEL_H_
