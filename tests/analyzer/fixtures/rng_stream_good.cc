// Fixture: schedule-independent randomness — zero findings.
#include <vector>

#include "common/thread_pool.h"
#include "common/rng.h"

namespace histest {

void GoodPerTaskSeeds(Rng& rng, ThreadPool& pool) {
  std::vector<uint64_t> seeds(8);
  for (auto& s : seeds) s = rng.Next();  // sequential draws: fine
  ParallelFor(pool, 0, 8, [&seeds](size_t i) {
    Rng local(seeds[i]);  // per-task generator built inside the task
    double x = local.UniformDouble();
    (void)x;
  });
}

uint64_t GoodExplicitSeed(uint64_t seed) {
  Rng rng(seed);  // explicit seed threaded in by the caller
  return rng.Next();
}

}  // namespace histest
