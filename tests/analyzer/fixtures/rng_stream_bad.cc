// Fixture: every rng-stream violation family (six findings).
#include <random>  // finding: <random> include

#include "common/thread_pool.h"
#include "common/rng.h"

namespace histest {

unsigned BadStdEngine() {
  std::mt19937 gen(42);  // finding: std engine
  return gen();
}

uint64_t BadTimeSeed() {
  return static_cast<uint64_t>(time(nullptr));  // finding: wall-clock seed
}

void BadSharedDraw(Rng& rng, ThreadPool& pool) {
  ParallelFor(pool, 0, 8, [&](size_t i) {
    double x = rng.UniformDouble();  // finding: shared draw in parallel lambda
    (void)x;
    (void)i;
  });
}

void BadSharedDrawInRun(Rng& rng, ThreadPool& pool) {
  pool.Run(8, 2, [&](int64_t i) {
    const uint64_t s = rng.Next();  // finding: shared draw in pool.Run lambda
    (void)s;
    (void)i;
  });
}

void BadTaintedDraw(Rng& rng, int num_threads) {
  if (num_threads > 1) {
    uint64_t s = rng.Next();  // finding: draw guarded by thread topology
    (void)s;
  }
}

}  // namespace histest
