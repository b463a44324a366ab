#include "obs/clock.h"

#include <chrono>

namespace histest {
namespace obs {

const NullClock* NullClock::Get() {
  static const NullClock clock;
  return &clock;
}

int64_t MonotonicClock::NowNanos() const {
  // analyzer-allow(rng-stream): the obs layer's monotonic timing source;
  // readings are observability-only and are never used as seed material.
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

const MonotonicClock* MonotonicClock::Get() {
  static const MonotonicClock clock;
  return &clock;
}

}  // namespace obs
}  // namespace histest
