// Fixture: timing through the obs layer — zero findings.
#include "benchutil/report.h"
#include "obs/obs.h"

namespace histest {

double GoodElapsedSeconds(const obs::Clock& clock) {
  const int64_t start = clock.NowNanos();
  return static_cast<double>(clock.NowNanos() - start) * 1e-9;
}

int64_t GoodInjectedClock(const obs::Clock& clock) {
  return clock.NowNanos();  // parameter named clock: injected, fine
}

struct Session {
  int64_t now(int64_t x) const { return x; }
};

int64_t GoodMemberNow(const Session& s) {
  return s.now(7);  // member now(): not a chrono clock
}

}  // namespace histest
