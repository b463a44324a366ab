#include "obs/metrics.h"
#include "obs/trace.h"

namespace histest {

void Emit(int n) {
  obs::AddCount("histest.fixture.calls", 1);
  obs::SetGauge("histest.fixture.queue_depth", n);
  obs::TraceSpan span("fixture_span");
  const char* smuggled = "histest.fixture.smuggled";
  obs::AddCount(smuggled, 1);  // flagged at the literal above, not here
}

}  // namespace histest
