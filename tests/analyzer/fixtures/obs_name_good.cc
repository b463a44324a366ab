#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace histest {

void Emit(int n) {
  obs::AddCount(obs::names::kTrialsRun, 1);
  obs::SetGauge(obs::names::kPoolWorkers, n);
  obs::TraceSpan span(obs::names::kSpanTrial);
}

}  // namespace histest
