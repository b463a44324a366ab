#include "benchutil/report.h"

#include <cstdio>
#include <utility>

#include "common/cli.h"

namespace histest {

void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& reproduces) {
  std::printf("=== %s: %s ===\n", id.c_str(), title.c_str());
  std::printf("reproduces: %s\n\n", reproduces.c_str());
  std::fflush(stdout);
}

void PrintResultTable(const Table& table) {
  std::fputs(table.ToText().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fflush(stdout);
}

void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
  std::fflush(stdout);
}

TraceRunGuard::TraceRunGuard(
    const std::string& id, bool enable, const std::string& out_path,
    std::vector<std::pair<std::string, std::string>> params)
    : out_path_(out_path), was_enabled_(obs::Enabled()) {
  // Post-mortem plumbing runs independently of tracing: the recorder has
  // its own env gate, so a run can keep it on with span collection off.
  obs::FlightRecorder::InitFromEnv();
  const bool env_enable = obs::InitFromEnv();
  if (!enable && !env_enable && !was_enabled_) return;
  obs::SetEnabled(true);
  session_ = std::make_unique<obs::TraceSession>(
      id, obs::MonotonicClock::Get());
  obs::RunManifest manifest = obs::CurrentRunManifest();
  manifest.AddParam("experiment", id);
  for (auto& [key, value] : params) {
    manifest.AddParam(std::move(key), std::move(value));
  }
  session_->SetManifestJson(manifest.ToJson());
  activation_ =
      std::make_unique<obs::ScopedTraceActivation>(session_.get());
}

TraceRunGuard::~TraceRunGuard() {
  if (obs::FlightRecorder::Enabled()) {
    const EnvValue<std::string> dump_path = ParseEnvString(
        "HISTEST_FLIGHT_RECORDER_OUT", "histest_flight_recorder.jsonl");
    const Status dump_status =
        obs::FlightRecorder::DumpNow(dump_path.value, "run_guard_exit");
    if (dump_status.ok()) {
      std::fprintf(stderr, "histest: flight recorder: dumped to %s\n",
                   dump_path.value.c_str());
    } else {
      std::fprintf(stderr, "histest: flight recorder: %s\n",
                   dump_status.ToString().c_str());
    }
  }
  if (session_ == nullptr) return;
  activation_.reset();  // deactivate before the session is torn down
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Global().Snapshot();
  const Status status = session_->WriteJsonlFile(out_path_, &metrics);
  if (status.ok()) {
    std::fprintf(stderr, "histest: trace: wrote %zu spans to %s\n",
                 session_->NumSpans(), out_path_.c_str());
  } else {
    std::fprintf(stderr, "histest: trace: %s\n",
                 status.ToString().c_str());
  }
  obs::SetEnabled(was_enabled_);
}

}  // namespace histest
