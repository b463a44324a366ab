#ifndef HISTEST_BENCHUTIL_REPORT_H_
#define HISTEST_BENCHUTIL_REPORT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "obs/obs.h"

namespace histest {

/// Prints the fixed experiment banner the harness binaries share, so
/// EXPERIMENTS.md rows can be regenerated by grepping bench output.
void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& reproduces);

/// Prints a result table (text form) followed by a blank line.
void PrintResultTable(const Table& table);

/// Prints a one-line note (prefixed "note: ").
void PrintNote(const std::string& note);

/// Run-scoped observability for an experiment binary: the one piece of
/// trace/provenance plumbing every harness shares instead of hand-rolling.
///
/// When `enable` is true — or the HISTEST_TRACE environment switch is set —
/// the guard turns the obs layer on, opens a TraceSession named `id` on the
/// monotonic clock, stamps the session with the RunManifest (provenance +
/// the harness-supplied `params`, typically the parsed command-line flags),
/// and installs it as the active trace. On destruction it snapshots the
/// metrics registry, writes the session (manifest + spans + metrics) as
/// JSONL to `out_path` for tools/histest-trace, reports the file on stderr
/// (stdout stays byte-identical to an untraced run), and restores the
/// previous obs state.
///
/// Independent of tracing, the guard also initializes the flight recorder
/// from HISTEST_FLIGHT_RECORDER (dumping its rings on destruction so CI
/// runs leave a post-mortem artifact even without a crash).
class TraceRunGuard {
 public:
  TraceRunGuard(const std::string& id, bool enable,
                const std::string& out_path,
                std::vector<std::pair<std::string, std::string>> params = {});
  ~TraceRunGuard();

  TraceRunGuard(const TraceRunGuard&) = delete;
  TraceRunGuard& operator=(const TraceRunGuard&) = delete;

  bool enabled() const { return session_ != nullptr; }

 private:
  std::string out_path_;
  bool was_enabled_ = false;
  std::unique_ptr<obs::TraceSession> session_;
  std::unique_ptr<obs::ScopedTraceActivation> activation_;
};

}  // namespace histest

#endif  // HISTEST_BENCHUTIL_REPORT_H_
