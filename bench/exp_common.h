#ifndef HISTEST_BENCH_EXP_COMMON_H_
#define HISTEST_BENCH_EXP_COMMON_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchutil/parallel.h"
#include "benchutil/report.h"
#include "benchutil/sweep.h"
#include "benchutil/workloads.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/histogram_tester.h"
#include "obs/names.h"
#include "obs/obs.h"

namespace histest {
namespace bench {

/// The parsed command-line flags as manifest params (name -> raw value),
/// plus the experiment id — the per-run seeds/params block of RunManifest.
inline std::vector<std::pair<std::string, std::string>> ManifestParams(
    const ArgParser& args, const std::string& id) {
  std::vector<std::pair<std::string, std::string>> params;
  params.emplace_back("experiment_id", id);
  for (const auto& [name, value] : args.flags()) {
    params.emplace_back(name, value);
  }
  return params;
}

/// Builds the run-scoped trace guard every experiment binary shares:
/// --trace switches tracing on, --trace-out overrides the JSONL path
/// (default trace_<id>.jsonl), and HISTEST_TRACE=1 works without any flag.
/// The parsed flags are stamped into the trace's RunManifest as params.
///
/// --manifest short-circuits the run: the binary prints its RunManifest
/// (provenance + flags) as one JSON object on stdout and exits 0, so CI
/// and shoot-out scripts can capture "what exactly would this run be?"
/// without paying for the run.
inline std::unique_ptr<TraceRunGuard> MakeTraceGuard(const ArgParser& args,
                                                     const std::string& id) {
  if (args.GetBool("manifest", false)) {
    obs::RunManifest manifest = obs::CurrentRunManifest();
    for (auto& [key, value] : ManifestParams(args, id)) {
      manifest.AddParam(std::move(key), std::move(value));
    }
    std::fputs((manifest.ToJson() + "\n").c_str(), stdout);
    std::exit(0);
  }
  std::string file_id = id;
  for (char& c : file_id) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return std::make_unique<TraceRunGuard>(
      id, args.GetBool("trace", false),
      args.GetString("trace-out", "trace_" + file_id + ".jsonl"),
      ManifestParams(args, id));
}

/// Correctness + cost of a tester over a full workload grid: the minimum
/// per-instance correctness rate on each side, and the mean samples drawn.
struct GridStats {
  double min_accept_rate_in = 1.0;  // worst accept rate over in-class
  double min_reject_rate_far = 1.0; // worst reject rate over far
  double avg_samples = 0.0;
  size_t instances = 0;
};

/// Runs `trials` runs of the factory's tester on every instance of the
/// grid (trials run on DefaultBenchThreads() workers; results are
/// deterministic regardless) and aggregates correctness/cost.
inline GridStats RunGrid(const std::vector<WorkloadInstance>& grid,
                         const SeededTesterFactory& factory, int trials,
                         uint64_t seed) {
  // Times every experiment's grid sweep; inert unless tracing is on.
  obs::TraceSpan grid_span(obs::names::kSpanRunGrid);
  grid_span.AnnotateInt("instances", static_cast<int64_t>(grid.size()));
  grid_span.AnnotateInt("trials_per_instance", trials);
  GridStats stats;
  Rng rng(seed);
  double total_samples = 0.0;
  for (const auto& inst : grid) {
    auto trial_stats = EstimateAcceptanceParallel(
        factory, inst.dist, trials, rng.Next(), DefaultBenchThreads());
    HISTEST_CHECK_OK(trial_stats);
    total_samples += trial_stats.value().avg_samples;
    if (inst.side == InstanceSide::kInClass) {
      stats.min_accept_rate_in =
          std::min(stats.min_accept_rate_in, trial_stats.value().accept_rate);
    } else {
      stats.min_reject_rate_far =
          std::min(stats.min_reject_rate_far,
                   1.0 - trial_stats.value().accept_rate);
    }
    ++stats.instances;
  }
  stats.avg_samples = total_samples / static_cast<double>(stats.instances);
  return stats;
}

/// Factory for the paper's Algorithm 1 at a given budget scale.
inline ScaledTesterFactory OursScaledFactory(size_t k, double eps) {
  return [k, eps](double scale, uint64_t seed) {
    HistogramTesterOptions options;
    options.sample_scale = scale;
    return std::make_unique<HistogramTester>(k, eps, options, seed);
  };
}

}  // namespace bench
}  // namespace histest

#endif  // HISTEST_BENCH_EXP_COMMON_H_
