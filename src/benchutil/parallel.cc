#include "benchutil/parallel.h"

#include <atomic>
#include <utility>

#include "common/arena.h"
#include "common/rng.h"
#include "dist/sampler.h"
#include "obs/obs.h"
#include "obs/names.h"
#include "testing/oracle.h"

namespace histest {

Result<TrialStats> EstimateAcceptanceParallel(
    const SeededTesterFactory& factory, const Distribution& dist, int trials,
    uint64_t seed, int threads) {
  if (trials < 1) return Status::InvalidArgument("trials must be >= 1");
  // Precompute per-trial seeds sequentially for determinism.
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> seeds(
      static_cast<size_t>(trials));
  for (auto& s : seeds) {
    s.first = rng.Next();
    s.second = rng.Next();
  }
  // All trials share one immutable alias table; per-trial state is just the
  // seeded Rng stream inside each oracle.
  const auto sampler = std::make_shared<const AliasSampler>(dist);
  std::vector<int> accepted(static_cast<size_t>(trials), 0);
  std::vector<double> samples(static_cast<size_t>(trials), 0.0);
  std::vector<Status> statuses(static_cast<size_t>(trials), Status::Ok());
  // Lowest failing trial index seen so far (`trials` while none failed). A
  // trial is skipped only when a LOWER index has already failed, so the
  // lowest failing index always runs and records its status, under every
  // schedule: skipping on "any failure" could drop it when a later trial
  // happened to fail first.
  std::atomic<int64_t> first_failed{trials};
  const auto record_failure = [&](int64_t t, Status status) {
    statuses[t] = std::move(status);
    int64_t seen = first_failed.load(std::memory_order_relaxed);
    while (t < seen && !first_failed.compare_exchange_weak(
                           seen, t, std::memory_order_relaxed)) {
    }
  };
  ParallelFor(trials, threads, [&](int64_t t) {
    if (first_failed.load(std::memory_order_relaxed) < t) return;
    // Each trial is a span of its own: spans nest per thread, so a worker's
    // histogram_test subtree hangs under its trial regardless of which pool
    // thread ran it.
    obs::TraceSpan trial_span(obs::names::kSpanTrial);
    trial_span.AnnotateInt("index", t);
    // Trial-scoped arena window: scratch carved by the tester below is
    // reclaimed wholesale on scope exit, and the retained chunks make every
    // trial after this worker's first allocation-free on the scratch path.
    ScratchArena& arena = ScratchArena::ThreadLocal();
    const ScratchArena::Scope trial_scope(arena);
    DistributionOracle oracle(sampler, seeds[t].first);
    auto tester = factory(seeds[t].second);
    if (tester == nullptr) {
      record_failure(
          t, Status::InvalidArgument("factory returned a null tester"));
      return;
    }
    auto outcome = tester->Test(oracle);
    if (!outcome.ok()) {
      record_failure(t, outcome.status());
      return;
    }
    accepted[t] = outcome.value().verdict == Verdict::kAccept ? 1 : 0;
    samples[t] = static_cast<double>(outcome.value().samples_used);
    trial_span.AnnotateString(
        "verdict", VerdictToString(outcome.value().verdict));
    trial_span.AnnotateInt("samples_used", outcome.value().samples_used);
    obs::SetGauge(obs::names::kTrialArenaBytes,
                  static_cast<int64_t>(arena.bytes_reserved()));
    obs::AddCount(obs::names::kTrialsRun, 1);
  });
  // ParallelFor has joined every job, so the statuses are visible here.
  if (const int64_t t = first_failed.load(); t < trials) return statuses[t];
  TrialStats stats;
  stats.trials = trials;
  int accepts = 0;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    accepts += accepted[t];
    total += samples[t];
  }
  stats.accept_rate = static_cast<double>(accepts) / trials;
  stats.avg_samples = total / trials;
  return stats;
}

}  // namespace histest
