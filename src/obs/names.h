#ifndef HISTEST_OBS_NAMES_H_
#define HISTEST_OBS_NAMES_H_

/// Single source of truth for every counter, gauge, and trace-span name the
/// library emits.
///
/// Instrumentation call sites (obs::AddCount / SetGauge and the TraceSpan
/// constructor) must use the constants defined
/// here — the analyzer's obs-name-discipline row bans free-form string
/// literals at those sites, so a typo can no longer fork a counter into two
/// names that tooling silently treats as different metrics.
///
/// The X-macro list below is machine-readable: tools/obs_registry.py parses
/// this header and feeds tools/trace_gate.py (unknown-name CI gate),
/// tools/histest-trace (advisory name validation), and
/// tools/gen_design_tables.py (the generated DESIGN.md table, kept in
/// sync by a ctest). Edit names HERE and nowhere else.
///
/// Entry format: X(ident, "name", kind, "description") where kind is one of
/// counter | gauge | span.

// clang-format off
#define HISTEST_OBS_NAMES(X)                                                   \
  /* ---- thread pool (src/common/thread_pool.cc) ---- */                      \
  X(kPoolRuns, "histest.pool.runs", counter,                                   \
    "ThreadPool::Run invocations")                                             \
  X(kPoolJobs, "histest.pool.jobs", counter,                                   \
    "jobs submitted across all ThreadPool::Run calls")                         \
  X(kPoolQueueDepth, "histest.pool.queue_depth", gauge,                        \
    "tasks currently queued on the shared pool")                               \
  X(kPoolWorkers, "histest.pool.workers", gauge,                               \
    "worker threads in the shared pool")                                       \
  /* ---- trial harness (src/benchutil/parallel.cc) ---- */                    \
  X(kTrialsRun, "histest.trials.run", counter,                                 \
    "completed acceptance-estimation trials")                                  \
  X(kTrialArenaBytes, "histest.trial.arena_bytes", gauge,                      \
    "scratch-arena high-water mark of the reporting thread")                   \
  /* ---- tester pipeline (src/core/histogram_tester.cc) ---- */               \
  X(kTesterRuns, "histest.tester.runs", counter,                               \
    "RunAlgorithm1 completions (HistogramTester and KModalTester)")            \
  X(kStageApproxPartSamplesDrawn,                                              \
    "histest.stage.approx_part.samples_drawn", counter,                        \
    "oracle samples drawn by the ApproxPart stage")                            \
  X(kStageLearnerSamplesDrawn, "histest.stage.learner.samples_drawn",          \
    counter, "oracle samples drawn by the chi-square learner stage")           \
  X(kStageSieveSamplesDrawn, "histest.stage.sieve.samples_drawn", counter,     \
    "oracle samples drawn by the sieve stage")                                 \
  X(kStageFinalSamplesDrawn, "histest.stage.final.samples_drawn", counter,     \
    "oracle samples drawn by the final ADK identity test")                     \
  /* ---- sieve funnel (src/core/sieve.cc) ---- */                             \
  X(kSieveCandidates, "histest.sieve.candidates", counter,                     \
    "breakpoint intervals entering the sieve")                                 \
  X(kSieveSurvivors, "histest.sieve.survivors", counter,                       \
    "intervals still active when the sieve returned")                          \
  X(kSieveRemovedHeavy, "histest.sieve.removed_heavy", counter,                \
    "intervals removed by the heavy-prefix pass")                              \
  X(kSieveRemovedIterative, "histest.sieve.removed_iterative", counter,        \
    "intervals removed by iterative sieve rounds")                             \
  X(kSieveRounds, "histest.sieve.rounds", counter,                             \
    "iterative sieve rounds executed")                                         \
  /* ---- sample oracle (src/testing/oracle.cc) ---- */                        \
  X(kOracleBatchSamples, "histest.oracle.batch_samples", counter,              \
    "samples drawn through DrawBatch")                                         \
  X(kOracleBatches, "histest.oracle.batches", counter,                         \
    "DrawBatch invocations")                                                   \
  X(kOracleCountsSamples, "histest.oracle.counts_samples", counter,            \
    "samples drawn through DrawCounts")                                        \
  X(kOracleCountsSparse, "histest.oracle.counts_sparse", counter,              \
    "DrawCounts calls that produced a sparse CountVector")                     \
  X(kOracleCountsDense, "histest.oracle.counts_dense", counter,                \
    "dense DrawCounts calls (drawn at the count level on alias tables)")       \
  /* ---- fit DP cost probes (src/histogram/fit_dp.cc) ---- */                 \
  /* No longer emitted; the next benchmark change drops it (bench/e2e). */     \
  X(kFitDpL1ReferenceCostProbes,                                               \
    "histest.fit_dp.l1.reference.cost_probes", counter,                        \
    "no longer emitted: the reference L1 fit DP moved to tests/")              \
  X(kFitDpL1FastCostProbes, "histest.fit_dp.l1.fast.cost_probes", counter,     \
    "rank-tree cost probes in the L1 fit DP")                                  \
  X(kFitDpL1FastCalls, "histest.fit_dp.l1.fast.calls", counter,                \
    "FitAtomsL1 invocations")                                                  \
  /* ---- kernel entry points (src/common/kernels.cc) ---- */                  \
  X(kKernelL1DistanceCalls, "histest.kernel.l1_distance.calls", counter,       \
    "L1Distance calls")                                                        \
  X(kKernelL2DistanceSqCalls, "histest.kernel.l2_distance_sq.calls",           \
    counter, "L2DistanceSquared calls")                                        \
  X(kKernelSumCalls, "histest.kernel.sum.calls", counter,                      \
    "SumOf calls")                                                             \
  X(kKernelSumSquaresCalls, "histest.kernel.sum_squares.calls", counter,       \
    "SumOfSquares calls")                                                      \
  X(kKernelHellingerCalls, "histest.kernel.hellinger.calls", counter,          \
    "HellingerAffinity calls")                                                 \
  X(kKernelChiSquareCalls, "histest.kernel.chi_square.calls", counter,         \
    "ChiSquareStatistic calls")                                                \
  X(kKernelZAccumulateCalls, "histest.kernel.z_accumulate.calls", counter,     \
    "ZAccumulate calls")                                                       \
  X(kKernelFusedExpandL1Calls, "histest.kernel.fused_expand_l1.calls",         \
    counter, "FusedExpandL1 calls")                                            \
  X(kKernelFusedExpandL2Calls, "histest.kernel.fused_expand_l2.calls",         \
    counter, "FusedExpandL2 calls")                                            \
  X(kKernelFusedCountsZCalls, "histest.kernel.fused_counts_z.calls",           \
    counter, "FusedCountsZ calls")                                             \
  X(kKernelFusedCountsChiSquareCalls,                                          \
    "histest.kernel.fused_counts_chi_square.calls", counter,                   \
    "FusedCountsChiSquare calls")                                              \
  /* ---- flight recorder (src/obs/flight_recorder.cc) ---- */                 \
  X(kRecorderThreads, "histest.recorder.threads", gauge,                       \
    "threads holding a registered flight-recorder ring")                       \
  /* ---- trace spans ---- */                                                  \
  X(kSpanHistogramTest, "histogram_test", span,                                \
    "one HistogramTester run; parent of the stage spans")                      \
  X(kSpanKModalTest, "kmodal_test", span,                                      \
    "one KModalTester run; parent of the stage spans (k = max_changes + 1)")   \
  X(kSpanTrial, "trial", span,                                                 \
    "one acceptance-estimation trial on a pool thread")                        \
  X(kSpanRunGrid, "run_grid", span,                                            \
    "one experiment workload-grid sweep (bench harness)")                      \
  X(kSpanStageApproxPart, "stage.approx_part", span,                           \
    "ApproxPart stage of Algorithm 1")                                         \
  X(kSpanStageLearner, "stage.learner", span,                                  \
    "chi-square learner stage")                                                \
  X(kSpanStageSieve, "stage.sieve", span, "sieving stage")                     \
  X(kSpanStageCheck, "stage.check", span,                                      \
    "offline closeness check (draws no samples)")                              \
  X(kSpanStageFinal, "stage.final", span,                                      \
    "final restricted ADK identity test")

// clang-format on

namespace histest {
namespace obs {
namespace names {

#define HISTEST_OBS_DEFINE_NAME(ident, literal, kind, desc) \
  inline constexpr const char* ident = literal;
HISTEST_OBS_NAMES(HISTEST_OBS_DEFINE_NAME)
#undef HISTEST_OBS_DEFINE_NAME

}  // namespace names
}  // namespace obs
}  // namespace histest

#endif  // HISTEST_OBS_NAMES_H_
