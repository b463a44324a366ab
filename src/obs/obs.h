#ifndef HISTEST_OBS_OBS_H_
#define HISTEST_OBS_OBS_H_

/// Umbrella header for the observability layer.
///
/// The layer has five parts:
///   * metrics.h — MetricsRegistry: named counters and gauges with
///     lock-free per-thread shards, merged on snapshot;
///   * trace.h   — TraceSession: hierarchical spans with explicit clock
///     injection, exported as JSONL for tools/histest-trace; a span is the
///     one way a duration is recorded;
///   * clock.h   — the injected Clock interface (Monotonic / Null / Fake),
///     the codebase's only sanctioned time source (enforced by the
///     clock-discipline analyzer checker);
///   * manifest.h — RunManifest: the structured run-provenance record
///     embedded in traces, bench JSON, and flight-recorder dumps;
///   * flight_recorder.h — the always-on per-thread event ring dumped on
///     crashes / CHECK failures / demand (the post-mortem story).
///
/// Everything is gated on obs::Enabled() (HISTEST_TRACE env or --trace):
/// disabled, every entry point is one relaxed load and a branch, no clock
/// is ever read, and experiment output is byte-identical to an uninstrumented
/// build. The flight recorder has its own identical gate
/// (HISTEST_FLIGHT_RECORDER) so post-mortem capture composes freely with
/// tracing. Nothing in a verdict path may ever read a metric, span, or clock
/// back — the layer is strictly write-only from the pipeline's side.

#include "obs/clock.h"            // IWYU pragma: export
#include "obs/flight_recorder.h"  // IWYU pragma: export
#include "obs/manifest.h"         // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export

#endif  // HISTEST_OBS_OBS_H_
