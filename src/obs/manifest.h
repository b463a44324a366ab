#ifndef HISTEST_OBS_MANIFEST_H_
#define HISTEST_OBS_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"

namespace histest {
namespace obs {

/// RunManifest: the structured provenance record for one process run —
/// "what exactly was this run?" answered machine-checkably. It is embedded
/// as the `manifest` record of every trace JSONL (schema v2), stamped into
/// bench JSON context, printable via `--manifest` on every experiment
/// binary, and prepended to flight-recorder dumps so post-mortems carry
/// their own provenance.
///
/// Bump when fields are added/removed/renamed; readers (tools/histest-trace,
/// tools/histest-obs) refuse newer versions rather than guessing.
inline constexpr int kManifestVersion = 2;

/// Machine-readable field inventory: X(key, "description"). The JSON object
/// produced by RunManifest::ToJson has exactly these keys, in this order.
/// tools/gen_design_tables.py parses this block into the DESIGN.md schema
/// table (a --check ctest keeps them in sync), and tools/trace_gate.py
/// requires every key in gated traces. Edit fields HERE first.
// clang-format off
#define HISTEST_MANIFEST_FIELDS(X)                                            \
  X(manifest_version,                                                         \
    "manifest schema version (kManifestVersion; readers reject newer)")       \
  X(git_describe,                                                             \
    "`git describe --always --dirty --tags` captured at CMake configure "     \
    "time; \"unknown\" when built outside a git checkout")                    \
  X(build_type, "CMAKE_BUILD_TYPE the library was compiled under")            \
  X(compiler, "compiler id and version that built the library")               \
  X(cpu_features,                                                             \
    "runtime CPU probe summary, e.g. \"arch=x86-64 simd=avx2\"")              \
  X(threads, "resolved executor count (DefaultBenchThreads)")                 \
  X(pool_workers,                                                             \
    "shared ThreadPool worker sizing (callers add one executor)")             \
  X(timestamp_unix_ms,                                                        \
    "wall-clock capture time, ms since the Unix epoch; the one field "        \
    "excluded from the determinism contract")                                 \
  X(env,                                                                      \
    "every HISTEST_* knob (cli.h inventory): raw string when set, null "      \
    "when unset")                                                             \
  X(params,                                                                   \
    "per-run experiment parameters and seeds stamped by the harness "         \
    "(command-line flags, experiment id)")
// clang-format on

struct RunManifest {
  int manifest_version = kManifestVersion;
  std::string git_describe;
  std::string build_type;
  std::string compiler;
  std::string cpu_features;
  int threads = 0;
  int pool_workers = 0;
  /// 0 means "not stamped" (deterministic emitters zero it on purpose).
  int64_t timestamp_unix_ms = 0;
  /// HISTEST_* knobs in SnapshotEnvKnobs() order.
  std::vector<EnvKnob> env;
  /// Harness-provided key/value parameters (seeds, grid flags, experiment
  /// id), serialized as strings in insertion order.
  std::vector<std::pair<std::string, std::string>> params;

  void AddParam(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }

  /// One JSON object with exactly the HISTEST_MANIFEST_FIELDS keys, in
  /// declaration order. `include_timestamp` false serializes
  /// timestamp_unix_ms as 0 — the byte-identical form two runs with the
  /// same knobs must agree on (the manifest determinism contract).
  std::string ToJson(bool include_timestamp = true) const;
};

/// Captures the current process: compiled-in build identity, runtime CPU
/// features, thread sizing, and the full env-knob snapshot. `params` is
/// left empty for the caller. The result is deterministic for a fixed
/// binary + environment, except timestamp_unix_ms.
RunManifest CurrentRunManifest();

}  // namespace obs
}  // namespace histest

#endif  // HISTEST_OBS_MANIFEST_H_
