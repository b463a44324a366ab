#include "obs/manifest.h"

#include <chrono>
#include <string>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/version_info.h"

namespace histest {
namespace obs {

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  out += JsonEscape(s);
  out += '"';
}

/// The CPU's SIMD level, probed on every call (manifests are built a few
/// times per process), e.g. "arch=x86-64 simd=avx2".
std::string CpuFeatures() {
#if defined(__x86_64__) || defined(__i386__)
  std::string out = "arch=x86-64 simd=";
  out += __builtin_cpu_supports("avx2") != 0 ? "avx2" : "none";
  return out;
#elif defined(__aarch64__)
  return "arch=aarch64 simd=none";
#else
  return "arch=other simd=none";
#endif
}

}  // namespace

std::string RunManifest::ToJson(bool include_timestamp) const {
  std::string out = "{";
  out += "\"manifest_version\":" + std::to_string(manifest_version);
  out += ",\"git_describe\":";
  AppendJsonString(out, git_describe);
  out += ",\"build_type\":";
  AppendJsonString(out, build_type);
  out += ",\"compiler\":";
  AppendJsonString(out, compiler);
  out += ",\"cpu_features\":";
  AppendJsonString(out, cpu_features);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"pool_workers\":" + std::to_string(pool_workers);
  out += ",\"timestamp_unix_ms\":" +
         std::to_string(include_timestamp ? timestamp_unix_ms : int64_t{0});
  out += ",\"env\":{";
  bool first = true;
  for (const EnvKnob& knob : env) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, knob.name);
    out += ':';
    if (knob.present) {
      AppendJsonString(out, knob.raw);
    } else {
      out += "null";
    }
  }
  out += "},\"params\":{";
  first = true;
  for (const auto& [key, value] : params) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, key);
    out += ':';
    AppendJsonString(out, value);
  }
  out += "}}";
  return out;
}

RunManifest CurrentRunManifest() {
  RunManifest m;
  m.git_describe = HISTEST_GIT_DESCRIBE;
  m.build_type = HISTEST_BUILD_TYPE;
  m.compiler = HISTEST_MANIFEST_COMPILER;
  m.cpu_features = CpuFeatures();
  m.threads = DefaultBenchThreads();
  m.pool_workers = ThreadPool::SharedPlannedWorkers();
  // System (wall) clock on purpose: manifests are provenance for humans and
  // cross-run tooling, not measurement. All measurement goes through the
  // injected obs::Clock; clock-discipline exempts src/obs for exactly the
  // two sanctioned raw reads (MonotonicClock and this timestamp).
  m.timestamp_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          // analyzer-allow(rng-stream): provenance timestamp, not seed material
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  m.env = SnapshotEnvKnobs();
  return m;
}

}  // namespace obs
}  // namespace histest
