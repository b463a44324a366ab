#ifndef HISTEST_OBS_METRICS_H_
#define HISTEST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace histest {
namespace obs {

/// Global observability switch. Off by default; when off every recording
/// entry point (Counter::Add, AddCount, SetGauge, TraceSpan) reduces to one relaxed atomic load and a branch, no clock is
/// ever read, and experiment output is byte-identical to an uninstrumented
/// build. Metrics and traces are diagnostics only — nothing in a verdict
/// path may read them back.
bool Enabled();
void SetEnabled(bool on);

/// Enables the layer iff HISTEST_TRACE is set to anything but "" or "0".
/// Returns the resulting enabled state.
bool InitFromEnv();

/// Number of independent per-thread shards per metric. Writers pick a shard
/// from a thread-local index (round-robin assigned on first use), so
/// concurrent increments touch distinct cache lines; readers merge on
/// snapshot.
inline constexpr size_t kMetricShards = 16;

/// Monotonically increasing sum, sharded per thread. Lock-free: Add is one
/// relaxed fetch_add on the calling thread's shard.
class Counter {
 public:
  void Add(int64_t delta) {
    if (!Enabled()) return;
    AddUngated(delta);
  }

  /// Merged value across shards (snapshot-consistent only when writers are
  /// quiescent, which is all observability needs).
  int64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void AddUngated(int64_t delta);
  void Reset();

  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
  std::string name_;
};

/// Last-written int64 value (thread count, queue depth, ...).
class Gauge {
 public:
  void Set(int64_t value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
  std::string name_;
};

/// Point-in-time merged view of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;

  /// One stable-keyed JSON object: {"counters":{...},"gauges":{...}}.
  std::string ToJson() const;
};

/// Registry of named metrics. Handles are created on first use and live for
/// the process (node-stable storage), so cached Counter*/Gauge* pointers
/// stay valid forever. Lookup takes a shared lock; hot paths should either
/// cache the handle or accept the lookup (recording is already gated off
/// when the layer is disabled).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (handles stay valid). Test-only.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  /// Guards the name->handle maps only: registration (writer) vs lookup
  /// and snapshot merge (readers). The metric objects behind the handles
  /// are lock-free (sharded atomics) and deliberately NOT guarded — once a
  /// handle escapes the map it is written without any lock, which is the
  /// whole point of the sharded design.
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      HISTEST_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      HISTEST_GUARDED_BY(mu_);
};

/// Name-addressed recording helpers for call sites that must not hold
/// static handles (src/core and src/stats ban mutable static state). All
/// are no-ops when the layer is disabled; when enabled they pay one
/// shared-lock registry lookup, which is fine at stage/batch granularity.
void AddCount(std::string_view name, int64_t delta);
void SetGauge(std::string_view name, int64_t value);

/// Escapes `s` for inclusion in a JSON string literal (shared by the trace
/// and report sinks).
std::string JsonEscape(std::string_view s);

}  // namespace obs
}  // namespace histest

#endif  // HISTEST_OBS_METRICS_H_
