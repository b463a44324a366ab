#include "obs/metrics.h"

#include "common/cli.h"
#include "obs/flight_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace histest {
namespace obs {
namespace {

std::atomic<bool> g_enabled{false};

/// Round-robin shard assignment: each thread gets a stable shard index on
/// its first metric write. Distinct threads land on distinct cache lines
/// until more than kMetricShards threads exist, after which shards are
/// shared (still correct, just contended).
size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool InitFromEnv() {
  const EnvValue<bool> env = ParseEnvFlag("HISTEST_TRACE", false);
  if (env.present && env.value) SetEnabled(true);
  return Enabled();
}

// ---------------------------------------------------------------- Counter

void Counter::AddUngated(int64_t delta) {
  shards_[ThisThreadShard()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  {
    ReaderMutexLock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  WriterMutexLock lock(mu_);
  auto [it, inserted] = counters_.try_emplace(
      std::string(name), nullptr);
  if (inserted) {
    it->second = std::unique_ptr<Counter>(new Counter(std::string(name)));
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  {
    ReaderMutexLock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return *it->second;
  }
  WriterMutexLock lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(std::string(name), nullptr);
  if (inserted) {
    it->second = std::unique_ptr<Gauge>(new Gauge(std::string(name)));
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  ReaderMutexLock lock(mu_);
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  WriterMutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
}

std::string MetricsSnapshot::ToJson() const {
  // Built with append() calls, not operator+ chains: GCC 12's -O3
  // -Wrestrict misfires on the temporaries those chains create.
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    out += std::to_string(value);
  }
  out += "}}";
  return out;
}

// ----------------------------------------------------- name-keyed helpers

// Each helper feeds the flight recorder first (its own relaxed-load gate,
// independent of Enabled(): post-mortem recording works with the metrics
// layer off), then the registry. Disabled-disabled cost is two relaxed
// loads + branches — still inside trace_gate.py's overhead budget, which
// benches these exact entry points.

void AddCount(std::string_view name, int64_t delta) {
  FlightRecorder::Record(FrEventKind::kCount, name, delta);
  if (!Enabled()) return;
  MetricsRegistry::Global().GetCounter(name).Add(delta);
}

void SetGauge(std::string_view name, int64_t value) {
  FlightRecorder::Record(FrEventKind::kGauge, name, value);
  if (!Enabled()) return;
  MetricsRegistry::Global().GetGauge(name).Set(value);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

}  // namespace obs
}  // namespace histest
