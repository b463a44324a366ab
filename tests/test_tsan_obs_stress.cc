// Race-condition stress tests for the observability layer. Like
// test_tsan_stress.cc these run in every build, but they are shaped for
// the TSan CI job (HISTEST_SANITIZER=tsan) and for the thread-safety
// annotations added to src/obs/: every interleaving here crosses one of
// the layer's two lock domains —
//   1. MetricsRegistry: sharded lock-free metric writes racing the
//      SharedMutex-guarded registration path and Snapshot()'s merge;
//   2. TraceSession: Begin/End/Annotate from many pool threads racing
//      Spans()/NumSpans() readers under the session's annotated Mutex.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace histest {
namespace {

/// Clean registry + enabled layer per test; restores the disabled default
/// so obs state never leaks into the rest of the shared test binary.
class TsanObsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().ResetForTest();
    obs::SetEnabled(true);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::MetricsRegistry::Global().ResetForTest();
  }
};

TEST_F(TsanObsStressTest, MetricWritersRaceSnapshotMerger) {
  // Writers hammer name-keyed counters and a shared gauge (each write
  // takes the registry's shared lock for lookup, then lock-free atomics)
  // while a dedicated thread snapshots continuously (shared lock + merge
  // reads of every shard). Registration of fresh names mid-flight forces
  // the writer-lock path to interleave with both.
  constexpr int kWriters = 6;
  constexpr int kRoundsPerWriter = 400;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> snapshots_taken{0};

  std::thread merger([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
      // The merge must only ever see non-negative partial sums: counters
      // are monotone and snapshots cannot observe torn values.
      for (const auto& [name, value] : snap.counters) {
        ASSERT_GE(value, 0) << name;
      }
      // Every shared-gauge write is in [0, 17): a torn read would not be.
      for (const auto& [name, value] : snap.gauges) {
        if (name != "tsan.shared_gauge") continue;
        ASSERT_GE(value, 0);
        ASSERT_LT(value, 17);
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w]() {
      const std::string own = "tsan.writer." + std::to_string(w);
      for (int i = 0; i < kRoundsPerWriter; ++i) {
        obs::AddCount("tsan.shared_counter", 1);
        obs::AddCount(own, 1);  // per-writer name: registration races
        obs::SetGauge("tsan.shared_gauge", i % 17);
        if (i % 64 == 0) {
          // A genuinely fresh name takes the registry's writer lock while
          // the merger holds/releases the reader side.
          obs::AddCount(own + "." + std::to_string(i), 1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  merger.join();

  EXPECT_GE(snapshots_taken.load(), 1);
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("tsan.shared_counter").Value(),
            int64_t{kWriters} * kRoundsPerWriter);
  // Every writer's last write is the same value, so whichever lands last
  // leaves exactly it.
  EXPECT_EQ(reg.GetGauge("tsan.shared_gauge").Value(),
            (kRoundsPerWriter - 1) % 17);
}

TEST_F(TsanObsStressTest, TraceSpanEmittersAcrossPoolThreads) {
  // One session, spans emitted from every pool worker concurrently, with a
  // reader thread polling NumSpans()/Spans() the whole time. NullClock:
  // structure only, no timing, so the test is schedule-independent in
  // everything it asserts.
  constexpr int64_t kTasks = 512;
  obs::TraceSession session("tsan-stress", obs::NullClock::Get());
  obs::ScopedTraceActivation activation(&session);

  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<obs::SpanRecord> spans = session.Spans();
      // Ids are handed out under the session mutex: a copied snapshot can
      // never contain the placeholder id 0.
      for (const obs::SpanRecord& s : spans) ASSERT_NE(s.id, 0);
    }
  });

  ParallelFor(kTasks, 8, [](int64_t i) {
    obs::TraceSpan task("task");
    task.AnnotateInt("index", i);
    {
      obs::TraceSpan inner("inner");
      inner.AnnotateDouble("half", static_cast<double>(i) / 2.0);
      inner.AnnotateString("tag", "stress");
    }
  });

  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Every task opened exactly two spans, all closed by the time
  // ParallelFor returned (its completion barrier orders the writes).
  const std::vector<obs::SpanRecord> spans = session.Spans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kTasks) * 2);
  int64_t inner_count = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "inner") {
      ++inner_count;
      EXPECT_NE(s.parent, 0) << "inner spans nest under their task span";
    }
  }
  EXPECT_EQ(inner_count, kTasks);
}

TEST_F(TsanObsStressTest, EnableToggleRacesRecorders) {
  // SetEnabled flips the global gate while recorders run: the gate is a
  // relaxed atomic, so toggling may drop or admit individual records, but
  // it must never tear, deadlock, or corrupt the registry.
  std::atomic<bool> stop{false};
  std::thread toggler([&]() {
    bool on = false;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::SetEnabled(on);
      on = !on;
    }
  });

  ParallelFor(int64_t{2000}, 6, [](int64_t i) {
    obs::AddCount("tsan.toggle_counter", 1);
    obs::SetGauge("tsan.toggle_gauge", i);
    obs::TraceSpan span("toggle");
  });

  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  obs::SetEnabled(true);

  // No exact count contract (the gate is deliberately racy), only sanity:
  // whatever was admitted merged consistently.
  auto& reg = obs::MetricsRegistry::Global();
  const int64_t count = reg.GetCounter("tsan.toggle_counter").Value();
  EXPECT_GE(count, 0);
  EXPECT_LE(count, 2000);
  const int64_t gauge = reg.GetGauge("tsan.toggle_gauge").Value();
  EXPECT_GE(gauge, 0);
  EXPECT_LT(gauge, 2000);
}

}  // namespace
}  // namespace histest
