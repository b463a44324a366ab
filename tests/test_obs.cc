#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace histest {
namespace {

/// Every test runs with a clean registry and restores the disabled default,
/// so obs state never leaks between tests in the shared binary.
class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, CounterAddsAndMerges) {
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("t.counter");
  c.Add(3);
  c.Add(1);
  EXPECT_EQ(c.Value(), 4);
  EXPECT_EQ(&obs::MetricsRegistry::Global().GetCounter("t.counter"), &c);
}

TEST_F(ObsTest, CounterMergesAcrossThreads) {
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("t.threads");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < 1000; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), 8000);
}

TEST_F(ObsTest, DisabledCounterRecordsNothing) {
  obs::SetEnabled(false);
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("t.gated");
  c.Add(5);
  obs::AddCount("t.gated", 5);
  EXPECT_EQ(c.Value(), 0);
}

TEST_F(ObsTest, NameKeyedHelpers) {
  obs::AddCount("t.helper_counter", 7);
  obs::SetGauge("t.helper_gauge", 42);
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("t.helper_counter").Value(), 7);
  EXPECT_EQ(reg.GetGauge("t.helper_gauge").Value(), 42);
}

TEST_F(ObsTest, ResetForTestZeroesEverything) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("t.reset").Add(9);
  reg.GetGauge("t.reset_g").Set(9);
  reg.ResetForTest();
  EXPECT_EQ(reg.GetCounter("t.reset").Value(), 0);
  EXPECT_EQ(reg.GetGauge("t.reset_g").Value(), 0);
}

TEST_F(ObsTest, SnapshotToJsonIsStable) {
  // A snapshot of its own (the global registry keeps other tests' names).
  obs::MetricsSnapshot snap;
  snap.counters = {{"t.a", 2}, {"t.b", 0}};
  snap.gauges = {{"t.json_gauge", -3}};
  EXPECT_EQ(snap.ToJson(),
            "{\"counters\":{\"t.a\":2,\"t.b\":0},"
            "\"gauges\":{\"t.json_gauge\":-3}}");
  EXPECT_EQ(obs::MetricsSnapshot{}.ToJson(),
            "{\"counters\":{},\"gauges\":{}}");
  obs::AddCount("t.json_counter", 2);
  obs::SetGauge("t.json_gauge", -3);
  const std::string json =
      obs::MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"t.json_counter\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t.json_gauge\":-3"), std::string::npos) << json;
}

TEST_F(ObsTest, JsonEscape) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

// ------------------------------------------------------------------ spans

TEST_F(ObsTest, TraceSpanInertWithoutSession) {
  obs::TraceSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.AnnotateInt("k", 1);  // must be a no-op, not a crash
}

TEST_F(ObsTest, SpanHierarchyAndAnnotations) {
  obs::FakeClock clock(100, 10);
  obs::TraceSession session("unit", &clock);
  {
    obs::ScopedTraceActivation activation(&session);
    obs::TraceSpan outer("outer");
    outer.AnnotateInt("n", 1024);
    outer.AnnotateDouble("eps", 0.25);
    outer.AnnotateString("verdict", "accept");
    {
      obs::TraceSpan inner("inner");
      EXPECT_TRUE(inner.active());
    }
  }
  const std::vector<obs::SpanRecord> spans = session.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  // FakeClock steps 10ns per read: outer begin=100, inner begin=110,
  // inner end=120, outer end=130.
  EXPECT_EQ(spans[0].start_ns, 100);
  EXPECT_EQ(spans[1].start_ns, 110);
  EXPECT_EQ(spans[1].end_ns, 120);
  EXPECT_EQ(spans[0].end_ns, 130);
  ASSERT_EQ(spans[0].annotations.size(), 3u);
  EXPECT_EQ(spans[0].annotations[0].key, "n");
  EXPECT_EQ(spans[0].annotations[0].json_value, "1024");
  EXPECT_EQ(spans[0].annotations[2].json_value, "\"accept\"");
}

TEST_F(ObsTest, SpansNestPerThread) {
  obs::FakeClock clock;
  obs::TraceSession session("threads", &clock);
  obs::ScopedTraceActivation activation(&session);
  obs::TraceSpan root("root");
  std::thread worker([]() {
    // The worker has no open parent span: its span is a root.
    obs::TraceSpan span("worker");
    EXPECT_TRUE(span.active());
  });
  worker.join();
  const auto spans = session.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "worker");
  EXPECT_EQ(spans[1].parent, 0);
}

TEST_F(ObsTest, WriteJsonlRoundTrip) {
  obs::FakeClock clock(0, 1);
  obs::TraceSession session("jsonl", &clock);
  {
    obs::ScopedTraceActivation activation(&session);
    obs::TraceSpan span("stage.learner");
    span.AnnotateInt("samples_drawn", 12345);
  }
  obs::AddCount("t.jsonl_counter", 6);
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Global().Snapshot();
  std::ostringstream os;
  ASSERT_TRUE(session.WriteJsonl(os, &metrics).ok());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"type\":\"header\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"schema_version\":2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"stage.learner\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"samples_drawn\":12345"), std::string::npos) << out;
  EXPECT_NE(out.find("\"type\":\"metrics\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"t.jsonl_counter\":6"), std::string::npos) << out;
  // Exactly one line per record: header + 1 span + metrics.
  int lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);
}

TEST_F(ObsTest, SessionDtorClearsActivePointer) {
  {
    auto session = std::make_unique<obs::TraceSession>(
        "dtor", obs::NullClock::Get());
    obs::SetActiveTrace(session.get());
  }
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
}

TEST_F(ObsTest, InitFromEnvHonorsSwitch) {
  obs::SetEnabled(false);
  ASSERT_EQ(setenv("HISTEST_TRACE", "0", 1), 0);
  EXPECT_FALSE(obs::InitFromEnv());
  ASSERT_EQ(setenv("HISTEST_TRACE", "1", 1), 0);
  EXPECT_TRUE(obs::InitFromEnv());
  ASSERT_EQ(unsetenv("HISTEST_TRACE"), 0);
}

}  // namespace
}  // namespace histest
