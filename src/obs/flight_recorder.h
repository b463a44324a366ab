#ifndef HISTEST_OBS_FLIGHT_RECORDER_H_
#define HISTEST_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace histest {
namespace obs {

/// Flight recorder: a fixed-size, lock-free, per-thread ring buffer of the
/// most recent span/metric events, kept so that a crashing or wedged
/// process can explain its last moments. The hooks are always compiled in
/// (TraceSpan begin/end, the name-addressed metric helpers, HISTEST_CHECK
/// failure); when the recorder is off — the default — each hook costs one
/// relaxed atomic load and a branch, the same discipline as obs::Enabled().
///
/// Dump triggers:
///   * fatal signals (SIGSEGV / SIGABRT) via an async-signal-safe writer,
///   * HISTEST_CHECK failure (a check_fail event is recorded through the
///     CheckFailedHook, then the abort's SIGABRT handler dumps),
///   * on demand (DumpNow), including at TraceRunGuard destruction.
///
/// The dump is JSONL: a header record (marked "dump":"flight_recorder"), a
/// manifest record (pre-rendered at enable time so the signal path never
/// allocates), then one record per surviving ring slot. There is
/// deliberately no trailing metrics record — tools/histest-trace
/// distinguishes recorder dumps from truncated traces by the header marker.
///
/// Memory-ordering contract (see DESIGN.md "Flight recorder" for the full
/// discussion): each ring has a single writer (its owning thread) and
/// best-effort readers. A slot is published by a per-slot sequence word —
/// odd while the writer is mid-update, 2*n+2 once event n is complete; all
/// payload fields are relaxed atomics, so a concurrent dump reads
/// tear-free values and discards any slot whose sequence does not match
/// before AND after the payload read. Rings are registered in a lock-free
/// pointer table and never freed, so the signal handler can walk them
/// without taking any lock and dead threads keep their history.
namespace internal_fr {
/// The recorder gate. An inline variable so the disabled-mode fast path in
/// FlightRecorder::Record really is one relaxed load + branch at the call
/// site, with no function-call indirection. Not part of the public API.
inline std::atomic<bool> g_enabled{false};
}  // namespace internal_fr

class FlightRecorder {
 public:
  enum class EventKind : uint8_t {
    kSpanBegin = 0,
    kSpanEnd = 1,
    kCount = 2,
    kGauge = 3,
    kMark = 4,
    kCheckFail = 5,
  };

  /// Events kept per thread; older events are overwritten.
  static constexpr size_t kRingCapacity = 256;
  /// Maximum recorded name length (longer names are truncated).
  static constexpr size_t kMaxNameBytes = 47;
  /// Maximum threads with rings; later threads drop events.
  static constexpr size_t kMaxRings = 256;

  /// The relaxed-load gate every hook checks first. Off by default.
  static bool Enabled() {
    return internal_fr::g_enabled.load(std::memory_order_relaxed);
  }

  /// Turns the recorder on/off. Enabling pre-renders the manifest and dump
  /// path so the signal path needs no allocation; it does NOT install
  /// signal handlers (call InstallCrashHandlers for that).
  static void SetEnabled(bool on);

  /// Enables iff HISTEST_FLIGHT_RECORDER is set to anything but ""/"0"
  /// (and then also installs the crash handlers). Returns the resulting
  /// enabled state.
  static bool InitFromEnv();

  /// Appends one event to the calling thread's ring. No-op when disabled.
  /// `name` is truncated to kMaxNameBytes; the bytes are copied, so any
  /// lifetime is fine.
  static void Record(EventKind kind, std::string_view name, int64_t value) {
    if (!Enabled()) return;
    RecordSlow(kind, name, value);
  }

  /// Installs SIGSEGV/SIGABRT handlers (dump, restore default, re-raise)
  /// and the HISTEST_CHECK failure hook. Idempotent. The dump file is
  /// HISTEST_FLIGHT_RECORDER_OUT or "histest_flight_recorder.jsonl",
  /// resolved at install time.
  static void InstallCrashHandlers();

  /// Dumps all rings to `path` now (normal, non-signal context).
  /// `reason` lands in the header record.
  static Status DumpNow(const std::string& path, const char* reason);

  /// Total events ever recorded across all rings (test/monitoring aid;
  /// best-effort under concurrent writers).
  static uint64_t TotalEvents();

  /// Rewinds every ring and the dumped-once latch. Callers must ensure
  /// writers are quiescent. Test-only.
  static void ResetForTest();

 private:
  static void RecordSlow(EventKind kind, std::string_view name,
                         int64_t value);
};

/// Convenience alias for call sites.
using FrEventKind = FlightRecorder::EventKind;

}  // namespace obs
}  // namespace histest

#endif  // HISTEST_OBS_FLIGHT_RECORDER_H_
