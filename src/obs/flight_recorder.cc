#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/cli.h"
#include "obs/clock.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace histest {
namespace obs {

namespace {

// ---------------------------------------------------------------------------
// Ring storage. One ring per thread, single-writer; every field a relaxed
// atomic so concurrent best-effort readers (DumpNow, the signal handler)
// are race-free by the language rules, with per-slot sequence words to
// detect and discard slots caught mid-write. See the header comment for
// the full memory-ordering contract.
// ---------------------------------------------------------------------------

constexpr size_t kNameWords = 6;  // 48 bytes: kMaxNameBytes + NUL, padded
static_assert(kNameWords * 8 > FlightRecorder::kMaxNameBytes);

struct Slot {
  // 0 = never written; odd = writer mid-update for event (seq-1)/2;
  // 2*n+2 = event n complete.
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> ns{0};
  std::atomic<int64_t> value{0};
  std::atomic<uint32_t> kind{0};
  std::atomic<uint64_t> name[kNameWords];
};

struct ThreadRing {
  std::atomic<uint64_t> next{0};  // events ever written by this thread
  int index = 0;                  // registration order
  Slot slots[FlightRecorder::kRingCapacity];
};

// Lock-free ring table: slots are claimed by fetch_add and published with a
// release store, never taken back. No mutex anywhere on this path, so the
// signal handler can walk the table even if the crashed thread died holding
// arbitrary locks. Rings leak by design: a dead thread's last events are
// exactly what a post-mortem wants.
std::atomic<ThreadRing*> g_rings[FlightRecorder::kMaxRings];
std::atomic<int> g_ring_count{0};
std::atomic<uint64_t> g_dropped{0};  // events lost to ring-table exhaustion

thread_local ThreadRing* t_ring = nullptr;
thread_local bool t_ring_unavailable = false;

// One dump per process: the CHECK hook and the SIGABRT handler would
// otherwise both dump on an assertion failure.
std::atomic<bool> g_dumped{false};

// Pre-rendered at enable/install time so the signal path performs no
// allocation: the manifest record line and the dump path. Both leak.
std::atomic<const std::string*> g_manifest_line{nullptr};
char g_dump_path[1024] = "histest_flight_recorder.jsonl";

struct sigaction g_prev_segv;
struct sigaction g_prev_abrt;
std::atomic<bool> g_handlers_installed{false};

ThreadRing* RegisterRing() {
  const int idx = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= static_cast<int>(FlightRecorder::kMaxRings)) {
    return nullptr;
  }
  auto* ring = new ThreadRing;  // leaked: post-mortem state
  ring->index = idx;
  g_rings[idx].store(ring, std::memory_order_release);
  return ring;
}

const char* KindName(uint32_t kind) {
  switch (static_cast<FrEventKind>(kind)) {
    case FrEventKind::kSpanBegin: return "span_begin";
    case FrEventKind::kSpanEnd: return "span_end";
    case FrEventKind::kCount: return "count";
    case FrEventKind::kGauge: return "gauge";
    case FrEventKind::kMark: return "mark";
    case FrEventKind::kCheckFail: return "check_fail";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Async-signal-safe output. Everything below the "normal context" marker
// restricts itself to write(2)/open(2), stack buffers, and lock-free atomic
// loads — no allocation, no stdio, no locks.
// ---------------------------------------------------------------------------

struct LineBuf {
  char data[512];
  size_t len = 0;

  void Put(char c) {
    if (len < sizeof(data) - 1) data[len++] = c;
  }
  void PutStr(const char* s) {
    while (*s != '\0') Put(*s++);
  }
  // JSON string contents: escape quote/backslash, replace control bytes.
  void PutJsonStr(const char* s) {
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        Put('\\');
        Put(static_cast<char>(c));
      } else if (c < 0x20) {
        Put('_');
      } else {
        Put(static_cast<char>(c));
      }
    }
  }
  void PutInt(int64_t v) {
    char tmp[24];
    size_t n = 0;
    uint64_t u;
    if (v < 0) {
      Put('-');
      u = static_cast<uint64_t>(-(v + 1)) + 1;  // safe for INT64_MIN
    } else {
      u = static_cast<uint64_t>(v);
    }
    do {
      tmp[n++] = static_cast<char>('0' + (u % 10));
      u /= 10;
    } while (u != 0 && n < sizeof(tmp));
    while (n > 0) Put(tmp[--n]);
  }
};

void WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;  // best effort; nowhere to report
    off += static_cast<size_t>(n);
  }
}

void WriteLine(int fd, LineBuf& buf) {
  buf.Put('\n');
  WriteAll(fd, buf.data, buf.len);
  buf.len = 0;
}

/// The dump proper. Async-signal-safe; also used from normal context.
void DumpToFd(int fd, const char* reason) {
  LineBuf buf;
  buf.PutStr("{\"type\":\"header\",\"schema_version\":2,\"tool\":\"histest\","
             "\"session\":\"flight_recorder\",\"dump\":\"flight_recorder\","
             "\"reason\":\"");
  buf.PutJsonStr(reason);
  buf.PutStr("\",\"dropped\":");
  buf.PutInt(static_cast<int64_t>(g_dropped.load(std::memory_order_relaxed)));
  buf.PutStr("}");
  WriteLine(fd, buf);

  const std::string* manifest =
      g_manifest_line.load(std::memory_order_acquire);
  if (manifest != nullptr) {
    WriteAll(fd, manifest->data(), manifest->size());
  }

  const int rings = g_ring_count.load(std::memory_order_acquire);
  const int limit =
      rings < static_cast<int>(FlightRecorder::kMaxRings)
          ? rings
          : static_cast<int>(FlightRecorder::kMaxRings);
  for (int r = 0; r < limit; ++r) {
    const ThreadRing* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t end = ring->next.load(std::memory_order_acquire);
    const uint64_t start =
        end > FlightRecorder::kRingCapacity
            ? end - FlightRecorder::kRingCapacity
            : 0;
    for (uint64_t i = start; i < end; ++i) {
      const Slot& s = ring->slots[i % FlightRecorder::kRingCapacity];
      const uint64_t want = 2 * i + 2;
      if (s.seq.load(std::memory_order_acquire) != want) continue;
      char name[kNameWords * 8 + 1];
      for (size_t w = 0; w < kNameWords; ++w) {
        const uint64_t word = s.name[w].load(std::memory_order_relaxed);
        std::memcpy(name + w * 8, &word, 8);
      }
      name[kNameWords * 8] = '\0';
      const int64_t ns = s.ns.load(std::memory_order_relaxed);
      const int64_t value = s.value.load(std::memory_order_relaxed);
      const uint32_t kind = s.kind.load(std::memory_order_relaxed);
      // A slot overwritten mid-read no longer carries seq 2*i+2: discard.
      if (s.seq.load(std::memory_order_acquire) != want) continue;
      buf.PutStr("{\"type\":\"event\",\"thread\":");
      buf.PutInt(ring->index);
      buf.PutStr(",\"seq\":");
      buf.PutInt(static_cast<int64_t>(i));
      buf.PutStr(",\"ns\":");
      buf.PutInt(ns);
      buf.PutStr(",\"kind\":\"");
      buf.PutStr(KindName(kind));
      buf.PutStr("\",\"name\":\"");
      buf.PutJsonStr(name);
      buf.PutStr("\",\"value\":");
      buf.PutInt(value);
      buf.PutStr("}");
      WriteLine(fd, buf);
    }
  }
}

/// Opens the pre-resolved dump path and dumps once. Async-signal-safe.
void DumpOnceToConfiguredPath(const char* reason) {
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  DumpToFd(fd, reason);
  ::close(fd);
}

void CrashSignalHandler(int signo) {
  // "signal:<n>" formatted without snprintf (not async-signal-safe).
  char reason[24] = "signal:";
  size_t p = 7;
  if (signo >= 10) reason[p++] = static_cast<char>('0' + signo / 10);
  reason[p++] = static_cast<char>('0' + signo % 10);
  reason[p] = '\0';
  DumpOnceToConfiguredPath(reason);
  // Restore the previous disposition and re-raise so the default crash
  // semantics (core dump, nonzero wait status) are preserved.
  ::sigaction(signo, signo == SIGSEGV ? &g_prev_segv : &g_prev_abrt,
              nullptr);
  ::raise(signo);
}

// ------------------------- normal context only ----------------------------

void RenderDumpContext() {
  // The manifest line is rendered with the regular allocator — enable time
  // is normal context — and published once; the handler only reads bytes.
  auto* line = new std::string(
      "{\"type\":\"manifest\",\"manifest\":" + CurrentRunManifest().ToJson() +
      "}\n");
  const std::string* expected = nullptr;
  if (!g_manifest_line.compare_exchange_strong(expected, line,
                                               std::memory_order_acq_rel)) {
    delete line;  // another enabler won the race; keep the first render
  }
  const EnvValue<std::string> out = ParseEnvString(
      "HISTEST_FLIGHT_RECORDER_OUT", "histest_flight_recorder.jsonl");
  const size_t n = out.value.size() < sizeof(g_dump_path) - 1
                       ? out.value.size()
                       : sizeof(g_dump_path) - 1;
  std::memcpy(g_dump_path, out.value.data(), n);
  g_dump_path[n] = '\0';
}

void CheckFailureHook(const char* file, int line, const char* /*msg*/) {
  // Record where the contract broke; the abort() that follows raises
  // SIGABRT and the signal handler (if installed) performs the dump. The
  // file's basename keeps file:line inside kMaxNameBytes however deep the
  // checkout is.
  const char* slash = std::strrchr(file, '/');
  LineBuf loc;
  loc.PutStr(slash != nullptr ? slash + 1 : file);
  loc.Put(':');
  loc.PutInt(line);
  loc.data[loc.len] = '\0';
  FlightRecorder::Record(FrEventKind::kCheckFail,
                         std::string_view(loc.data, loc.len), 0);
}

}  // namespace

void FlightRecorder::SetEnabled(bool on) {
  if (on) RenderDumpContext();
  internal_fr::g_enabled.store(on, std::memory_order_relaxed);
}

bool FlightRecorder::InitFromEnv() {
  const EnvValue<bool> flag = ParseEnvFlag("HISTEST_FLIGHT_RECORDER", false);
  if (flag.value) {
    SetEnabled(true);
    InstallCrashHandlers();
  }
  return Enabled();
}

void FlightRecorder::InstallCrashHandlers() {
  if (g_handlers_installed.exchange(true, std::memory_order_acq_rel)) return;
  RenderDumpContext();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashSignalHandler;
  sigemptyset(&sa.sa_mask);
  // No SA_RESETHAND: the handler restores the saved disposition itself so
  // the re-raise reaches whatever was installed before us (gtest's death
  // test machinery, a debugger's handler, or the default).
  ::sigaction(SIGSEGV, &sa, &g_prev_segv);
  ::sigaction(SIGABRT, &sa, &g_prev_abrt);
  SetCheckFailedHook(&CheckFailureHook);
}

void FlightRecorder::RecordSlow(EventKind kind, std::string_view name,
                                int64_t value) {
  if (t_ring == nullptr) {
    if (t_ring_unavailable) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    t_ring = RegisterRing();
    if (t_ring == nullptr) {
      t_ring_unavailable = true;
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Publish the gauge only after t_ring is assigned: SetGauge re-enters
    // Record (the recorder sees every metric write), and with t_ring still
    // null that re-entry would register a fresh ring per nesting level
    // until the table was exhausted.
    SetGauge(names::kRecorderThreads, t_ring->index + 1);
  }
  ThreadRing& ring = *t_ring;
  const uint64_t n = ring.next.load(std::memory_order_relaxed);
  Slot& s = ring.slots[n % kRingCapacity];
  s.seq.store(2 * n + 1, std::memory_order_relaxed);  // odd: in progress
  s.ns.store(MonotonicClock::Get()->NowNanos(), std::memory_order_relaxed);
  s.value.store(value, std::memory_order_relaxed);
  s.kind.store(static_cast<uint32_t>(kind), std::memory_order_relaxed);
  char bytes[kNameWords * 8];
  std::memset(bytes, 0, sizeof(bytes));
  const size_t len = name.size() < kMaxNameBytes ? name.size() : kMaxNameBytes;
  std::memcpy(bytes, name.data(), len);
  for (size_t w = 0; w < kNameWords; ++w) {
    uint64_t word;
    std::memcpy(&word, bytes + w * 8, 8);
    s.name[w].store(word, std::memory_order_relaxed);
  }
  s.seq.store(2 * n + 2, std::memory_order_release);  // even: complete
  ring.next.store(n + 1, std::memory_order_release);
}

Status FlightRecorder::DumpNow(const std::string& path, const char* reason) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("flight recorder: cannot open dump file: " +
                            path);
  }
  DumpToFd(fd, reason);
  ::close(fd);
  return Status::Ok();
}

uint64_t FlightRecorder::TotalEvents() {
  uint64_t total = g_dropped.load(std::memory_order_relaxed);
  const int rings = g_ring_count.load(std::memory_order_acquire);
  const int limit = rings < static_cast<int>(kMaxRings)
                        ? rings
                        : static_cast<int>(kMaxRings);
  for (int r = 0; r < limit; ++r) {
    const ThreadRing* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->next.load(std::memory_order_relaxed);
  }
  return total;
}

void FlightRecorder::ResetForTest() {
  const int rings = g_ring_count.load(std::memory_order_acquire);
  const int limit = rings < static_cast<int>(kMaxRings)
                        ? rings
                        : static_cast<int>(kMaxRings);
  for (int r = 0; r < limit; ++r) {
    ThreadRing* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (Slot& s : ring->slots) s.seq.store(0, std::memory_order_relaxed);
    ring->next.store(0, std::memory_order_relaxed);
  }
  g_dropped.store(0, std::memory_order_relaxed);
  g_dumped.store(false, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace histest
