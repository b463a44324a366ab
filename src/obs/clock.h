#ifndef HISTEST_OBS_CLOCK_H_
#define HISTEST_OBS_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace histest {
namespace obs {

/// Injectable time source for the observability layer.
///
/// This is the only sanctioned way to read a clock in this codebase (the
/// clock-discipline analyzer checker bans raw std::chrono / libc clock
/// reads outside src/obs/ and src/benchutil/). Keeping every clock read
/// behind an injected interface is what makes the determinism contract
/// checkable: verdict paths never hold a Clock, so timing can never feed
/// back into experiment output, and tests swap in FakeClock for exact
/// duration assertions.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual int64_t NowNanos() const = 0;
};

/// Clock that always reads 0. Injected where spans are wanted for structure
/// (hierarchy, counters, annotations) but timing must not exist at all.
class NullClock : public Clock {
 public:
  int64_t NowNanos() const override { return 0; }

  /// Shared immutable instance.
  static const NullClock* Get();
};

/// The process monotonic clock (std::chrono::steady_clock).
class MonotonicClock : public Clock {
 public:
  int64_t NowNanos() const override;

  /// Shared immutable instance.
  static const MonotonicClock* Get();
};

/// Deterministic manual clock for tests and reproducible trace fixtures.
/// Every NowNanos() call returns the current value and then advances it by
/// `auto_step_ns`, so span durations are an exact function of the call
/// sequence. Thread-safe (reads from pool workers interleave, but each read
/// is atomic).
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_ns = 0, int64_t auto_step_ns = 0)
      : now_(start_ns), auto_step_ns_(auto_step_ns) {}

  int64_t NowNanos() const override {
    return now_.fetch_add(auto_step_ns_, std::memory_order_relaxed);
  }

  void Advance(int64_t delta_ns) {
    now_.fetch_add(delta_ns, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<int64_t> now_;
  int64_t auto_step_ns_;
};

}  // namespace obs
}  // namespace histest

#endif  // HISTEST_OBS_CLOCK_H_
