#ifndef HISTEST_COMMON_MUTEX_H_
#define HISTEST_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/thread_annotations.h"

namespace histest {

/// Capability-annotated wrappers over the standard locks. These are the
/// only sanctioned mutex types in the codebase: the analyzer's raw-lock
/// row bans raw std::mutex / std::shared_mutex /
/// std::condition_variable / std::lock_guard / std::unique_lock everywhere
/// else, so every guarded field carries a HISTEST_GUARDED_BY contract that
/// Clang verifies statically (see common/thread_annotations.h and the
/// thread-safety CI lane).
///
/// The wrappers add no state and no behavior beyond the annotations; all
/// locking semantics are exactly those of the wrapped standard types.

/// Exclusive mutex. Constexpr-constructible, so file-scope instances are
/// constant-initialized and safe to use from static initializers.
class HISTEST_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HISTEST_ACQUIRE() { mu_.lock(); }
  void Unlock() HISTEST_RELEASE() { mu_.unlock(); }
  bool TryLock() HISTEST_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII exclusive lock over a Mutex.
class HISTEST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HISTEST_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() HISTEST_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Reader/writer mutex (wraps std::shared_mutex). Writers use Lock/Unlock
/// or WriterMutexLock; readers use ReaderLock/ReaderUnlock or
/// ReaderMutexLock.
class HISTEST_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() HISTEST_ACQUIRE() { mu_.lock(); }
  void Unlock() HISTEST_RELEASE() { mu_.unlock(); }
  void ReaderLock() HISTEST_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() HISTEST_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class HISTEST_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) HISTEST_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() HISTEST_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class HISTEST_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) HISTEST_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.ReaderLock();
  }
  ~ReaderMutexLock() HISTEST_RELEASE() { mu_.ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable tied to histest::Mutex. Wait() takes the Mutex the
/// caller already holds (the analysis checks HISTEST_REQUIRES), adopts its
/// native handle for the duration of the wait, and returns with the Mutex
/// held again — from the analysis's point of view the capability is held
/// across the wait, matching the caller's RAII scope.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Spurious wakeups are possible; callers loop on
  /// their predicate or use the predicate overload.
  void Wait(Mutex& mu) HISTEST_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // the caller's scope still owns the lock
  }

  /// Blocks until `pred()` is true. The predicate runs with `mu` held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) HISTEST_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace histest

#endif  // HISTEST_COMMON_MUTEX_H_
