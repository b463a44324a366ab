#ifndef HISTEST_COMMON_THREAD_ANNOTATIONS_H_
#define HISTEST_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis capability annotations.
///
/// These macros attach lock contracts to declarations so that Clang can
/// verify them statically (-Wthread-safety / -Wthread-safety-beta; the CI
/// thread-safety lane promotes both to errors). Under any other compiler
/// they expand to nothing, so GCC builds are unaffected.
///
/// The annotations describe *capabilities* (usually mutexes, wrapped by
/// histest::Mutex / histest::SharedMutex in common/mutex.h):
///
///   * HISTEST_GUARDED_BY(mu)      — this variable may only be read or
///                                   written while `mu` is held.
///   * HISTEST_PT_GUARDED_BY(mu)   — the *pointee* of this pointer is
///                                   protected by `mu` (the pointer itself
///                                   is not).
///   * HISTEST_REQUIRES(mu)        — callers must hold `mu` to call this
///                                   function (HISTEST_REQUIRES_SHARED for
///                                   reader access).
///   * HISTEST_ACQUIRE / RELEASE   — this function acquires / releases the
///                                   named capability (shared variants for
///                                   reader locks).
///   * HISTEST_EXCLUDES(mu)        — callers must NOT hold `mu` (guards
///                                   against self-deadlock on non-reentrant
///                                   locks).
///   * HISTEST_CAPABILITY / HISTEST_SCOPED_CAPABILITY — marks a class as a
///                                   capability / RAII capability holder.
///   * HISTEST_NO_THREAD_SAFETY_ANALYSIS — opts one function out of the
///                                   analysis. Say next to every use why
///                                   the access is safe without the
///                                   capability (the tree has no use).
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && !defined(SWIG)
#define HISTEST_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HISTEST_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

#define HISTEST_CAPABILITY(x) HISTEST_THREAD_ANNOTATION_(capability(x))

#define HISTEST_SCOPED_CAPABILITY HISTEST_THREAD_ANNOTATION_(scoped_lockable)

#define HISTEST_GUARDED_BY(x) HISTEST_THREAD_ANNOTATION_(guarded_by(x))

#define HISTEST_PT_GUARDED_BY(x) HISTEST_THREAD_ANNOTATION_(pt_guarded_by(x))

#define HISTEST_ACQUIRED_BEFORE(...) \
  HISTEST_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

#define HISTEST_ACQUIRED_AFTER(...) \
  HISTEST_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#define HISTEST_REQUIRES(...) \
  HISTEST_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

#define HISTEST_REQUIRES_SHARED(...) \
  HISTEST_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

#define HISTEST_ACQUIRE(...) \
  HISTEST_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

#define HISTEST_ACQUIRE_SHARED(...) \
  HISTEST_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

#define HISTEST_RELEASE(...) \
  HISTEST_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#define HISTEST_RELEASE_SHARED(...) \
  HISTEST_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

#define HISTEST_TRY_ACQUIRE(...) \
  HISTEST_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

#define HISTEST_TRY_ACQUIRE_SHARED(...) \
  HISTEST_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

#define HISTEST_EXCLUDES(...) \
  HISTEST_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

#define HISTEST_ASSERT_CAPABILITY(x) \
  HISTEST_THREAD_ANNOTATION_(assert_capability(x))

#define HISTEST_ASSERT_SHARED_CAPABILITY(x) \
  HISTEST_THREAD_ANNOTATION_(assert_shared_capability(x))

#define HISTEST_RETURN_CAPABILITY(x) \
  HISTEST_THREAD_ANNOTATION_(lock_returned(x))

#define HISTEST_NO_THREAD_SAFETY_ANALYSIS \
  HISTEST_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // HISTEST_COMMON_THREAD_ANNOTATIONS_H_
