/// ScratchArena semantics (scope rewind, nesting, pointer stability) plus
/// the zero-allocation proof for the steady-state trial loop: after one
/// warm-up trial, repeated scope+alloc sequences must not touch the heap.
///
/// The proof counts heap traffic by replacing the global (non-aligned)
/// operator new/delete in this TU. Under sanitizers the runtime owns those
/// symbols, so both the replacement and the zero-count assertion are
/// compiled out and the structural tests still run.

#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HISTEST_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HISTEST_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef HISTEST_COUNT_ALLOCATIONS
#define HISTEST_COUNT_ALLOCATIONS 1
#endif

#if HISTEST_COUNT_ALLOCATIONS

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<int64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // HISTEST_COUNT_ALLOCATIONS

namespace histest {
namespace {

int64_t HeapAllocationCount() {
#if HISTEST_COUNT_ALLOCATIONS
  return g_heap_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

TEST(ScratchArenaTest, ScopeRewindReusesTheSameStorage) {
  ScratchArena arena;
  void* first = nullptr;
  {
    const ScratchArena::Scope scope(arena);
    first = arena.Alloc<double>(1000);
  }
  {
    const ScratchArena::Scope scope(arena);
    // Same size after a rewind lands on the same bytes.
    EXPECT_EQ(arena.Alloc<double>(1000), first);
  }
}

TEST(ScratchArenaTest, ScopesNest) {
  ScratchArena arena;
  const ScratchArena::Scope outer(arena);
  double* a = arena.Alloc<double>(16);
  a[0] = 1.0;
  void* inner_ptr = nullptr;
  {
    const ScratchArena::Scope inner(arena);
    inner_ptr = arena.Alloc<double>(16);
    EXPECT_NE(inner_ptr, static_cast<void*>(a));
  }
  // The inner rewind releases only the inner allocation; the outer one
  // survives and the next allocation reuses the inner bytes.
  EXPECT_EQ(a[0], 1.0);
  EXPECT_EQ(arena.Alloc<double>(16), inner_ptr);
}

TEST(ScratchArenaTest, GrowthNeverMovesEarlierAllocations) {
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  double* small = arena.Alloc<double>(64);
  for (int i = 0; i < 64; ++i) small[i] = static_cast<double>(i);
  // Force several new chunks while `small` is live.
  for (size_t n : {size_t{1} << 14, size_t{1} << 16, size_t{1} << 18}) {
    double* big = arena.Alloc<double>(n);
    std::memset(big, 0, n * sizeof(double));
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(small[i], static_cast<double>(i)) << i;
  }
}

TEST(ScratchArenaTest, AllocationsAreAligned) {
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  arena.Alloc<char>(1);
  double* d = arena.Alloc<double>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  arena.Alloc<char>(3);
  int64_t* i = arena.Alloc<int64_t>(2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(i) % alignof(int64_t), 0u);
}

TEST(ScratchArenaTest, ZeroCountAllocationsGetDistinctPointers) {
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  EXPECT_NE(arena.Alloc<double>(0), arena.Alloc<double>(0));
}

TEST(ScratchArenaTest, ThreadLocalIsPerThread) {
  ScratchArena* mine = &ScratchArena::ThreadLocal();
  EXPECT_EQ(mine, &ScratchArena::ThreadLocal());
  ScratchArena* theirs = nullptr;
  std::thread t([&]() { theirs = &ScratchArena::ThreadLocal(); });
  t.join();
  EXPECT_NE(mine, theirs);
}

TEST(ScratchArenaTest, SteadyStateTrialLoopIsAllocationFree) {
  ScratchArena arena;
  const size_t n = 200 * 1000;  // the dominant dstar-sized scratch buffer
  const auto trial = [&arena, n](double stamp) {
    const ScratchArena::Scope scope(arena);
    double* dstar = arena.Alloc<double>(n);
    int64_t* block = arena.Alloc<int64_t>(1024);
    dstar[0] = stamp;
    dstar[n - 1] = stamp;
    block[1023] = static_cast<int64_t>(stamp);
  };
  trial(0.0);  // warm-up: grows the arena to its high-water mark
  const size_t warmed = arena.bytes_reserved();
  EXPECT_GT(warmed, n * sizeof(double));
  const int64_t before = HeapAllocationCount();
  for (int i = 1; i <= 100; ++i) trial(static_cast<double>(i));
  const int64_t after = HeapAllocationCount();
#if HISTEST_COUNT_ALLOCATIONS
  EXPECT_EQ(after - before, 0)
      << "steady-state trials must reuse retained chunks";
#else
  (void)before;
  (void)after;
#endif
  EXPECT_EQ(arena.bytes_reserved(), warmed);
}

#if defined(__SANITIZE_ADDRESS__)
// Under ASan a Scope's rewind poisons the reclaimed bytes, so a pointer
// kept past its Scope faults on the next read instead of reading whatever
// a later allocation wrote there.
TEST(ScratchArenaDeathTest, ReadPastRewindIsReported) {
  ScratchArena arena;
  volatile double* kept = nullptr;
  {
    const ScratchArena::Scope scope(arena);
    double* d = arena.Alloc<double>(8);
    d[3] = 1.0;
    kept = d;
  }
  ASSERT_TRUE(__asan_address_is_poisoned(const_cast<double*>(kept) + 3));
  // ASan writes its report to stderr or to ASAN_OPTIONS' log_path, so only
  // the death itself is matched.
  EXPECT_DEATH({ (void)kept[3]; }, "");
}
#endif  // __SANITIZE_ADDRESS__

}  // namespace
}  // namespace histest
