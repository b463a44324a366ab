#ifndef HISTEST_COMMON_ARENA_H_
#define HISTEST_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace histest {

/// Trial-scoped bump allocator for hot-path scratch buffers (the learned
/// hypothesis's dense expansion, staging blocks, and similar O(n)
/// temporaries that are rebuilt every trial).
///
/// Memory is carved from a list of retained chunks with a bump cursor;
/// freeing is wholesale via Scope, which records the cursor on entry and
/// rewinds it on exit (RAII, nesting-safe). Chunks are never released, so
/// once the first trial has warmed the arena up to its high-water mark,
/// subsequent trials perform zero heap allocations through this path
/// (tests/test_arena.cc proves this with an operator-new counting hook).
///
/// Growth never moves existing chunks, so pointers handed out earlier in a
/// scope stay valid when a later allocation spills into a new chunk.
/// Under AddressSanitizer a Scope's rewind poisons the reclaimed bytes, so
/// a pointer used past its Scope is reported as a use-after-poison.
///
/// Not thread-safe; use ThreadLocal() for one arena per thread (each
/// parallel trial worker warms up its own).
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Uninitialized storage for `count` objects of T. T must be trivially
  /// destructible (the arena never runs destructors) and the allocation is
  /// dropped wholesale at the enclosing Scope's exit.
  template <typename T>
  T* Alloc(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "ScratchArena never runs destructors");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types are not supported");
    return static_cast<T*>(AllocBytes(count * sizeof(T), alignof(T)));
  }

  /// RAII mark/rewind of the bump cursor. Everything allocated while a
  /// Scope is alive is reclaimed (not freed — the chunks are retained) when
  /// it is destroyed. Scopes nest; destroy in reverse order of creation.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena), chunk_(arena.current_), used_(arena.used_) {}
    ~Scope() {
#if defined(__SANITIZE_ADDRESS__)
      arena_.PoisonFrom(chunk_, used_);
#endif
      arena_.current_ = chunk_;
      arena_.used_ = used_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScratchArena& arena_;
    size_t chunk_;
    size_t used_;
  };

  /// Total bytes of retained chunk capacity (the arena's high-water
  /// footprint; published as the histest.trial.arena_bytes gauge).
  size_t bytes_reserved() const;

  /// This thread's arena. Workers in the trial pool each warm up their own.
  static ScratchArena& ThreadLocal();

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
  };

  void* AllocBytes(size_t bytes, size_t align);

#if defined(__SANITIZE_ADDRESS__)
  /// Poisons every retained byte from offset `used` of chunk `chunk` on, so
  /// ASan reports a read through a pointer kept past a Scope's rewind;
  /// AllocBytes unpoisons what it hands out again.
  void PoisonFrom(size_t chunk, size_t used);
#endif

  std::vector<Chunk> chunks_;
  size_t current_ = 0;  // chunk the bump cursor lives in
  size_t used_ = 0;     // bytes consumed in chunks_[current_]
};

}  // namespace histest

#endif  // HISTEST_COMMON_ARENA_H_
