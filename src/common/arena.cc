#include "common/arena.h"

#include <algorithm>

#include "common/check.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace histest {

namespace {
/// First chunk size; big enough that small trials never grow past one
/// chunk, small enough not to matter when a process never uses the arena.
constexpr size_t kMinChunkBytes = size_t{1} << 16;
}  // namespace

void* ScratchArena::AllocBytes(size_t bytes, size_t align) {
  HISTEST_DCHECK((align & (align - 1)) == 0);
  if (bytes == 0) bytes = 1;  // keep returned pointers distinct
  // Try the current chunk, then any later retained chunk, before growing.
  size_t chunk = current_;
  size_t offset = (used_ + align - 1) & ~(align - 1);
  while (chunk < chunks_.size() && offset + bytes > chunks_[chunk].capacity) {
    ++chunk;
    offset = 0;  // chunk starts are max_align_t-aligned (operator new[])
  }
  if (chunk == chunks_.size()) {
    const size_t last = chunks_.empty() ? 0 : chunks_.back().capacity;
    const size_t capacity = std::max({bytes, kMinChunkBytes, 2 * last});
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(capacity),
                            capacity});
  }
  current_ = chunk;
  used_ = offset + bytes;
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(chunks_[chunk].data.get() + offset, bytes);
#endif
  return chunks_[chunk].data.get() + offset;
}

#if defined(__SANITIZE_ADDRESS__)
void ScratchArena::PoisonFrom(size_t chunk, size_t used) {
  for (size_t c = chunk; c < chunks_.size(); ++c) {
    const size_t begin = c == chunk ? used : 0;
    ASAN_POISON_MEMORY_REGION(chunks_[c].data.get() + begin,
                              chunks_[c].capacity - begin);
  }
}
#endif

size_t ScratchArena::bytes_reserved() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.capacity;
  return total;
}

ScratchArena& ScratchArena::ThreadLocal() {
  static thread_local ScratchArena arena;
  return arena;
}

}  // namespace histest
