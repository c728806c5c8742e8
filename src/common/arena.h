// Slab arena allocator for the zero-allocation message path.
//
// The engine tier's steady-state cost model (ROADMAP "zero-allocation
// message path") wants every per-message byte — the flattened field array
// and TEXT/BYTES payloads — to come from a bump pointer, not the global
// heap. An Arena is a chain of fixed-size slabs with a bump cursor;
// Reset() rewinds the cursor and keeps the slabs, so after a short warmup
// an Arena serves any number of messages without touching malloc.
//
// ArenaPool recycles whole arenas across threads: a producer leases one
// arena per message (Acquire), the message carries the lease through the
// SPSC ring, and whichever worker destroys the message pushes the arena
// back on a lock-free Treiber free list (Release). The pool's concurrency
// contract mirrors the data plane's shape:
//  - Release() may be called from ANY thread (multi-producer push);
//  - Acquire() must be called from ONE thread at a time (single consumer),
//    which sidesteps the classic ABA pop hazard: only the acquirer removes
//    nodes, so a node's `next` cannot be recycled under a concurrent pop.
// The pool owns every arena it ever created and frees them on destruction;
// it must therefore outlive all messages leasing from it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace adn::common {

class ArenaPool;

class Arena {
 public:
  static constexpr size_t kDefaultSlabBytes = 64 * 1024;

  explicit Arena(size_t slab_bytes = kDefaultSlabBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocate `size` bytes aligned to `align` (power of two). Grows a
  // new slab when the current one is exhausted; requests larger than the
  // slab size get a dedicated slab.
  void* Allocate(size_t size, size_t align);

  template <typename T>
  T* AllocateArray(size_t count) {
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  // Copy `s` into the arena; the returned view lives until Reset().
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return {static_cast<const char*>(nullptr), size_t{0}};
    char* p = AllocateArray<char>(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  const uint8_t* CopyBytes(const uint8_t* data, size_t size) {
    if (size == 0) return nullptr;
    auto* p = AllocateArray<uint8_t>(size);
    std::memcpy(p, data, size);
    return p;
  }

  // Rewind the bump cursor; slabs are retained for reuse. Invalidates every
  // pointer previously handed out.
  void Reset();

  size_t slab_count() const { return slabs_.size(); }
  size_t bytes_used() const;

  // The pool this arena was leased from (null for free-standing arenas).
  ArenaPool* home_pool() const { return home_pool_; }

 private:
  friend class ArenaPool;

  struct Slab {
    std::unique_ptr<uint8_t[]> data;
    size_t capacity = 0;
  };

  void AddSlab(size_t capacity);

  std::vector<Slab> slabs_;
  size_t current_ = 0;  // index of the slab the cursor is in
  size_t offset_ = 0;   // bump cursor within slabs_[current_]
  size_t slab_bytes_;

  // Intrusive free-list link + owner, managed by ArenaPool.
  Arena* next_free_ = nullptr;
  ArenaPool* home_pool_ = nullptr;
};

class ArenaPool {
 public:
  explicit ArenaPool(size_t slab_bytes = Arena::kDefaultSlabBytes);
  ~ArenaPool();

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  // Lease an arena (recycled when available, freshly created otherwise).
  // Single-consumer: call from one thread at a time.
  Arena* Acquire();

  // Return a leased arena; it is Reset() and made available to Acquire().
  // Thread-safe: any number of threads may release concurrently.
  void Release(Arena* arena);

  // Arenas ever created (== heap allocations the pool has performed).
  uint64_t created() const { return created_.load(std::memory_order_relaxed); }
  // Acquire() calls served from the free list instead of the heap.
  uint64_t reused() const { return reused_.load(std::memory_order_relaxed); }

 private:
  const size_t slab_bytes_;
  std::atomic<Arena*> free_head_{nullptr};
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> reused_{0};
  // Every arena ever created, for destruction. Guarded: Acquire is single-
  // threaded by contract but pool creation stats are read from anywhere.
  std::mutex all_mu_;
  std::vector<std::unique_ptr<Arena>> all_;
};

}  // namespace adn::common
