#include "common/arena.h"

namespace adn::common {

Arena::Arena(size_t slab_bytes) : slab_bytes_(slab_bytes == 0 ? 1 : slab_bytes) {
  AddSlab(slab_bytes_);
}

void Arena::AddSlab(size_t capacity) {
  Slab slab;
  slab.data = std::make_unique<uint8_t[]>(capacity);
  slab.capacity = capacity;
  slabs_.push_back(std::move(slab));
}

void* Arena::Allocate(size_t size, size_t align) {
  if (size == 0) size = 1;
  for (;;) {
    Slab& slab = slabs_[current_];
    size_t aligned = (offset_ + (align - 1)) & ~(align - 1);
    if (aligned + size <= slab.capacity) {
      offset_ = aligned + size;
      return slab.data.get() + aligned;
    }
    if (current_ + 1 < slabs_.size()) {
      // Advance into an already-reserved slab (post-Reset reuse).
      ++current_;
      offset_ = 0;
      continue;
    }
    AddSlab(size > slab_bytes_ ? size + align : slab_bytes_);
    ++current_;
    offset_ = 0;
  }
}

void Arena::Reset() {
  current_ = 0;
  offset_ = 0;
}

size_t Arena::bytes_used() const {
  size_t total = offset_;
  for (size_t i = 0; i < current_; ++i) total += slabs_[i].capacity;
  return total;
}

ArenaPool::ArenaPool(size_t slab_bytes) : slab_bytes_(slab_bytes) {}

ArenaPool::~ArenaPool() = default;

Arena* ArenaPool::Acquire() {
  // Single-consumer pop: only this thread removes nodes, so head->next_free_
  // is stable between the load and the CAS (pushes only change head itself).
  Arena* head = free_head_.load(std::memory_order_acquire);
  while (head != nullptr) {
    if (free_head_.compare_exchange_weak(head, head->next_free_,
                                         std::memory_order_acquire,
                                         std::memory_order_acquire)) {
      head->next_free_ = nullptr;
      reused_.fetch_add(1, std::memory_order_relaxed);
      return head;
    }
  }
  auto arena = std::make_unique<Arena>(slab_bytes_);
  arena->home_pool_ = this;
  Arena* raw = arena.get();
  {
    std::lock_guard<std::mutex> lock(all_mu_);
    all_.push_back(std::move(arena));
  }
  created_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

void ArenaPool::Release(Arena* arena) {
  if (arena == nullptr) return;
  arena->Reset();
  Arena* head = free_head_.load(std::memory_order_relaxed);
  do {
    arena->next_free_ = head;
  } while (!free_head_.compare_exchange_weak(head, arena,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
}

}  // namespace adn::common
