#include "obs/event_ring.h"

#include "obs/metrics.h"

namespace adn::obs {

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSpan: return "span";
    case EventKind::kBurst: return "burst";
    case EventKind::kReconfig: return "reconfig";
    case EventKind::kSwap: return "swap";
  }
  return "?";
}

const std::vector<std::string_view>& ReconfigEventNames() {
  static const std::vector<std::string_view> kNames = {
      kEventReconfigDetach, kEventReconfigCutover, kEventReconfigSwapProgram,
  };
  return kNames;
}

// --- EventRing ----------------------------------------------------------------

EventRing::EventRing(size_t capacity) {
  size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  slots_.resize(cap);
  mask_ = cap - 1;
}

size_t EventRing::size() const {
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  const uint64_t head = head_.load(std::memory_order_acquire);
  return static_cast<size_t>(tail - head);
}

bool EventRing::TryEmit(const TraceEvent& e) {
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (tail - head_.load(std::memory_order_acquire) == capacity()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[tail & mask_] = e;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

size_t EventRing::Drain(TraceEvent* out, size_t max) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  const size_t avail = static_cast<size_t>(tail - head);
  const size_t k = max < avail ? max : avail;
  for (size_t i = 0; i < k; ++i) {
    out[i] = slots_[(head + i) & mask_];
  }
  if (k > 0) head_.store(head + k, std::memory_order_release);
  return k;
}

// --- EventRingRegistry --------------------------------------------------------

namespace {

// The calling thread's cached ring + the registry generation it was created
// under; a Reset() bumps the generation so the thread re-registers.
struct TlsRing {
  std::shared_ptr<EventRing> ring;
  uint64_t generation = ~0ull;
};
thread_local TlsRing tls_ring;

std::atomic<uint64_t>& GenerationFlag() {
  static std::atomic<uint64_t> generation{0};
  return generation;
}

}  // namespace

EventRingRegistry& EventRingRegistry::Default() {
  static EventRingRegistry registry;
  return registry;
}

EventRing& EventRingRegistry::ThisThreadRing() {
  const uint64_t gen = GenerationFlag().load(std::memory_order_acquire);
  if (tls_ring.ring != nullptr && tls_ring.generation == gen) {
    return *tls_ring.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  tls_ring.ring = std::make_shared<EventRing>(default_capacity_);
  tls_ring.generation = generation_;
  rings_.push_back(tls_ring.ring);
  return *tls_ring.ring;
}

void EventRingRegistry::SetThisThreadLabel(std::string_view label) {
  ThisThreadRing().set_label_id(InternName(label));
}

void EventRingRegistry::SetDefaultCapacity(size_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  default_capacity_ = events == 0 ? 2 : events;
}

size_t EventRingRegistry::DrainAll(std::vector<TraceEvent>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  // Counters are resolved lazily so an idle drain (no events ever emitted)
  // does not register them — keeps fresh registries clean for snapshots.
  MetricsRegistry& reg = MetricsRegistry::Default();
  size_t drained = 0;
  TraceEvent buf[256];
  for (const std::shared_ptr<EventRing>& ring : rings_) {
    size_t n;
    while ((n = ring->Drain(buf, 256)) > 0) {
      out.insert(out.end(), buf, buf + n);
      drained += n;
    }
    // Fold this ring's lifetime totals into the process counters exactly
    // once (delta since the previous drain).
    const uint64_t emitted = ring->emitted();
    if (emitted > ring->synced_emitted_) {
      reg.GetCounter("adn_obs_events_total")
          .Inc(emitted - ring->synced_emitted_);
      ring->synced_emitted_ = emitted;
    }
    const uint64_t drops = ring->dropped();
    if (drops > ring->synced_dropped_) {
      reg.GetCounter("adn_obs_events_dropped_total")
          .Inc(drops - ring->synced_dropped_);
      ring->synced_dropped_ = drops;
    }
  }
  return drained;
}

std::vector<EventRingRegistry::RingStats> EventRingRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RingStats> out;
  out.reserve(rings_.size());
  for (const std::shared_ptr<EventRing>& ring : rings_) {
    RingStats s;
    s.label = NameOfId(ring->label_id());
    s.depth = ring->size();
    s.capacity = ring->capacity();
    s.emitted = ring->emitted();
    s.dropped = ring->dropped();
    out.push_back(s);
  }
  return out;
}

uint64_t EventRingRegistry::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::shared_ptr<EventRing>& ring : rings_) {
    total += ring->dropped();
  }
  return total;
}

void EventRingRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  // Park rather than destroy: a producer thread mid-emit still holds a
  // reference (same contract as MetricsRegistry::Reset).
  for (std::shared_ptr<EventRing>& ring : rings_) {
    retired_.push_back(std::move(ring));
  }
  rings_.clear();
  ++generation_;
  GenerationFlag().store(generation_, std::memory_order_release);
}

void EmitEvent(const TraceEvent& e) {
  EventRingRegistry::Default().ThisThreadRing().TryEmit(e);
}

}  // namespace adn::obs
