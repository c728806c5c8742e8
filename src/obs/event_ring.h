// Per-worker binary event rings: the DPDK-trace-shaped transport that lets
// tracing stay on at burst speed.
//
// Every trace record is a fixed-size 64-byte POD (TraceEvent) — one cache
// line, no strings, no heap. Each producer thread owns one SPSC ring
// (EventRingRegistry::ThisThreadRing()); emitting is a bounds check, a
// struct copy and one release store. When a ring is full the event is
// dropped and counted (never blocks, never allocates) — the same contract
// DPDK's trace library and the span ring already follow: telemetry loss is
// visible, data-plane stalls are not.
//
// Consumers (Tracer::Collect, tools/adntrace, tools/adntop) drain all rings
// from one thread at a time; the drained stream is the input to the
// Chrome-trace/Perfetto exporter (obs/export.h). Reconfiguration
// state-machine transitions (docs/RECONFIG.md) ride the same rings as
// first-class events so blackout windows are visible in traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/intern.h"

namespace adn::obs {

// What one TraceEvent records. kSpan carries a completed span (start/end);
// kBurst marks one traced burst chunk a ChainExecutor ran (arg = lane
// count); kReconfig and kSwap are the live-reconfiguration transitions.
enum class EventKind : uint8_t {
  kSpan = 0,
  kBurst = 1,
  kReconfig = 2,
  kSwap = 3,
};
std::string_view EventKindName(EventKind kind);

// First-class reconfiguration event names (contract: docs/RECONFIG.md
// "Emitted events"; check_docs.py enforces src <-> docs agreement both
// directions). One per live-migration state-machine transition plus the
// program hot-swap.
inline constexpr std::string_view kEventReconfigSnapshot = "reconfig.snapshot";
inline constexpr std::string_view kEventReconfigBulkMerge =
    "reconfig.bulk_merge";
inline constexpr std::string_view kEventReconfigCutover = "reconfig.cutover";
inline constexpr std::string_view kEventReconfigReplay = "reconfig.replay";
inline constexpr std::string_view kEventReconfigSwapProgram =
    "reconfig.swap_program";
// All reconfig event names the runtime may emit (for tools and the
// contract test).
const std::vector<std::string_view>& ReconfigEventNames();

// One fixed-size trace record. Exactly one cache line; trivially copyable
// so rings are memcpy-clean and an exporter can write them out binary.
struct TraceEvent {
  uint64_t trace_id = 0;   // RPC id (0 for non-RPC events)
  uint64_t span_id = 0;    // unique per process (0 for instant events)
  uint64_t parent_id = 0;  // 0 = root of this processor's subtree
  int64_t start_ns = 0;    // obs::NowNs(); instant events set start only
  int64_t end_ns = 0;
  uint64_t arg = 0;        // kind-specific (lanes, slot, blackout_ns, version)
  NameId name_id = 0;      // interned span/event name
  NameId processor_id = 0; // interned processor name
  EventKind kind = EventKind::kSpan;
  uint8_t tier = 0;        // obs::Tier
  uint8_t pad[6] = {};
};
static_assert(sizeof(TraceEvent) == 64, "TraceEvent must stay one cache line");
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay POD (binary ring/export format)");

// Fixed-capacity SPSC ring of TraceEvents (same head/tail discipline as
// mrpc::SpscRing). Producer: the owning thread's TryEmit. Consumer: one
// drainer at a time (the registry serializes DrainAll under its mutex).
// Observers may read size()/dropped()/emitted() from any thread.
class EventRing {
 public:
  // Capacity rounds up to a power of two (minimum 2).
  explicit EventRing(size_t capacity);

  size_t capacity() const { return slots_.size(); }
  // Cross-thread estimate; exact when the other side is quiescent.
  size_t size() const;

  // Producer only. False when full: the event is dropped and counted.
  bool TryEmit(const TraceEvent& e);

  // Consumer only. Pop up to `max` events into out[0..); returns the count.
  size_t Drain(TraceEvent* out, size_t max);

  // Events dropped at emit because the ring was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Events ever accepted.
  uint64_t emitted() const { return tail_.load(std::memory_order_acquire); }

  // Display label for tools (the owning worker/thread), set once at
  // registration via EventRingRegistry::SetThisThreadLabel.
  NameId label_id() const { return label_id_.load(std::memory_order_relaxed); }
  void set_label_id(NameId id) {
    label_id_.store(id, std::memory_order_relaxed);
  }

 private:
  std::vector<TraceEvent> slots_;
  size_t mask_ = 0;
  std::atomic<NameId> label_id_{0};
  std::atomic<uint64_t> dropped_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
  // Consumer-side bookkeeping for DrainAll's metric sync (how much of
  // emitted()/dropped() was already accounted to the registry counters).
  friend class EventRingRegistry;
  uint64_t synced_emitted_ = 0;
  uint64_t synced_dropped_ = 0;
};

// Process-wide registry of per-thread event rings. Producers call
// ThisThreadRing()/EmitEvent() (first use creates and registers the calling
// thread's ring); consumers call DrainAll() — which also folds ring totals
// into the adn_obs_events_total / adn_obs_events_dropped_total counters —
// or Stats() for per-ring depth display (tools/adntop).
class EventRingRegistry {
 public:
  static EventRingRegistry& Default();

  // The calling thread's ring, created and registered on first use.
  EventRing& ThisThreadRing();

  // Label the calling thread's ring for tools (e.g. the pool worker name).
  void SetThisThreadLabel(std::string_view label);

  // Capacity (events) for rings created after this call. Default 65536
  // (4 MiB per worker at 64 B/event).
  void SetDefaultCapacity(size_t events);

  // Drain every registered ring into `out`, oldest-per-ring first, and sync
  // the event counters. One consumer at a time (serialized internally).
  size_t DrainAll(std::vector<TraceEvent>& out);

  struct RingStats {
    std::string_view label;
    size_t depth = 0;
    size_t capacity = 0;
    uint64_t emitted = 0;
    uint64_t dropped = 0;
  };
  std::vector<RingStats> Stats() const;
  uint64_t TotalDropped() const;

  // Tests/benches only: forget every ring. Producer threads re-register on
  // their next emit; outstanding EventRing references stay valid (rings are
  // shared_ptr-owned and parked, mirroring MetricsRegistry::Reset).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<EventRing>> rings_;        // guarded by mu_
  std::vector<std::shared_ptr<EventRing>> retired_;      // parked by Reset
  size_t default_capacity_ = 65536;
  uint64_t generation_ = 0;  // bumped by Reset so threads re-register
};

// Emit one event into the calling thread's ring (drop-counted when full).
// The fast path is one TLS load + the SPSC store; first use per thread
// registers the ring.
void EmitEvent(const TraceEvent& e);

// Allocate a process-unique span id (shared with the span tracer, so ids
// never collide between ring-emitted and scope-emitted spans).
uint64_t NextSpanId();

}  // namespace adn::obs
