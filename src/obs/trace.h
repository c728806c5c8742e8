// Per-RPC tracing: one sampled RPC yields one causally-ordered span tree
// whichever execution layer carries it (mRPC engine, mesh sidecar,
// simulator path).
//
// A span is one stage enter/exit — an element segment in the ChainExecutor,
// an interpreted element, a proxy codec boundary — tagged with the element/
// stage name, the execution tier, and the processor that ran it. Spans
// share the RPC's id as trace_id, so a message that crosses several
// processors (the simulated path) still assembles into a single tree.
//
// Mechanics, tuned so tracing can stay ON at burst speed (the
// "Burst-mode telemetry" contract in docs/OBSERVABILITY.md):
//
//  - A span is a fixed-size POD: names and processors are interned ids
//    (obs/intern.h), never std::string — recording a span allocates
//    nothing.
//  - The tracer is off unless obs::Enabled() AND tracing enabled AND the
//    trace_id passes sampling (1-in-N by id). Instrumented layers open an
//    RpcTraceScope; when any gate fails the scope is inert and the per-span
//    call sites reduce to one thread-local load + null check.
//  - Open spans are staged in the thread-local TraceContext and flushed —
//    as 64-byte TraceEvent records into the calling thread's SPSC event
//    ring (obs/event_ring.h) — once when the scope closes. A ChainExecutor
//    lane the tracer samples outside any scope (the EnginePool workers)
//    skips the scope entirely and writes its span events straight into
//    its thread's ring.
//  - Consumers (Collect and the query APIs) drain the rings into a
//    fixed-capacity central store: recording never allocates on the data
//    plane and never blocks it — ring-full drops are counted by
//    adn_obs_events_dropped_total, central-store eviction by
//    adn_obs_spans_evicted_total.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_ring.h"
#include "obs/intern.h"
#include "obs/metrics.h"

namespace adn::obs {

// Which execution layer emitted the span (DESIGN.md §5 tiers).
enum class Tier : uint8_t {
  kEngine,  // mRPC engine chain (compiled or interpreted stages)
  kMesh,    // sidecar proxy path (AdnChainFilter / Envoy model)
  kSim,     // simulated ADN path (per-site stations)
};
std::string_view TierName(Tier tier);

struct Span {
  uint64_t trace_id = 0;     // the RPC id
  uint64_t span_id = 0;      // unique per process
  uint64_t parent_id = 0;    // 0 = root of this processor's subtree
  NameId name_id = 0;        // interned element/stage name
  Tier tier = Tier::kEngine;
  NameId processor_id = 0;   // interned, e.g. "client-engine"
  int64_t start_ns = 0;      // steady-clock wall time (obs::NowNs)
  int64_t end_ns = 0;

  // Resolved views for display/export; lock-free, never dangle.
  std::string_view name() const { return NameOfId(name_id); }
  std::string_view processor() const { return NameOfId(processor_id); }
};

// Thread-local staging area for one in-flight sampled RPC on one processor.
// Span ids come from a process-wide counter so ids stay unique when one RPC
// opens scopes on several processors (the simulated path).
struct TraceContext {
  uint64_t trace_id = 0;
  Tier tier = Tier::kEngine;
  NameId processor_id = 0;
  std::vector<Span> spans;        // staged; flushed on scope close
  uint64_t root_span_id = 0;

  // Opens a child span under `parent` (0 = under the root span) and returns
  // its index into `spans`. Hot call sites pass a pre-interned id
  // (registration-time interning, satellite of the zero-alloc contract);
  // the string_view overload interns per call and is for setup/tests.
  size_t OpenSpan(NameId name_id, uint64_t parent_id = 0);
  size_t OpenSpan(std::string_view name, uint64_t parent_id = 0) {
    return OpenSpan(InternName(name), parent_id);
  }
  void CloseSpan(size_t idx) { spans[idx].end_ns = NowNs(); }
  uint64_t SpanId(size_t idx) const { return spans[idx].span_id; }
};

// The active context on this thread, or nullptr when the current RPC is not
// being traced. This is the only thing per-element call sites touch.
TraceContext* CurrentTrace();

class Tracer {
 public:
  // Tracing rides on the master obs switch AND its own flag, so metrics can
  // stay on while tracing is off.
  void SetTracingEnabled(bool on) {
    tracing_.store(on, std::memory_order_relaxed);
  }
  bool tracing_enabled() const {
    return Enabled() && tracing_.load(std::memory_order_relaxed);
  }

  // Sample 1 in `n` RPCs by trace id (id % n == 0). n == 1 traces all.
  void SetSampleEvery(uint64_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  bool ShouldSample(uint64_t trace_id) const {
    return tracing_enabled() &&
           trace_id % sample_every_.load(std::memory_order_relaxed) == 0;
  }

  // Central collected-store capacity in spans (default 4096). Shrinking
  // evicts oldest. (Per-worker ring capacity is set separately via
  // EventRingRegistry::SetDefaultCapacity.)
  void SetRingCapacity(size_t spans);

  // Flush a scope's staged spans: each becomes one 64-byte kSpan event in
  // the calling thread's ring. Counted by adn_obs_spans_total immediately.
  void Flush(std::vector<Span>&& spans);

  // Drain every per-thread event ring into the central store. Called
  // implicitly by every query API; call it explicitly before reading
  // event counters or exporting. Single consumer at a time.
  void Collect() const;

  // Spans of one trace, in causal (recording) order.
  std::vector<Span> SpansForTrace(uint64_t trace_id) const;
  // Every resident span, oldest first.
  std::vector<Span> AllSpans() const;
  // Trace ids currently resident, most recent last.
  std::vector<uint64_t> TraceIds() const;
  // Resident non-span events (burst markers, reconfig/swap transitions),
  // oldest first.
  std::vector<TraceEvent> Events() const;

  void Clear();

  static Tracer& Default();

 private:
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> sample_every_{1};
  mutable std::mutex mu_;
  // The collected store (mutable: query APIs Collect() on read).
  mutable std::deque<Span> ring_;
  mutable std::deque<TraceEvent> events_;
  size_t capacity_ = 4096;
};

// RAII root scope for one RPC on one processor. If the tracer declines the
// trace (disabled / not sampled / a scope already active on this thread)
// the scope is inert and costs two loads. Otherwise it installs the
// thread-local context, opens the root span (named `root_name`), and on
// destruction closes it and flushes the staged spans to the ring.
// Production call sites use the id overload with names interned once at
// registration; the string_view overload interns per call (setup/tests).
class RpcTraceScope {
 public:
  RpcTraceScope(uint64_t trace_id, Tier tier, NameId processor_id,
                NameId root_name_id, Tracer& tracer = Tracer::Default());
  RpcTraceScope(uint64_t trace_id, Tier tier, std::string_view processor,
                std::string_view root_name, Tracer& tracer = Tracer::Default());
  ~RpcTraceScope();

  RpcTraceScope(const RpcTraceScope&) = delete;
  RpcTraceScope& operator=(const RpcTraceScope&) = delete;

  bool active() const { return active_; }

 private:
  Tracer* tracer_ = nullptr;
  bool active_ = false;
  TraceContext ctx_;
};

}  // namespace adn::obs
