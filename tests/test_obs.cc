// The observability plane: metrics registry semantics, tracing mechanics,
// the documented telemetry contract (docs/OBSERVABILITY.md must enumerate
// every metric the data plane registers), and the three-layer span-tree
// parity guarantee — one fig5 RPC yields the same element spans in the same
// order whichever execution layer carries it.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "compiler/chain_compile.h"
#include "compiler/lower.h"
#include "controller/telemetry.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/adn_path.h"
#include "mrpc/engine.h"
#include "obs/event_ring.h"
#include "obs/export.h"
#include "obs/intern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/simulator.h"
#include "sim/station.h"
#include "stack/adn_filter.h"
#include "stack/proto_codec.h"

namespace adn {
namespace {

using obs::MetricsRegistry;
using obs::Tracer;

// Every metric name the data plane can register — the telemetry contract.
// docs/OBSERVABILITY.md must list each of these; conversely, anything the
// registry holds after exercising the layers must be on this list.
constexpr const char* kContractMetricNames[] = {
    "adn_chain_drops_total",      "adn_chain_rpcs_total",
    "adn_ctrl_pause_ns",          "adn_ctrl_queued_msgs_total",
    "adn_ctrl_reconfigs_total",   "adn_element_latency_ns",
    "adn_engine_utilization",     "adn_envoy_aborts_total",
    "adn_envoy_messages_total",   "adn_mesh_aborts_total",
    "adn_mesh_messages_total",    "adn_obs_events_dropped_total",
    "adn_obs_events_total",       "adn_obs_spans_evicted_total",
    "adn_obs_spans_total",        "adn_obs_traces_sampled_total",
    "adn_reconfig_blackout_ns",   "adn_reconfig_delta_replayed",
    "adn_reconfig_op_ns",
    "adn_rpc_latency_ns",         "adn_sim_busy_ns_total",
    "adn_sim_jobs_total",         "adn_sim_link_bytes_total",
    "adn_sim_link_messages_total", "adn_sim_queue_delay_ns",
    "adn_slo_burn",               "adn_slo_drop_fraction",
    "adn_slo_p99_ns",
};

// Fresh global obs state; call first in every test (instrument references
// cached before a Reset are stale, so build all chains after this).
void ResetObs() {
  obs::SetEnabled(false);
  // Discard ring-buffered events BEFORE the registry reset, so the drain's
  // fold-in of event totals lands in the instruments being discarded.
  Tracer::Default().Clear();
  obs::EventRingRegistry::Default().Reset();
  MetricsRegistry::Default().Reset();
  Tracer::Default().SetTracingEnabled(false);
  Tracer::Default().SetSampleEvery(1);
  Tracer::Default().SetRingCapacity(4096);
}

// --- Instruments ------------------------------------------------------------

TEST(Metrics, CounterWrapsModulo64Bits) {
  ResetObs();
  obs::Counter c;
  c.Inc(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(c.Value(), std::numeric_limits<uint64_t>::max());
  c.Inc(5);  // wraps: max + 5 == 4 mod 2^64
  EXPECT_EQ(c.Value(), 4u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.Set(0.5);
  EXPECT_DOUBLE_EQ(g.Value(), 0.5);
  g.Add(0.25);
  EXPECT_DOUBLE_EQ(g.Value(), 0.75);
  g.Set(-1.5);
  EXPECT_DOUBLE_EQ(g.Value(), -1.5);
}

TEST(Metrics, HistogramBucketBoundariesAreLe) {
  obs::Histogram h({10.0, 20.0, 30.0});
  h.Observe(10.0);   // == bound -> bucket 0 (le semantics)
  h.Observe(10.5);   // -> bucket 1
  h.Observe(20.0);   // == bound -> bucket 1
  h.Observe(31.0);   // past the last bound -> +Inf bucket
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 0u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 71.5);
}

TEST(Metrics, HistogramQuantileInterpolatesAndClamps) {
  obs::Histogram h({100.0, 200.0});
  for (int i = 0; i < 10; ++i) h.Observe(50.0);   // all in bucket 0
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1e-9);       // 5/10 through [0,100]
  h.Observe(1e9);                                 // one in +Inf
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 200.0);       // clamps to last bound
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameNameAndLabels) {
  ResetObs();
  MetricsRegistry& reg = MetricsRegistry::Default();
  obs::Counter& a = reg.GetCounter("x_total", "k=\"v\"");
  obs::Counter& b = reg.GetCounter("x_total", "k=\"v\"");
  obs::Counter& other = reg.GetCounter("x_total", "k=\"w\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.Inc(3);
  obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricSample* s = snap.Find("x_total", "k=\"v\"");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 3.0);
  EXPECT_EQ(snap.Find("x_total", "k=\"missing\""), nullptr);
}

// --- Tracer -----------------------------------------------------------------

TEST(Trace, SamplesOneInN) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  Tracer::Default().SetSampleEvery(3);
  for (uint64_t id = 0; id < 9; ++id) {
    obs::RpcTraceScope scope(id, obs::Tier::kEngine, "p", "rpc");
    EXPECT_EQ(scope.active(), id % 3 == 0);
  }
  EXPECT_EQ(Tracer::Default().TraceIds().size(), 3u);  // ids 0, 3, 6
  ResetObs();
}

TEST(Trace, RingEvictsOldestAndCountsEvictions) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  Tracer::Default().SetRingCapacity(4);
  for (uint64_t id = 1; id <= 6; ++id) {
    obs::RpcTraceScope scope(id, obs::Tier::kEngine, "p", "rpc");
  }
  // 6 root spans through a 4-slot ring: 2 evicted, newest 4 resident.
  std::vector<obs::Span> resident = Tracer::Default().AllSpans();
  ASSERT_EQ(resident.size(), 4u);
  EXPECT_EQ(resident.front().trace_id, 3u);
  EXPECT_EQ(resident.back().trace_id, 6u);
  obs::MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("adn_obs_spans_total")->value, 6.0);
  EXPECT_DOUBLE_EQ(snap.Find("adn_obs_spans_evicted_total")->value, 2.0);
  ResetObs();
}

TEST(Trace, ChildSpansDefaultParentToRoot) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  {
    obs::RpcTraceScope scope(7, obs::Tier::kMesh, "sidecar", "rpc");
    ASSERT_TRUE(scope.active());
    obs::TraceContext* ctx = obs::CurrentTrace();
    ASSERT_NE(ctx, nullptr);
    size_t child = ctx->OpenSpan("stage-a");
    ctx->CloseSpan(child);
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);  // scope uninstalled
  std::vector<obs::Span> spans = Tracer::Default().SpansForTrace(7);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name(), "rpc");
  EXPECT_EQ(spans[1].name(), "stage-a");
  EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
  EXPECT_GE(spans[1].end_ns, spans[1].start_ns);
  ResetObs();
}

TEST(Metrics, ObserveNMatchesRepeatedObserve) {
  // The burst path batches per-segment histogram updates into one ObserveN
  // per burst; it must be indistinguishable from n scalar Observe calls.
  obs::MetricsRegistry registry;
  obs::Histogram& batched = registry.GetHistogram("batched_ns");
  obs::Histogram& scalar = registry.GetHistogram("scalar_ns");
  const double values[] = {0.0, 17.0, 300.0, 4096.0, 1e9};
  for (double v : values) {
    batched.ObserveN(v, 7);
    for (int i = 0; i < 7; ++i) scalar.Observe(v);
  }
  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::MetricSample* b = snap.Find("batched_ns");
  const obs::MetricSample* s = snap.Find("scalar_ns");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(b->count, s->count);
  EXPECT_DOUBLE_EQ(b->value, s->value);  // histogram sum
  EXPECT_EQ(b->bucket_counts, s->bucket_counts);
  EXPECT_DOUBLE_EQ(batched.Quantile(0.99), scalar.Quantile(0.99));
}

TEST(Trace, EventRingDrainsFifoAndCountsDrops) {
  // Private ring, single thread: accepted events come back in emit order,
  // overflow is dropped and counted, and a drain frees capacity again.
  obs::EventRing ring(8);  // rounds to capacity 8
  const size_t cap = ring.capacity();
  for (uint64_t i = 1; i <= cap + 3; ++i) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBurst;
    e.span_id = i;
    EXPECT_EQ(ring.TryEmit(e), i <= cap);
  }
  EXPECT_EQ(ring.emitted(), cap);
  EXPECT_EQ(ring.dropped(), 3u);
  std::vector<obs::TraceEvent> buf(cap + 8);
  ASSERT_EQ(ring.Drain(buf.data(), buf.size()), cap);
  for (size_t i = 0; i < cap; ++i) EXPECT_EQ(buf[i].span_id, i + 1);
  EXPECT_EQ(ring.size(), 0u);
  obs::TraceEvent again;
  again.span_id = 99;
  EXPECT_TRUE(ring.TryEmit(again));  // space reclaimed by the drain
}

TEST(Trace, EventCountersFoldInAtDrainTimeNotPerEmit) {
  // Documented timing contract (docs/OBSERVABILITY.md "Event-counter
  // timing"): emitting touches only the producer's ring; the registry's
  // adn_obs_events_* series move when a consumer drains.
  ResetObs();
  obs::SetEnabled(true);
  for (uint64_t i = 0; i < 5; ++i) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBurst;
    e.span_id = obs::NextSpanId();
    e.arg = 32;
    obs::EmitEvent(e);
  }
  obs::MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(before.Find("adn_obs_events_total"), nullptr);
  Tracer::Default().Collect();  // consumer drain syncs the counters
  obs::MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  const obs::MetricSample* total = after.Find("adn_obs_events_total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value, 5.0);
  // The burst markers are queryable from the collected store.
  size_t bursts = 0;
  for (const obs::TraceEvent& e : Tracer::Default().Events()) {
    if (e.kind == obs::EventKind::kBurst && e.arg == 32) ++bursts;
  }
  EXPECT_EQ(bursts, 5u);
  ResetObs();
}

TEST(Trace, ReconfigEventNamesAreInternedRuntimeConstants) {
  // The tools/tests enumeration must cover exactly the three first-class
  // reconfiguration transitions, each round-trippable through the interner
  // (the ring stores NameIds, the exporter resolves them back).
  const std::vector<std::string_view>& names = obs::ReconfigEventNames();
  EXPECT_EQ(names.size(), 3u);
  for (std::string_view expected :
       {obs::kEventReconfigDetach, obs::kEventReconfigCutover,
        obs::kEventReconfigSwapProgram}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    const obs::NameId id = obs::InternName(expected);
    EXPECT_EQ(obs::NameOfId(id), expected);
  }
}

// --- Layer instrumentation ---------------------------------------------------

std::shared_ptr<const ir::ElementIr> Fig5Element(const std::string& name) {
  static auto lowered = [] {
    auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto program = compiler::LowerProgram(*parsed);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return *program;
  }();
  auto element = lowered.FindElement(name);
  EXPECT_NE(element, nullptr) << name;
  return element;
}

void SeedAcl(ir::ElementInstance& acl) {
  for (const char* user : {"alice", "bob", "carol", "dave"}) {
    (void)acl.FindTable("ac_tab")->Insert(
        {rpc::Value(std::string(user)), rpc::Value("W")});
  }
}

rpc::Message Fig5Request(uint64_t id) {
  return rpc::Message::MakeRequest(
      id, "Echo.Call",
      {{"username", rpc::Value(std::string("alice"))},
       {"object_id", rpc::Value(static_cast<int64_t>(id))},
       {"payload", rpc::Value(Bytes{1, 2, 3, 4})}});
}

mrpc::EngineChain MakeFig5Chain(uint64_t seed) {
  mrpc::EngineChain chain;
  for (const char* name : {"Logging", "Acl", "Fault"}) {
    auto stage = std::make_unique<mrpc::GeneratedStage>(Fig5Element(name),
                                                        seed);
    if (std::string_view(name) == "Acl") SeedAcl(stage->instance());
    chain.AddStage(std::move(stage));
  }
  return chain;
}

// The element-name subsequence of a trace — the tree shape under test
// (layer-specific boundary spans like proto-decode filtered out).
std::vector<std::string> ElementSpanNames(const std::vector<obs::Span>& spans) {
  std::vector<std::string> out;
  for (const obs::Span& s : spans) {
    if (s.name() == "Logging" || s.name() == "Acl" || s.name() == "Fault") {
      out.push_back(std::string(s.name()));
    }
  }
  return out;
}

// Element-name children of each root span (a root's parent is not resident
// in the trace), in recording order — one entry per processor-direction
// scope. Response-direction scopes appear too (Logging runs on BOTH), so
// layer comparisons match against the request-direction entry.
std::vector<std::vector<std::string>> RootElementChildren(
    const std::vector<obs::Span>& spans) {
  std::vector<std::vector<std::string>> out;
  for (const obs::Span& root : spans) {
    bool resident_parent = false;
    for (const obs::Span& p : spans) {
      if (p.span_id == root.parent_id) resident_parent = true;
    }
    if (resident_parent) continue;
    std::vector<std::string> names;
    for (const obs::Span& c : spans) {
      if (c.parent_id != root.span_id) continue;
      if (c.name() == "Logging" || c.name() == "Acl" || c.name() == "Fault") {
        names.push_back(std::string(c.name()));
      }
    }
    out.push_back(std::move(names));
  }
  return out;
}

// Every element span must hang off a root span named `root` (single-level
// tree: root -> elements, in chain order).
void ExpectElementsUnderRoot(const std::vector<obs::Span>& spans,
                             const std::string& root) {
  for (const obs::Span& s : spans) {
    if (s.name() != "Logging" && s.name() != "Acl" && s.name() != "Fault") {
      continue;
    }
    const obs::Span* parent = nullptr;
    for (const obs::Span& p : spans) {
      if (p.span_id == s.parent_id) parent = &p;
    }
    ASSERT_NE(parent, nullptr) << s.name();
    EXPECT_EQ(parent->name(), root) << s.name();
  }
}

TEST(Obs, KillSwitchMakesInstrumentationANoOp) {
  ResetObs();  // obs disabled
  mrpc::EngineChain chain = MakeFig5Chain(/*seed=*/3);
  for (uint64_t id = 0; id < 50; ++id) {
    rpc::Message m = Fig5Request(id);
    (void)chain.Process(m, 0);
  }
  // Construction registers the element histograms (cheap, one-time); the
  // hot path must not have recorded anything.
  for (const obs::MetricSample& s :
       MetricsRegistry::Default().Snapshot().samples) {
    EXPECT_DOUBLE_EQ(s.value, 0.0) << s.name;
    EXPECT_EQ(s.count, 0u) << s.name;
  }
  EXPECT_TRUE(Tracer::Default().AllSpans().empty());
}

TEST(Obs, EngineLayerEmitsSpanTreeAndCounters) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  mrpc::EngineChain chain = MakeFig5Chain(/*seed=*/3);
  chain.set_trace_identity(obs::Tier::kEngine, "test-engine");
  rpc::Message m = Fig5Request(42);
  ASSERT_EQ(chain.Process(m, 0).outcome, ir::ProcessOutcome::kPass);

  std::vector<obs::Span> spans = Tracer::Default().SpansForTrace(42);
  EXPECT_EQ(ElementSpanNames(spans),
            (std::vector<std::string>{"Logging", "Acl", "Fault"}));
  ExpectElementsUnderRoot(spans, "rpc");
  for (const obs::Span& s : spans) {
    EXPECT_EQ(s.tier, obs::Tier::kEngine);
    EXPECT_EQ(s.processor(), "test-engine");
  }

  obs::MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_DOUBLE_EQ(
      snap.Find("adn_chain_rpcs_total", "processor=\"test-engine\"")->value,
      1.0);
  const obs::MetricSample* lat =
      snap.Find("adn_element_latency_ns", "element=\"Acl\"");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);
  ResetObs();
}

TEST(Obs, InterpreterTierEmitsSameSpansAsCompiled) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  // Run the fig5 elements through the interpreter (reference semantics)
  // under an engine scope; the span tree must match the compiled tier's.
  ir::ElementInstance logging(Fig5Element("Logging"), 3);
  ir::ElementInstance acl(Fig5Element("Acl"), 3);
  ir::ElementInstance fault(Fig5Element("Fault"), 3);
  SeedAcl(acl);
  rpc::Message m = Fig5Request(9);
  {
    obs::RpcTraceScope scope(9, obs::Tier::kEngine, "interp-engine", "rpc");
    for (ir::ElementInstance* inst : {&logging, &acl, &fault}) {
      ASSERT_EQ(inst->Process(m, 0).outcome, ir::ProcessOutcome::kPass);
    }
  }
  std::vector<obs::Span> spans = Tracer::Default().SpansForTrace(9);
  EXPECT_EQ(ElementSpanNames(spans),
            (std::vector<std::string>{"Logging", "Acl", "Fault"}));
  ExpectElementsUnderRoot(spans, "rpc");
  ResetObs();
}

// One RPC, three execution layers, one span-tree shape: the tentpole
// guarantee. Engine (compiled stages), mesh (AdnChainFilter inside the
// sidecar), and the simulated path must each yield root "rpc" with children
// [Logging, Acl, Fault] in chain order.
TEST(Obs, Fig5SpanTreeIsIdenticalAcrossEngineMeshAndSimLayers) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);

  // --- Engine layer ---------------------------------------------------------
  mrpc::EngineChain chain = MakeFig5Chain(/*seed=*/3);
  rpc::Message m = Fig5Request(100);
  ASSERT_EQ(chain.Process(m, 0).outcome, ir::ProcessOutcome::kPass);
  std::vector<obs::Span> engine_spans = Tracer::Default().SpansForTrace(100);
  std::vector<std::string> engine_names = ElementSpanNames(engine_spans);
  ExpectElementsUnderRoot(engine_spans, "rpc");

  // --- Mesh layer (sidecar filter) -----------------------------------------
  rpc::Schema schema;
  (void)schema.AddColumn({"username", rpc::ValueType::kText, false});
  (void)schema.AddColumn({"object_id", rpc::ValueType::kInt, false});
  (void)schema.AddColumn({"payload", rpc::ValueType::kBytes, false});
  std::vector<std::shared_ptr<const ir::ElementIr>> elems = {
      Fig5Element("Logging"), Fig5Element("Acl"), Fig5Element("Fault")};
  auto program = compiler::CompileChainProgram(elems, {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  stack::AdnChainFilter filter(*program, elems, schema, /*seed=*/3);
  SeedAcl(filter.instance(1));
  stack::ProtoSchema proto(schema);
  auto body = stack::ProtoEncode(Fig5Request(0), proto);
  ASSERT_TRUE(body.ok());
  Bytes wire = *body;
  stack::HeaderList headers;
  Rng rng(1);
  std::vector<std::string> log;
  stack::FilterContext ctx;
  ctx.headers = &headers;
  ctx.body = &wire;
  ctx.is_request = true;
  ctx.stream_id = 2 * 200 + 1;  // gRPC stream for rpc_id 200
  ctx.rng = &rng;
  ctx.access_log = &log;
  ASSERT_EQ(filter.OnMessage(ctx).action, stack::FilterAction::kContinue);
  std::vector<obs::Span> mesh_spans = Tracer::Default().SpansForTrace(200);
  std::vector<std::string> mesh_names = ElementSpanNames(mesh_spans);
  ExpectElementsUnderRoot(mesh_spans, "rpc");
  // The mesh pays the proxy boundary: decode/encode spans ride alongside.
  bool saw_decode = false, saw_encode = false;
  for (const obs::Span& s : mesh_spans) {
    saw_decode |= s.name() == "proto-decode";
    saw_encode |= s.name() == "proto-encode";
    EXPECT_EQ(s.tier, obs::Tier::kMesh);
  }
  EXPECT_TRUE(saw_decode);
  EXPECT_TRUE(saw_encode);

  // --- Simulated path -------------------------------------------------------
  // All three stages on the server engine, 20 closed-loop RPCs. Fault drops
  // ~5%, so probe resident traces for one that passed all three elements.
  mrpc::AdnPathConfig config;
  config.concurrency = 1;
  config.measured_requests = 20;
  config.warmup_requests = 0;
  config.make_request = [](uint64_t id, Rng&) { return Fig5Request(id); };
  for (const char* name : {"Logging", "Acl", "Fault"}) {
    config.stages.push_back(
        {mrpc::Site::kServerEngine, [name] {
           auto stage = std::make_unique<mrpc::GeneratedStage>(
               Fig5Element(name), /*seed=*/3);
           if (std::string_view(name) == "Acl") SeedAcl(stage->instance());
           return stage;
         }});
  }
  config.header.fields = {{"username", rpc::ValueType::kText},
                          {"object_id", rpc::ValueType::kInt},
                          {"payload", rpc::ValueType::kBytes}};
  (void)mrpc::RunAdnPathExperiment(config);
  // A sim trace holds two "rpc" roots: the request pass (Logging, Acl,
  // Fault) and the response pass back through the same server-engine chain
  // (just Logging — it runs on BOTH directions). Pick the request-direction
  // root for the cross-layer comparison.
  std::vector<std::string> sim_names;
  std::vector<obs::Span> sim_spans;
  for (uint64_t id : Tracer::Default().TraceIds()) {
    if (id == 100 || id == 200) continue;  // the engine/mesh traces above
    std::vector<obs::Span> spans = Tracer::Default().SpansForTrace(id);
    for (std::vector<std::string>& names : RootElementChildren(spans)) {
      if (names.size() == 3) {
        sim_spans = std::move(spans);
        sim_names = std::move(names);
        break;
      }
    }
    if (!sim_names.empty()) break;
  }
  ASSERT_FALSE(sim_names.empty()) << "no fully-passed sim trace sampled";
  ExpectElementsUnderRoot(sim_spans, "rpc");
  bool saw_sim_tier = false;
  for (const obs::Span& s : sim_spans) {
    if (s.tier == obs::Tier::kSim && s.processor() == "server-engine") {
      saw_sim_tier = true;
    }
  }
  EXPECT_TRUE(saw_sim_tier);

  // The contract: same stage names, same order, on every layer.
  EXPECT_EQ(engine_names,
            (std::vector<std::string>{"Logging", "Acl", "Fault"}));
  EXPECT_EQ(mesh_names, engine_names);
  EXPECT_EQ(sim_names, engine_names);
  ResetObs();
}

// --- JSON export -------------------------------------------------------------

TEST(Obs, ExportJsonContainsMetricsAndNestedTraces) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  mrpc::EngineChain chain = MakeFig5Chain(/*seed=*/3);
  chain.set_trace_identity(obs::Tier::kEngine, "json-engine");
  rpc::Message m = Fig5Request(5);
  ASSERT_EQ(chain.Process(m, 0).outcome, ir::ProcessOutcome::kPass);

  std::string json = obs::ExportJson();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"traces\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc\""), std::string::npos);
  // Children nest under the root span's "children" array.
  const size_t root = json.find("\"name\":\"rpc\"");
  const size_t children = json.find("\"children\":[", root);
  ASSERT_NE(children, std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Logging\"", children), std::string::npos);
  EXPECT_NE(json.find("adn_chain_rpcs_total"), std::string::npos);
  ResetObs();
}

TEST(Obs, ExportChromeTraceJsonEmitsSpansAndInstantEvents) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  mrpc::EngineChain chain = MakeFig5Chain(/*seed=*/3);
  chain.set_trace_identity(obs::Tier::kEngine, "trace-engine");
  rpc::Message m = Fig5Request(5);
  ASSERT_EQ(chain.Process(m, 0).outcome, ir::ProcessOutcome::kPass);
  obs::TraceEvent reconfig;  // one instant event alongside the spans
  reconfig.kind = obs::EventKind::kReconfig;
  reconfig.name_id = obs::InternName(obs::kEventReconfigCutover);
  reconfig.processor_id = obs::InternName("trace-engine");
  reconfig.start_ns = reconfig.end_ns = obs::NowNs();
  reconfig.arg = 3;
  obs::EmitEvent(reconfig);

  const std::string json = obs::ExportChromeTraceJson();
  // Spans render as complete events on their processor's thread row ...
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rpc\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Logging\""), std::string::npos);
  // ... with thread_name metadata naming the processor ...
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("trace-engine"), std::string::npos);
  // ... and reconfig transitions as global instant events.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"reconfig.cutover\""), std::string::npos);
  ResetObs();
}

// --- Controller feedback (Figure 3) ------------------------------------------

TEST(Telemetry, IngestSnapshotSeedsBaselinesThenDiffsWindows) {
  ResetObs();
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("adn_chain_rpcs_total", "processor=\"p\"").Inc(100);
  reg.GetCounter("adn_chain_drops_total", "processor=\"p\"").Inc(20);
  reg.GetGauge("adn_engine_utilization", "processor=\"p\"").Set(0.9);

  // First snapshot: counters carry pre-watch history, so they only seed the
  // baselines (delta 0). Gauges are instantaneous and flow immediately.
  controller::TelemetryHub hub;
  ASSERT_TRUE(hub.IngestSnapshot(reg.Snapshot(), 0, 100).ok());
  EXPECT_EQ(hub.reports_ingested(), 1u);
  EXPECT_DOUBLE_EQ(hub.SmoothedUtilization("p"), 0.9);
  EXPECT_EQ(hub.Advise("p"), controller::ScalingAdvice::kScaleOut);
  EXPECT_TRUE(hub.DropAlerts().empty());  // 20 lifetime drops: not a window

  // Second window: counters are cumulative; the hub diffs against the seed.
  reg.GetCounter("adn_chain_rpcs_total", "processor=\"p\"").Inc(100);
  reg.GetCounter("adn_chain_drops_total", "processor=\"p\"").Inc(30);
  reg.GetGauge("adn_engine_utilization", "processor=\"p\"").Set(0.1);
  ASSERT_TRUE(hub.IngestSnapshot(reg.Snapshot(), 100, 200).ok());
  EXPECT_EQ(hub.reports_ingested(), 2u);
  EXPECT_DOUBLE_EQ(hub.SmoothedUtilization("p"), 0.5);  // (0.9 + 0.1) / 2
  // This window: 100 rpcs, 30 drops -> 30 / 100 = 0.3 > 0.1 threshold.
  EXPECT_EQ(hub.DropAlerts(), std::vector<std::string>{"p"});
}

// --- Windowed series (obs/window.h) ------------------------------------------

TEST(Window, SnapshotHistogramQuantileEmpty) {
  obs::SnapshotHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(Window, SnapshotHistogramQuantileSingleBucket) {
  // All mass in (100, 250]: every quantile interpolates inside that bucket.
  obs::SnapshotHistogram h;
  h.upper_bounds = {100, 250, 500};
  h.bucket_counts = {0, 10, 0, 0};
  h.count = 10;
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 175.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 250.0);
}

TEST(Window, SnapshotHistogramQuantileOverflowBucketClampsToLastBound) {
  // Mass in the +Inf bucket: quantiles there clamp to the last finite bound
  // rather than inventing a value beyond the instrument's range.
  obs::SnapshotHistogram h;
  h.upper_bounds = {100, 250};
  h.bucket_counts = {2, 0, 8};  // 8 of 10 beyond 250
  h.count = 10;
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 250.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.1), 50.0);
}

TEST(Window, SnapshotHistogramMatchesLiveHistogramQuantile) {
  ResetObs();
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Default();
  obs::Histogram& live = reg.GetHistogram("adn_element_latency_ns",
                                          "element=\"q\"");
  for (int i = 1; i <= 1000; ++i) live.Observe(static_cast<double>(i * 7));
  const obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  const obs::SnapshotHistogram h =
      obs::SnapshotHistogram::FromSample(snap.samples[0]);
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), live.Quantile(q)) << "q=" << q;
  }
  ResetObs();
}

TEST(Window, WindowedSeriesSeedsThenRatesAndHistogramDeltas) {
  ResetObs();
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Default();
  obs::Counter& rpcs = reg.GetCounter("adn_chain_rpcs_total",
                                      "processor=\"w\"");
  obs::Histogram& lat = reg.GetHistogram("adn_rpc_latency_ns", "tier=\"t\"");
  rpcs.Inc(500);
  lat.Observe(200);

  obs::WindowedSeries series;
  series.Ingest(reg.Snapshot(), 0, 1'000'000'000);
  // First window seeds: the 500 pre-existing rpcs are baseline, not rate.
  EXPECT_EQ(series.CounterDelta("adn_chain_rpcs_total", "processor=\"w\""),
            0u);
  const obs::SnapshotHistogram* d0 =
      series.HistogramDelta("adn_rpc_latency_ns", "tier=\"t\"");
  ASSERT_NE(d0, nullptr);
  EXPECT_TRUE(d0->empty());

  rpcs.Inc(250);
  for (int i = 0; i < 8; ++i) lat.Observe(400);
  series.Ingest(reg.Snapshot(), 1'000'000'000, 2'000'000'000);
  EXPECT_EQ(series.CounterDelta("adn_chain_rpcs_total", "processor=\"w\""),
            250u);
  EXPECT_DOUBLE_EQ(
      series.CounterRatePerSec("adn_chain_rpcs_total", "processor=\"w\""),
      250.0);
  const obs::SnapshotHistogram* d1 =
      series.HistogramDelta("adn_rpc_latency_ns", "tier=\"t\"");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->count, 8u);  // only this window's observations
  EXPECT_EQ(series.FirstLabels("adn_rpc_latency_ns"), "tier=\"t\"");
  EXPECT_EQ(series.windows(), 2u);
  ResetObs();
}

TEST(Window, WindowedSeriesKeepsBoundedHistory) {
  ResetObs();
  obs::SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Default();
  obs::Counter& c = reg.GetCounter("adn_chain_rpcs_total", "processor=\"k\"");
  obs::WindowedSeries series(/*keep_windows=*/3);
  for (int i = 0; i < 10; ++i) {
    c.Inc(static_cast<uint64_t>(i + 1));
    series.Ingest(reg.Snapshot(), i, i + 1);
  }
  EXPECT_EQ(series.windows(), 3u);
  // Window(0) is the most recent (delta 10), Window(2) the oldest kept (8).
  EXPECT_EQ(series.Window(0).counter_deltas.at(
                "adn_chain_rpcs_total|processor=\"k\""),
            10u);
  EXPECT_EQ(series.Window(2).counter_deltas.at(
                "adn_chain_rpcs_total|processor=\"k\""),
            8u);
  ResetObs();
}

// --- Documentation contract --------------------------------------------------

TEST(Contract, ObservabilityDocEnumeratesEveryMetric) {
  std::ifstream doc(std::string(SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(doc.good()) << "docs/OBSERVABILITY.md missing";
  std::stringstream buf;
  buf << doc.rdbuf();
  const std::string text = buf.str();
  for (const char* name : kContractMetricNames) {
    EXPECT_NE(text.find(name), std::string::npos)
        << "docs/OBSERVABILITY.md does not document " << name;
  }
}

TEST(Contract, RegistryNamesStayWithinTheDocumentedSet) {
  ResetObs();
  obs::SetEnabled(true);
  Tracer::Default().SetTracingEnabled(true);
  // Exercise the layers that register organically in-process: engine chain,
  // tracer flush, sim stations and links.
  mrpc::EngineChain chain = MakeFig5Chain(/*seed=*/3);
  for (uint64_t id = 0; id < 10; ++id) {
    rpc::Message m = Fig5Request(id);
    (void)chain.Process(m, 0);
  }
  sim::Simulator simulator;
  sim::CpuStation station(&simulator, "contract-station", 1);
  (void)station.Submit(10, nullptr);
  sim::Link link(&simulator, "contract-link", 100, 10.0);
  (void)link.Send(64, nullptr);
  (void)MetricsRegistry::Default().GetGauge("adn_engine_utilization",
                                            "processor=\"engine\"");
  for (const std::string& name : MetricsRegistry::Default().MetricNames()) {
    bool documented = false;
    for (const char* contract : kContractMetricNames) {
      if (name == contract) documented = true;
    }
    EXPECT_TRUE(documented)
        << name << " is registered but absent from the telemetry contract "
        << "(add it to docs/OBSERVABILITY.md and kContractMetricNames)";
  }
  ResetObs();
}

}  // namespace
}  // namespace adn
