// Response-cache sweep (E18): how much does memoizing idempotent RPCs at the
// head of the chain buy, and where should the cache live?
//
// Chain: RespCache -> Logging -> Acl -> HashLb -> Compress
// (elements::CacheChainSource(); capacity 1024, TTL 5 s, KEY (object_id)).
// A hit at RespCache rewrites the request in place into the cached response
// and stops the chain (ProcessOutcome::kReply — docs/ARCHITECTURE.md
// "Reply-path short-circuit"); a miss runs the full chain, and the synthetic
// server response is routed back through the chain so the fill happens on
// the response path, exactly as deployed.
//
// Three phases:
//
//  1. Zipf sweep: skews {0.8, 0.99, 1.1, 1.3} over 10k objects, arena-backed
//     requests, per-message wall-clock sampling. Reports hit rate and
//     p50/p99 of the local processing latency, split hit vs miss — the miss
//     number IS the full-chain cost (request stages + response stages +
//     fill), so hit_p50 vs miss_p50 at the gate skew (1.1) is the
//     cached-hit speedup CI gates at >= 5x.
//  2. Alloc gate: warm a resident working set, then 50k hit-only arena
//     requests under the counting operator-new hooks. A hit decodes the
//     cached flat blob straight into the message arena (rpc/flat_wire.h),
//     so allocs/msg must be exactly 0 (tools/check_perf.py --max-allocs 0).
//  3. Placement ablation: place the compiled chain under kMinLatency (the
//     hit-rate-aware cost in controller/placement.cc pulls the cache toward
//     the client), then replay the recorded skew-1.1 hit/miss stream
//     through the planner's own analytic path model with the cache forced
//     to the client engine vs the server engine. The p50 delta is the
//     paper-shaped result: once hits dominate, placement decides whether
//     p50 is a local bounce or a full round trip.
//
// Writes BENCH_cache.json (schema in EXPERIMENTS.md E18), gated against
// bench/baselines/cache_baseline.json by tools/check_perf.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/arena.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/lower.h"
#include "controller/placement.h"
#include "core/workload.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/exec.h"
#include "mrpc/engine.h"
#include "rpc/intern.h"
#include "sim/cost_model.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

constexpr size_t kObjects = 10'000;
constexpr size_t kUsers = 256;
constexpr size_t kPayloadBytes = 64;
constexpr uint64_t kWarmMessages = 30'000;
constexpr uint64_t kSweepMessages = 120'000;
constexpr uint64_t kAllocMessages = 50'000;
constexpr double kGateSkew = 1.1;
constexpr double kSkews[] = {0.8, 0.99, 1.1, 1.3};

std::string User(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%04llu",
                static_cast<unsigned long long>(i % kUsers));
  return buf;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The cached chain on one engine: per-element GeneratedStage over seeded
// state tables. Every stage runs the ChainExecutor; the cache stage's
// program is a single kBuiltin.
struct Harness {
  mrpc::EngineChain chain;
  ir::ElementInstance* cache = nullptr;
  rpc::Table* log_tab = nullptr;
  bool ok = false;

  template <typename Lowered>
  explicit Harness(const Lowered& lowered) {
    static constexpr const char* kOrder[] = {"RespCache", "Logging", "Acl",
                                             "HashLb", "Compress"};
    for (const char* name : kOrder) {
      auto code = lowered.FindElement(name);
      if (code == nullptr) return;
      auto stage = std::make_unique<mrpc::GeneratedStage>(code, /*seed=*/7);
      ir::ElementInstance& inst = stage->instance();
      if (code->IsCache()) cache = &inst;
      if (std::string_view(name) == "Logging") {
        log_tab = inst.FindTable("log_tab");
      }
      if (std::string_view(name) == "Acl") {
        rpc::Table* acl = inst.FindTable("ac_tab");
        for (uint64_t u = 0; u < kUsers; ++u) {
          (void)acl->Insert({rpc::Value(User(u)), rpc::Value("W")});
        }
      }
      if (std::string_view(name) == "HashLb") {
        rpc::Table* endpoints = inst.FindTable("endpoints");
        for (int64_t shard = 0; shard < elements::kLbShards; ++shard) {
          (void)endpoints->Insert({rpc::Value(shard), rpc::Value(100 + shard)});
        }
      }
      chain.AddStage(std::move(stage));
    }
    ok = cache != nullptr && log_tab != nullptr;
  }
};

struct Fids {
  rpc::FieldId username = rpc::InternFieldName("username");
  rpc::FieldId object_id = rpc::InternFieldName("object_id");
  rpc::FieldId payload = rpc::InternFieldName("payload");
  rpc::FieldId result = rpc::InternFieldName("result");
};

// Interned once at startup; the hot loops only touch FieldIds.
Fids fids_;

rpc::Message MakeArenaRequest(common::ArenaPool& pool, const Fids& fids,
                              uint64_t id, uint64_t object,
                              const uint8_t* payload) {
  rpc::Message m = rpc::Message::WithArena(pool);
  m.set_id(id);
  m.set_method("Obj.Get");
  m.SetText(fids.username, User(object));
  m.SetField(fids.object_id, rpc::Value(static_cast<int64_t>(object)));
  m.SetBytes(fids.payload, std::span<const uint8_t>(payload, kPayloadBytes));
  return m;
}

// The server's reply for a miss: result text + payload, plus the username so
// Logging's response-path INSERT logs a real row.
rpc::Message ServerResponse(const rpc::Message& request, uint64_t object,
                            const uint8_t* payload) {
  return rpc::Message::MakeResponse(
      request,
      {{"username", rpc::Value(User(object))},
       {"result", rpc::Value("v" + std::to_string(object))},
       {"payload", rpc::Value(Bytes(payload, payload + kPayloadBytes))}});
}

int64_t Percentile(std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct SweepRow {
  double skew = 0;
  double hit_rate = 0;
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  int64_t hit_p50_ns = 0;
  int64_t miss_p50_ns = 0;
};

// One skew: fresh chain, zipf-driven warm, then a measured window with
// per-message timing. `hit_stream` (when non-null) records the measured
// window's hit/miss sequence for the placement replay.
SweepRow MeasureSkew(const compiler::ProgramIr& lowered, double skew,
                     std::vector<uint8_t>* hit_stream) {
  Harness h(lowered);
  if (!h.ok) return {};
  core::ZipfSampler zipf(kObjects, skew);
  Rng rng(static_cast<uint64_t>(skew * 1000) + 17);
  common::ArenaPool arena_pool(2048);
  uint8_t payload[kPayloadBytes];
  std::memset(payload, 0x5a, sizeof payload);

  uint64_t next_id = 1;
  // Simulated TTL clock: 1 us per message keeps the whole window far under
  // the 5 s TTL, so this phase measures capacity behavior, not expiry.
  auto run_one = [&](int64_t now, bool* hit) {
    const uint64_t object = zipf.Sample(rng);
    rpc::Message m =
        MakeArenaRequest(arena_pool, fids_, next_id++, object, payload);
    const int64_t t0 = NowNs();
    ir::ProcessResult r = h.chain.Process(m, now);
    if (r.outcome == ir::ProcessOutcome::kReply) {
      *hit = true;
      return NowNs() - t0;
    }
    *hit = false;
    rpc::Message resp = ServerResponse(m, object, payload);
    (void)h.chain.Process(resp, now);
    return NowNs() - t0;
  };

  bool hit = false;
  for (uint64_t i = 0; i < kWarmMessages; ++i) {
    (void)run_one(static_cast<int64_t>(i) * 1000, &hit);
  }
  h.log_tab->Clear();

  std::vector<int64_t> all, hits, misses;
  all.reserve(kSweepMessages);
  const uint64_t hits0 = h.cache->cache_hits();
  const uint64_t misses0 = h.cache->cache_misses();
  for (uint64_t i = 0; i < kSweepMessages; ++i) {
    const int64_t now = static_cast<int64_t>(kWarmMessages + i) * 1000;
    const int64_t ns = run_one(now, &hit);
    all.push_back(ns);
    (hit ? hits : misses).push_back(ns);
    if (hit_stream != nullptr) hit_stream->push_back(hit ? 1 : 0);
  }

  SweepRow row;
  row.skew = skew;
  const uint64_t seen = (h.cache->cache_hits() - hits0) +
                        (h.cache->cache_misses() - misses0);
  row.hit_rate = seen == 0 ? 0
                           : static_cast<double>(h.cache->cache_hits() - hits0) /
                                 static_cast<double>(seen);
  std::sort(all.begin(), all.end());
  std::sort(hits.begin(), hits.end());
  std::sort(misses.begin(), misses.end());
  row.p50_ns = Percentile(all, 0.50);
  row.p99_ns = Percentile(all, 0.99);
  row.hit_p50_ns = Percentile(hits, 0.50);
  row.miss_p50_ns = Percentile(misses, 0.50);
  return row;
}

// Allocations per message on the hit path: a resident working set smaller
// than capacity, arena-backed requests, counting hooks on. Also yields the
// tightest cached-hit ns/msg (no percentile sampling overhead in the loop).
struct AllocResult {
  double allocs_per_msg = -1;
  double hit_ns_per_msg = 0;
  uint64_t non_hits = 0;
};

AllocResult MeasureHitAllocs(const compiler::ProgramIr& lowered) {
  constexpr uint64_t kHotKeys = 512;  // < capacity: everything stays resident
  Harness h(lowered);
  AllocResult out;
  if (!h.ok) return out;
  common::ArenaPool arena_pool(2048);
  uint8_t payload[kPayloadBytes];
  std::memset(payload, 0x5a, sizeof payload);

  uint64_t next_id = 1;
  for (uint64_t k = 0; k < kHotKeys; ++k) {  // fill: one miss + fill per key
    rpc::Message m = MakeArenaRequest(arena_pool, fids_, next_id++, k, payload);
    if (h.chain.Process(m, 0).outcome != ir::ProcessOutcome::kPass) {
      ++out.non_hits;
    }
    rpc::Message resp = ServerResponse(m, k, payload);
    (void)h.chain.Process(resp, 0);
  }
  auto hit_loop = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      rpc::Message m = MakeArenaRequest(arena_pool, fids_, next_id++,
                                        i % kHotKeys, payload);
      if (h.chain.Process(m, 0).outcome != ir::ProcessOutcome::kReply) {
        ++out.non_hits;
      }
    }
  };
  hit_loop(20'000);  // warm: arena pool and interner reach steady state
  const uint64_t allocs0 = common::alloc_stats::TotalAllocs();
  const int64_t t0 = NowNs();
  hit_loop(kAllocMessages);
  out.hit_ns_per_msg = static_cast<double>(NowNs() - t0) /
                       static_cast<double>(kAllocMessages);
  out.allocs_per_msg =
      static_cast<double>(common::alloc_stats::TotalAllocs() - allocs0) /
      static_cast<double>(kAllocMessages);
  return out;
}

// --- Placement ablation ------------------------------------------------------
//
// The planner's own path model (controller/placement.cc): replying at site
// `idx` on the 8-site client-app -> ... -> server-app path saves the
// remaining kernel crossings, the wire (when the cache sits client-side of
// it) and the server handler. Replayed over the measured skew-1.1 hit/miss
// stream, it turns the hit rate into end-to-end percentiles per cache site.
double HitSavingNs(int idx, const sim::CostModel& model) {
  constexpr int kLast = 7;
  double saving = static_cast<double>(kLast - idx) * 2.0 *
                  static_cast<double>(model.kernel_crossing_ns);
  if (idx <= 2) {
    saving += 2.0 * static_cast<double>(model.wire_propagation_ns) +
              static_cast<double>(model.mrpc_tcp_tx_ns) +
              static_cast<double>(model.mrpc_tcp_rx_ns);
  }
  saving += static_cast<double>(model.app_handler_ns);
  return saving;
}

struct PlacementRow {
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
};

PlacementRow ReplayPlacement(const std::vector<uint8_t>& hit_stream, int idx,
                             const sim::CostModel& model) {
  const double full_trip = HitSavingNs(0, model);  // client-app round trip
  const double miss_ns = full_trip +
                         static_cast<double>(model.cache_lookup_ns) +
                         static_cast<double>(model.cache_fill_ns);
  const double hit_ns = full_trip - HitSavingNs(idx, model) +
                        static_cast<double>(model.cache_lookup_ns);
  std::vector<int64_t> lat;
  lat.reserve(hit_stream.size());
  for (uint8_t hit : hit_stream) {
    lat.push_back(static_cast<int64_t>(hit != 0 ? hit_ns : miss_ns));
  }
  std::sort(lat.begin(), lat.end());
  return {Percentile(lat, 0.50), Percentile(lat, 0.99)};
}

int Run() {
  if (!common::alloc_stats::Counting()) {
    std::fprintf(stderr,
                 "bench_cache: alloc hooks not linked — counts would read 0 "
                 "vacuously\n");
    return 1;
  }

  auto parsed = dsl::ParseProgram(elements::CacheChainSource());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) {
    std::fprintf(stderr, "lowering failed: %s\n",
                 lowered.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Response-cache sweep: RespCache(1024, 5s) -> Logging -> Acl -> HashLb\n"
      "-> Compress, %zu objects, %lluk msgs/skew after %lluk warm.\n"
      "Miss latency includes the response pass (fill) — it is the full-chain\n"
      "cost a hit short-circuits.\n\n",
      kObjects, static_cast<unsigned long long>(kSweepMessages / 1000),
      static_cast<unsigned long long>(kWarmMessages / 1000));

  std::printf("%-8s %10s %10s %10s %12s %12s\n", "skew", "hit-rate", "p50 ns",
              "p99 ns", "hit p50 ns", "miss p50 ns");
  std::printf("%.*s\n", 68,
              "--------------------------------------------------------------"
              "------");
  std::vector<SweepRow> rows;
  std::vector<uint8_t> gate_stream;
  SweepRow gate_row;
  for (double skew : kSkews) {
    const bool is_gate = skew == kGateSkew;
    SweepRow row =
        MeasureSkew(*lowered, skew, is_gate ? &gate_stream : nullptr);
    if (is_gate) gate_row = row;
    std::printf("%-8.2f %9.1f%% %10lld %10lld %12lld %12lld\n", row.skew,
                row.hit_rate * 100, static_cast<long long>(row.p50_ns),
                static_cast<long long>(row.p99_ns),
                static_cast<long long>(row.hit_p50_ns),
                static_cast<long long>(row.miss_p50_ns));
    rows.push_back(row);
  }

  const double speedup =
      gate_row.hit_p50_ns > 0
          ? static_cast<double>(gate_row.miss_p50_ns) /
                static_cast<double>(gate_row.hit_p50_ns)
          : 0;

  const AllocResult alloc = MeasureHitAllocs(*lowered);
  std::printf(
      "\nGate skew %.1f: hit rate %.1f%%, cached hit %.2fx faster than the\n"
      "full chain (%lld ns vs %lld ns at p50).\n"
      "Hit-only arena loop: %.1f ns/msg, %.4f allocs/msg (%llu unexpected\n"
      "non-hit outcomes).\n",
      kGateSkew, gate_row.hit_rate * 100, speedup,
      static_cast<long long>(gate_row.hit_p50_ns),
      static_cast<long long>(gate_row.miss_p50_ns), alloc.hit_ns_per_msg,
      alloc.allocs_per_msg, static_cast<unsigned long long>(alloc.non_hits));

  // Placement: what the solver picks, and what the pick is worth.
  compiler::Compiler compiler;
  auto compiled = compiler.CompileSource(elements::CacheChainSource(), {});
  if (!compiled.ok() || compiled->chains.empty()) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }
  const compiler::CompiledChain& chain = compiled->chains[0];
  controller::PathEnvironment env_default;
  controller::PathEnvironment env_no_app;
  env_no_app.allow_in_app = false;
  auto place_default = controller::PlaceChain(
      chain, env_default, controller::PlacementPolicy::kMinLatency);
  auto place_no_app = controller::PlaceChain(
      chain, env_no_app, controller::PlacementPolicy::kMinLatency);
  if (!place_default.ok() || !place_no_app.ok()) {
    std::fprintf(stderr, "placement failed\n");
    return 1;
  }
  const std::string site_default(
      mrpc::SiteName(place_default->sites[0]));
  const std::string site_no_app(mrpc::SiteName(place_no_app->sites[0]));

  const sim::CostModel& model = sim::CostModel::Default();
  const PlacementRow client_engine =
      ReplayPlacement(gate_stream, /*idx=kClientEngine*/ 1, model);
  const PlacementRow server_engine =
      ReplayPlacement(gate_stream, /*idx=kServerEngine*/ 6, model);
  const double p50_delta_us =
      static_cast<double>(server_engine.p50_ns - client_engine.p50_ns) / 1e3;

  std::printf(
      "\nPlacement (kMinLatency): cache lands on %s (default env), %s with\n"
      "in-app processing disallowed. Replaying the skew-%.1f hit stream\n"
      "through the planner's path model:\n\n"
      "%-16s %12s %12s\n", site_default.c_str(), site_no_app.c_str(),
      kGateSkew, "cache site", "p50 us", "p99 us");
  std::printf("%-16s %12.1f %12.1f\n", "client-engine",
              static_cast<double>(client_engine.p50_ns) / 1e3,
              static_cast<double>(client_engine.p99_ns) / 1e3);
  std::printf("%-16s %12.1f %12.1f\n", "server-engine",
              static_cast<double>(server_engine.p50_ns) / 1e3,
              static_cast<double>(server_engine.p99_ns) / 1e3);
  std::printf("\np50 delta: %.1f us — at %.0f%% hit rate the cache site "
              "decides whether\nthe median request crosses the wire.\n",
              p50_delta_us, gate_row.hit_rate * 100);

  std::FILE* f = std::fopen("BENCH_cache.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(
      f,
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"chain\": \"cached (RespCache -> Logging -> Acl -> HashLb -> "
      "Compress)\",\n"
      "  \"objects\": %zu,\n"
      "  \"capacity\": 1024,\n"
      "  \"messages_per_skew\": %llu,\n"
      "  \"gate_skew\": %.2f,\n"
      "  \"hit_rate\": %.4f,\n"
      "  \"cached_hit_ns_per_msg\": %.1f,\n"
      "  \"full_chain_ns_per_msg\": %.1f,\n"
      "  \"cached_hit_speedup\": %.2f,\n"
      "  \"allocs_per_msg\": %.4f,\n"
      "  \"placement\": {\n"
      "    \"min_latency_site\": \"%s\",\n"
      "    \"min_latency_site_no_app\": \"%s\",\n"
      "    \"client_engine_p50_us\": %.1f,\n"
      "    \"client_engine_p99_us\": %.1f,\n"
      "    \"server_engine_p50_us\": %.1f,\n"
      "    \"server_engine_p99_us\": %.1f,\n"
      "    \"p50_delta_us\": %.1f\n"
      "  },\n"
      "  \"rows\": [",
      ADN_GIT_SHA, kObjects,
      static_cast<unsigned long long>(kSweepMessages), kGateSkew,
      gate_row.hit_rate, alloc.hit_ns_per_msg,
      static_cast<double>(gate_row.miss_p50_ns), speedup,
      alloc.allocs_per_msg, site_default.c_str(), site_no_app.c_str(),
      static_cast<double>(client_engine.p50_ns) / 1e3,
      static_cast<double>(client_engine.p99_ns) / 1e3,
      static_cast<double>(server_engine.p50_ns) / 1e3,
      static_cast<double>(server_engine.p99_ns) / 1e3, p50_delta_us);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"skew\": %.2f, \"hit_rate\": %.4f, "
                 "\"p50_ns\": %lld, \"p99_ns\": %lld, \"hit_p50_ns\": %lld, "
                 "\"miss_p50_ns\": %lld}",
                 i == 0 ? "" : ",", rows[i].skew, rows[i].hit_rate,
                 static_cast<long long>(rows[i].p50_ns),
                 static_cast<long long>(rows[i].p99_ns),
                 static_cast<long long>(rows[i].hit_p50_ns),
                 static_cast<long long>(rows[i].miss_p50_ns));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote BENCH_cache.json\n");
  return alloc.non_hits == 0 ? 0 : 1;
}

}  // namespace
}  // namespace adn

int main() { return adn::Run(); }
