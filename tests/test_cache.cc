// The Cache element (ISSUE 10 tentpole): DSL surface, ARC hit/miss/fill
// semantics, TTL expiry, capacity eviction, tier parity (interpreter vs
// engine stage vs whole-chain program in bursts), migration invariance,
// aggregation primitives and
// the hit-rate-aware placement of caches toward the client.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "compiler/backend.h"
#include "compiler/chain_compile.h"
#include "compiler/compiler.h"
#include "compiler/lower.h"
#include "controller/placement.h"
#include "dsl/parser.h"
#include "elements/filter_ops.h"
#include "elements/library.h"
#include "ir/exec.h"
#include "ir/program.h"
#include "mrpc/engine.h"

namespace adn {
namespace {

using ir::ProcessOutcome;
using ir::ProcessResult;
using rpc::Message;
using rpc::Value;

constexpr char kCacheSrc[] =
    "CACHE C (capacity => 4, ttl_ms => 0) KEY (object_id);\n";

std::shared_ptr<const ir::ElementIr> LowerNamed(const std::string& source,
                                                const std::string& name) {
  auto parsed = dsl::ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto element = program->FindElement(name);
  EXPECT_NE(element, nullptr);
  return element;
}

Message Request(uint64_t id, int64_t object_id) {
  return Message::MakeRequest(id, "Get", {{"object_id", Value(object_id)}});
}

Message ResponseFor(const Message& request, int64_t object_id) {
  return Message::MakeResponse(
      request, {{"result", Value("v" + std::to_string(object_id))},
                {"payload", Value(Bytes(16, static_cast<uint8_t>(object_id)))}});
}

// Round-trips one key through an instance: request (miss) then response
// (fill). Returns the request outcome.
ProcessOutcome Fill(ir::ElementInstance& inst, uint64_t id, int64_t key,
                    int64_t now_ns) {
  Message req = Request(id, key);
  ProcessResult r = inst.Process(req, now_ns);
  Message resp = ResponseFor(req, key);
  EXPECT_EQ(inst.Process(resp, now_ns).outcome, ProcessOutcome::kPass);
  return r.outcome;
}

// --- DSL surface -------------------------------------------------------------

TEST(CacheDsl, ParsesDeclaration) {
  auto parsed = dsl::ParseProgram(
      "CACHE RC (capacity => 128, ttl_ms => 250) KEY (user, object_id);\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->caches.size(), 1u);
  const dsl::CacheDecl& decl = parsed->caches[0];
  EXPECT_EQ(decl.name, "RC");
  ASSERT_EQ(decl.args.size(), 2u);
  EXPECT_EQ(decl.args[0].first, "capacity");
  EXPECT_EQ(decl.args[0].second.AsInt(), 128);
  EXPECT_EQ(decl.args[1].first, "ttl_ms");
  ASSERT_EQ(decl.key_fields.size(), 2u);
  EXPECT_EQ(decl.key_fields[0], "user");
  EXPECT_EQ(decl.key_fields[1], "object_id");
  EXPECT_NE(parsed->FindCache("RC"), nullptr);
}

TEST(CacheDsl, RejectsDuplicateAndMalformed) {
  // Cache name colliding with an element.
  EXPECT_FALSE(dsl::ParseProgram("ELEMENT X ON REQUEST { INPUT (a INT); "
                                 "SELECT * FROM input; }\n"
                                 "CACHE X (capacity => 4) KEY (a);\n")
                   .ok());
  // Empty key list.
  EXPECT_FALSE(dsl::ParseProgram("CACHE C (capacity => 4) KEY ();\n").ok());
}

TEST(CacheDsl, LoweringValidatesArgs) {
  auto lower = [](const std::string& src) {
    auto parsed = dsl::ParseProgram(src);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return compiler::LowerProgram(*parsed);
  };
  EXPECT_FALSE(lower("CACHE C (ttl_ms => 5) KEY (k);\n").ok());      // no cap
  EXPECT_FALSE(lower("CACHE C (capacity => 0) KEY (k);\n").ok());    // zero
  EXPECT_FALSE(lower("CACHE C (capacity => -3) KEY (k);\n").ok());   // neg
  EXPECT_FALSE(
      lower("CACHE C (capacity => 4, nope => 1) KEY (k);\n").ok());  // unknown
  EXPECT_FALSE(
      lower("CACHE C (capacity => 4, ttl_ms => -1) KEY (k);\n").ok());

  auto ok = lower(kCacheSrc);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  auto element = ok->FindElement("C");
  ASSERT_NE(element, nullptr);
  ASSERT_TRUE(element->IsCache());
  EXPECT_EQ(element->cache_op->capacity, 4u);
  EXPECT_EQ(element->cache_op->ttl_ns, 0);
  EXPECT_EQ(element->cache_op->table, "__cache_C");
  EXPECT_EQ(element->direction, dsl::Direction::kBoth);
  ASSERT_EQ(element->effects.fields_read,
            std::vector<std::string>{"object_id"});
  ASSERT_EQ(element->effects.tables_written,
            std::vector<std::string>{"__cache_C"});
}

// --- Interpreter semantics ---------------------------------------------------

TEST(CacheExec, MissFillHitCycle) {
  auto code = LowerNamed(kCacheSrc, "C");
  ir::ElementInstance inst(code, 1);

  // First sight of the key: miss, passes down the chain.
  Message req = Request(1, 7);
  EXPECT_EQ(inst.Process(req, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.cache_misses(), 1u);
  EXPECT_EQ(inst.cache_hits(), 0u);

  // Response fills the pending entry.
  Message resp = ResponseFor(req, 7);
  EXPECT_EQ(inst.Process(resp, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.cache_fills(), 1u);
  EXPECT_EQ(inst.FindTable("__cache_C")->RowCount(), 1u);

  // Same key again: reply short-circuit with the cached fields grafted on.
  Message again = Request(2, 7);
  ProcessResult r = inst.Process(again, 0);
  EXPECT_EQ(r.outcome, ProcessOutcome::kReply);
  EXPECT_EQ(again.kind(), rpc::MessageKind::kResponse);
  EXPECT_EQ(again.id(), 2u) << "hit must preserve the live request envelope";
  EXPECT_EQ(again.method(), "Get");
  EXPECT_EQ(again.GetFieldOrNull("result").AsText(), "v7");
  EXPECT_EQ(inst.cache_hits(), 1u);
  EXPECT_EQ(inst.dropped(), 0u) << "kReply is a success, never a drop";

  // A different key misses independently.
  Message other = Request(3, 8);
  EXPECT_EQ(inst.Process(other, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.cache_misses(), 2u);
}

TEST(CacheExec, ResponseWithoutPendingIsIgnored) {
  auto code = LowerNamed(kCacheSrc, "C");
  ir::ElementInstance inst(code, 1);
  Message orphan = Message::MakeResponse(Request(99, 5), {{"result",
                                                           Value("x")}});
  EXPECT_EQ(inst.Process(orphan, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.cache_fills(), 0u);
  EXPECT_EQ(inst.FindTable("__cache_C")->RowCount(), 0u);
}

TEST(CacheExec, TtlExpiresEntries) {
  auto code =
      LowerNamed("CACHE C (capacity => 4, ttl_ms => 1) KEY (object_id);\n",
                 "C");
  ir::ElementInstance inst(code, 1);
  EXPECT_EQ(Fill(inst, 1, 7, 0), ProcessOutcome::kPass);

  // Inside the 1 ms TTL: hit.
  Message fresh = Request(2, 7);
  EXPECT_EQ(inst.Process(fresh, 500'000).outcome, ProcessOutcome::kReply);

  // Past the TTL: expired, erased, treated as a miss.
  Message stale = Request(3, 7);
  EXPECT_EQ(inst.Process(stale, 2'000'000).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.cache_expired(), 1u);
  EXPECT_EQ(inst.FindTable("__cache_C")->RowCount(), 0u);

  // The miss re-registered a pending entry; the response refills.
  Message refill = ResponseFor(stale, 7);
  EXPECT_EQ(inst.Process(refill, 2'000'000).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.FindTable("__cache_C")->RowCount(), 1u);
  Message again = Request(4, 7);
  EXPECT_EQ(inst.Process(again, 2'100'000).outcome, ProcessOutcome::kReply);
}

TEST(CacheExec, CapacityBoundsResidency) {
  auto code = LowerNamed(kCacheSrc, "C");  // capacity 4
  ir::ElementInstance inst(code, 1);
  for (int64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(Fill(inst, static_cast<uint64_t>(k + 1), k, k),
              ProcessOutcome::kPass);
    EXPECT_LE(inst.FindTable("__cache_C")->RowCount(), 4u)
        << "after key " << k;
  }
  EXPECT_EQ(inst.cache_fills(), 20u);
  EXPECT_EQ(inst.cache_evicted(), 16u) << "every fill past capacity evicts";
  // The most recent key is resident.
  Message req = Request(100, 19);
  EXPECT_EQ(inst.Process(req, 100).outcome, ProcessOutcome::kReply);
}

TEST(CacheExec, ArcKeepsFrequentKeyThroughScans) {
  auto code = LowerNamed(kCacheSrc, "C");  // capacity 4
  ir::ElementInstance inst(code, 1);
  uint64_t id = 1;
  // Establish a hot key and promote it to the frequency list.
  EXPECT_EQ(Fill(inst, id++, 0, 0), ProcessOutcome::kPass);
  Message hot1 = Request(id++, 0);
  EXPECT_EQ(inst.Process(hot1, 1).outcome, ProcessOutcome::kReply);
  // A one-shot scan churns through 12 cold keys.
  for (int64_t k = 100; k < 112; ++k) {
    (void)Fill(inst, id++, k, 2);
  }
  // The hot key survived the scan: recency-only churn evicts from T1.
  Message hot2 = Request(id++, 0);
  EXPECT_EQ(inst.Process(hot2, 3).outcome, ProcessOutcome::kReply);
}

// --- Tier parity -------------------------------------------------------------

// The cached chain RespCache -> Logging -> Acl -> HashLb -> Compress
// (elements::CacheChainSource), seeded so every request is admitted. Its
// RespCache is shrunk to 8 rows with no TTL, so a skewed stream over 12
// keys evicts and refills through every path, not only hits and misses.
constexpr int kParityUsers = 8;
constexpr size_t kParityCapacity = 8;
constexpr const char* kCachedChain[] = {"RespCache", "Logging", "Acl",
                                        "HashLb", "Compress"};

void SeedParity(ir::ElementInstance& inst) {
  if (rpc::Table* acl = inst.FindTable("ac_tab")) {
    for (int u = 0; u < kParityUsers; ++u) {
      ASSERT_TRUE(acl->Insert({Value("u" + std::to_string(u)), Value("W")})
                      .ok());
    }
  }
  if (rpc::Table* endpoints = inst.FindTable("endpoints")) {
    for (int64_t shard = 0; shard < elements::kLbShards; ++shard) {
      ASSERT_TRUE(endpoints->Insert({Value(shard), Value(100 + shard)}).ok());
    }
  }
}

std::string SmallCacheChainSource() {
  std::string src = elements::CacheChainSource();
  const std::string_view cache = elements::ResponseCacheSql();
  src.replace(src.find(cache), cache.size(),
              "CACHE RespCache (capacity => " +
                  std::to_string(kParityCapacity) +
                  ", ttl_ms => 0) KEY (object_id);\n");
  return src;
}

Message ChainRequest(uint64_t id, int64_t object_id) {
  return Message::MakeRequest(
      id, "Get",
      {{"username", Value("u" + std::to_string(object_id % kParityUsers))},
       {"object_id", Value(object_id)},
       {"payload", Value(Bytes(24, static_cast<uint8_t>(object_id)))}});
}

Message ChainResponse(const Message& request) {
  const int64_t object_id = request.GetFieldOrNull("object_id").AsInt();
  return Message::MakeResponse(
      request,
      {{"username", Value("u" + std::to_string(object_id % kParityUsers))},
       {"result", Value("v" + std::to_string(object_id))},
       {"payload", Value(Bytes(16, static_cast<uint8_t>(object_id)))}});
}

// The cache has one implementation (ElementInstance::RunCache over its flat
// CacheRuntime), reached through three paths over the whole cached chain:
// the interpreter element by element (the oracle), GeneratedStages one
// message at a time, and one whole-chain ChainExecutor's burst loop, where
// the cache is a single kCacheProbe. All three must produce identical
// outcomes, message rewrites, counters and state hashes.
TEST(CacheParity, ScalarStageAndBurstAgree) {
  auto parsed = dsl::ParseProgram(SmallCacheChainSource());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  std::vector<std::shared_ptr<const ir::ElementIr>> codes;
  for (const char* name : kCachedChain) {
    codes.push_back(lowered->FindElement(name));
    ASSERT_NE(codes.back(), nullptr) << name;
  }
  const size_t n = codes.size();

  std::vector<std::unique_ptr<ir::ElementInstance>> interp, whole_state;
  mrpc::EngineChain scalar;
  for (size_t e = 0; e < n; ++e) {
    interp.push_back(std::make_unique<ir::ElementInstance>(codes[e], 3));
    whole_state.push_back(std::make_unique<ir::ElementInstance>(codes[e], 3));
    auto scalar_stage = std::make_unique<mrpc::GeneratedStage>(codes[e], 3);
    EXPECT_TRUE(scalar_stage->compiled()) << codes[e]->name;
    for (ir::ElementInstance* inst :
         {interp.back().get(), whole_state.back().get(),
          &scalar_stage->instance()}) {
      SeedParity(*inst);
    }
    scalar.AddStage(std::move(scalar_stage));
  }
  auto program = compiler::CompileChainProgram(codes);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<ir::ElementInstance*> raw;
  for (auto& inst : whole_state) raw.push_back(inst.get());
  ir::ChainExecutor whole(std::move(program).value(), std::move(raw));

  auto run_interp = [&](Message& m, int64_t now) {
    for (auto& inst : interp) {
      if (!inst->AppliesTo(m.kind())) continue;
      ProcessResult r = inst->Process(m, now);
      if (r.outcome != ProcessOutcome::kPass) return r;
    }
    return ProcessResult::Pass();
  };
  // Every path over one batch; returns the oracle's outcomes.
  auto run_all = [&](const std::vector<Message>& base, int64_t now) {
    const size_t k = base.size();
    std::vector<Message> m1 = base, m2 = base, m4 = base;
    std::vector<ProcessResult> r4(k);
    whole.ProcessBurst(m4.data(), k, now, r4.data());
    std::vector<ProcessOutcome> outcomes;
    for (size_t i = 0; i < k; ++i) {
      const ProcessResult r1 = run_interp(m1[i], now);
      const ProcessResult r2 = scalar.Process(m2[i], now);
      EXPECT_EQ(r1.outcome, r2.outcome) << "lane " << i;
      EXPECT_EQ(r1.outcome, r4[i].outcome) << "lane " << i;
      for (const Message* other : {&m2[i], &m4[i]}) {
        EXPECT_EQ(m1[i].DebugString(), other->DebugString());
        EXPECT_EQ(m1[i].destination(), other->destination());
      }
      outcomes.push_back(r1.outcome);
    }
    return outcomes;
  };

  Rng rng(2026);
  uint64_t next_id = 1;
  constexpr size_t kBurst = 8;
  for (int round = 0; round < 60; ++round) {
    const int64_t now = round;
    // A burst of skewed requests: the min of two draws favours small keys,
    // a rough zipf-ish skew without pulling in the sampler.
    std::vector<Message> requests;
    for (size_t i = 0; i < kBurst; ++i) {
      uint64_t draw = std::min(rng.NextBelow(12), rng.NextBelow(12));
      requests.push_back(ChainRequest(next_id++, static_cast<int64_t>(draw)));
    }
    const std::vector<ProcessOutcome> outcomes = run_all(requests, now);
    // Misses get responses, through every path again.
    std::vector<Message> responses;
    for (size_t i = 0; i < kBurst; ++i) {
      if (outcomes[i] == ProcessOutcome::kPass) {
        responses.push_back(ChainResponse(requests[i]));
      }
    }
    for (ProcessOutcome o : run_all(responses, now)) {
      EXPECT_EQ(o, ProcessOutcome::kPass);
    }
  }

  EXPECT_GT(interp[0]->cache_hits(), 0u);
  EXPECT_GT(interp[0]->cache_misses(), 0u);
  EXPECT_GT(interp[0]->cache_evicted(), 0u) << "the stream must overflow";
  for (size_t e = 0; e < n; ++e) {
    const ir::ElementInstance& want = *interp[e];
    auto& scalar_stage = dynamic_cast<mrpc::GeneratedStage&>(scalar.stage(e));
    for (const ir::ElementInstance* got :
         {&scalar_stage.instance(), whole_state[e].get()}) {
      EXPECT_EQ(want.processed(), got->processed()) << want.name();
      EXPECT_EQ(want.dropped(), got->dropped()) << want.name();
      EXPECT_EQ(want.cache_hits(), got->cache_hits()) << want.name();
      EXPECT_EQ(want.cache_misses(), got->cache_misses()) << want.name();
      EXPECT_EQ(want.cache_fills(), got->cache_fills()) << want.name();
      EXPECT_EQ(want.cache_evicted(), got->cache_evicted()) << want.name();
      EXPECT_EQ(want.StateContentHash(), got->StateContentHash())
          << want.name();
    }
  }
  // Every path evicted and refilled: more fills than the cache can hold.
  auto& scalar_cache = dynamic_cast<mrpc::GeneratedStage&>(scalar.stage(0));
  for (const ir::ElementInstance* cache :
       {interp[0].get(), &scalar_cache.instance(), whole_state[0].get()}) {
    const size_t resident = cache->FindTable("__cache_RespCache")->RowCount();
    EXPECT_LE(resident, kParityCapacity);
    EXPECT_GT(cache->cache_fills(), resident);
    EXPECT_GT(cache->cache_evicted(), 0u);
  }
  EXPECT_EQ(scalar.dropped(), 0u) << "cache replies must not count as drops";
}

// --- Migration ---------------------------------------------------------------

TEST(CacheMigration, SnapshotRestorePreservesStateAndServesHits) {
  auto code = LowerNamed(kCacheSrc, "C");
  ir::ElementInstance a(code, 5);
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(Fill(a, static_cast<uint64_t>(k + 1), k, 0),
              ProcessOutcome::kPass);
  }
  const uint64_t hash_before = a.StateContentHash();

  ir::ElementInstance b(code, 99);
  ASSERT_TRUE(b.RestoreState(a.SnapshotState()).ok());
  // The ARC metadata is derived, not state: the hash must match exactly.
  EXPECT_EQ(b.StateContentHash(), hash_before);

  // The restored instance serves hits for the migrated rows (the ARC
  // residency index is rebuilt lazily from the table).
  Message req = Request(50, 2);
  EXPECT_EQ(b.Process(req, 0).outcome, ProcessOutcome::kReply);
  EXPECT_EQ(req.GetFieldOrNull("result").AsText(), "v2");
  // And reading through the cache did not change the durable state.
  EXPECT_EQ(b.StateContentHash(), hash_before);
}

TEST(CacheMigration, TakeKeySlotInvalidatesResidency) {
  auto code = LowerNamed(kCacheSrc, "C");
  ir::ElementInstance inst(code, 5);
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(Fill(inst, static_cast<uint64_t>(k + 1), k, 0),
              ProcessOutcome::kPass);
  }
  // Hand the whole key space away, one key slot at a time: all rows leave.
  ir::ElementInstance other(code, 6);
  size_t taken = 0;
  for (size_t k = 0; k < rpc::kKeySlots; ++k) {
    std::vector<rpc::TableShard> shards = inst.TakeKeySlot(k);
    for (const rpc::TableShard& shard : shards) taken += shard.RowCount();
    other.AdoptKeySlot(k, std::move(shards));
  }
  EXPECT_EQ(taken, 4u);
  EXPECT_EQ(inst.FindTable("__cache_C")->RowCount(), 0u);
  // No stale hits off the slots handed away...
  Message req = Request(50, 2);
  EXPECT_EQ(inst.Process(req, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(inst.cache_hits(), 0u);
  // ...and the instance that took them in serves them.
  Message again = Request(51, 2);
  EXPECT_EQ(other.Process(again, 0).outcome, ProcessOutcome::kReply);
  EXPECT_EQ(other.cache_hits(), 1u);
}

TEST(CacheExec, PendingOverflowDropsTheOldestMiss) {
  auto code = LowerNamed(kCacheSrc, "C");  // capacity 4: 4*4+64 = 80 pending
  ir::ElementInstance inst(code, 1);
  constexpr uint64_t kBound = 80;
  std::vector<Message> requests;
  for (uint64_t id = 1; id <= kBound; ++id) {
    requests.push_back(Request(id, static_cast<int64_t>(id)));
    ASSERT_EQ(inst.Process(requests.back(), 0).outcome, ProcessOutcome::kPass);
  }
  // Answering #1 frees its entry; #81 refills the map to the bound and #82
  // overflows it, which must push out #2, now the oldest.
  auto answer = [&](uint64_t id) {
    Message resp = ResponseFor(requests[id - 1], static_cast<int64_t>(id));
    EXPECT_EQ(inst.Process(resp, 0).outcome, ProcessOutcome::kPass);
  };
  answer(1);
  EXPECT_EQ(inst.cache_fills(), 1u);
  for (uint64_t id = kBound + 1; id <= kBound + 2; ++id) {
    requests.push_back(Request(id, static_cast<int64_t>(id)));
    ASSERT_EQ(inst.Process(requests.back(), 0).outcome, ProcessOutcome::kPass);
  }
  answer(2);
  EXPECT_EQ(inst.cache_fills(), 1u) << "#2 was the oldest and was dropped";
  for (uint64_t id = 3; id <= kBound + 2; ++id) answer(id);
  EXPECT_EQ(inst.cache_fills(), kBound + 1) << "every newer miss fills";
}

// --- ARC equivalence -----------------------------------------------------------

// What one seeded stream leaves behind: the runtime's counters and the
// object ids whose responses are resident at the end.
struct ArcOutcome {
  uint64_t hits = 0, misses = 0, fills = 0, evicted = 0, expired = 0;
  std::vector<int64_t> resident;
};

std::ostream& operator<<(std::ostream& os, const ArcOutcome& o) {
  os << "{" << o.hits << ", " << o.misses << ", " << o.fills << ", "
     << o.evicted << ", " << o.expired << ", {";
  for (size_t i = 0; i < o.resident.size(); ++i) {
    os << (i > 0 ? ", " : "") << o.resident[i];
  }
  return os << "}}";
}

bool operator==(const ArcOutcome& a, const ArcOutcome& b) {
  return a.hits == b.hits && a.misses == b.misses && a.fills == b.fills &&
         a.evicted == b.evicted && a.expired == b.expired &&
         a.resident == b.resident;
}

// Drives `requests` zipf(1)-skewed requests over `universe` objects through
// one cache instance, 10 µs apart. Misses stay in flight and are answered
// out of order, at most a few at a time (well under the pending bound), so
// two misses on one key can race to fill it. Halfway through, the instance
// restores its own snapshot, which rebuilds the ARC metadata from the rows.
// The weights are integer-only so the stream is the same on every platform.
ArcOutcome RunArcStream(size_t capacity, int64_t ttl_ms, int64_t universe,
                        uint64_t seed, int requests) {
  const std::string src = "CACHE C (capacity => " + std::to_string(capacity) +
                          ", ttl_ms => " + std::to_string(ttl_ms) +
                          ") KEY (object_id);\n";
  auto code = LowerNamed(src, "C");
  ir::ElementInstance inst(code, 1);

  std::vector<uint64_t> cdf;
  uint64_t total = 0;
  for (int64_t k = 0; k < universe; ++k) {
    total += 1'000'000 / static_cast<uint64_t>(k + 1);
    cdf.push_back(total);
  }
  Rng rng(seed);
  std::vector<Message> in_flight;
  uint64_t id = 1;
  int64_t now = 0;
  auto respond = [&](size_t i) {
    Message resp =
        ResponseFor(in_flight[i], in_flight[i].GetFieldOrNull("object_id").AsInt());
    EXPECT_EQ(inst.Process(resp, now).outcome, ProcessOutcome::kPass);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
  };
  for (int n = 0; n < requests; ++n) {
    if (n == requests / 2) {
      EXPECT_TRUE(inst.RestoreState(inst.SnapshotState()).ok());
    }
    now += 10'000;
    const uint64_t draw = rng.NextBelow(total);
    const int64_t object = static_cast<int64_t>(
        std::upper_bound(cdf.begin(), cdf.end(), draw) - cdf.begin());
    Message req = Request(id++, object);
    if (inst.Process(req, now).outcome == ProcessOutcome::kPass) {
      in_flight.push_back(std::move(req));
    }
    while (in_flight.size() > rng.NextBelow(4)) {
      respond(rng.NextBelow(in_flight.size()));
    }
  }
  while (!in_flight.empty()) respond(0);

  // Map cache keys back to object ids: fill every object once into a cache
  // large enough to hold them all and find each fill's new key.
  auto big = LowerNamed("CACHE C (capacity => " + std::to_string(universe) +
                            ", ttl_ms => 0) KEY (object_id);\n",
                        "C");
  ir::ElementInstance keys(big, 1);
  std::map<int64_t, int64_t> object_of;
  for (int64_t k = 0; k < universe; ++k) {
    (void)Fill(keys, static_cast<uint64_t>(k + 1), k, 0);
    for (const rpc::RowRef row : keys.FindTable("__cache_C")->rows()) {
      object_of.emplace(row[0].AsInt(), k);
    }
  }

  ArcOutcome out;
  out.hits = inst.cache_hits();
  out.misses = inst.cache_misses();
  out.fills = inst.cache_fills();
  out.evicted = inst.cache_evicted();
  out.expired = inst.cache_expired();
  for (const rpc::Row& row : inst.FindTable("__cache_C")->rows()) {
    out.resident.push_back(object_of.at(row[0].AsInt()));
  }
  std::sort(out.resident.begin(), out.resident.end());
  return out;
}

// Golden outcomes, first recorded on the std::list/unordered_map ARC runtime
// the flat one replaced. Each stream was checked (by instrumenting that
// runtime) to take B1 and B2 ghost hits, TTL expiries and the mid-stream
// rebuild, so an exact match pins every branch of the replacement policy.
// Re-recorded when a new key stopped running REPLACE while the resident
// lists are below capacity: a TTL expiry leaves a hole and no ghost, and
// before that fix the capacity-64 stream ended with 8 of 64 rows resident.
// Now both streams end full.
TEST(CacheArc, MatchesRecordedOutcomesAtCapacity4) {
  const ArcOutcome got = RunArcStream(4, 1, 64, 11, 20'000);
  EXPECT_EQ(got, (ArcOutcome{6217, 13783, 13782, 13138, 20, {0, 2, 3, 19}}))
      << got;
  EXPECT_EQ(got.resident.size(), 4u);
}

TEST(CacheArc, MatchesRecordedOutcomesAtCapacity64) {
  // Re-recorded when tables gained per-key-slot shards: the mid-stream
  // rebuild puts every resident key on T1 in the table's row order, which
  // became slot-major (it was insertion order), so the rebuilt recency
  // order, and the evictions after it, changed.
  const ArcOutcome got = RunArcStream(64, 2, 1000, 12, 20'000);
  EXPECT_EQ(got,
            (ArcOutcome{9094, 10906, 10904, 9128, 1614,
                        {0,   1,   2,   3,   4,   5,   6,   7,   8,   9,
                         10,  11,  12,  13,  16,  17,  18,  19,  20,  23,
                         24,  27,  28,  31,  32,  33,  36,  37,  38,  43,
                         45,  50,  54,  55,  64,  70,  74,  87,  93,  96,
                         98,  113, 124, 126, 135, 136, 142, 168, 182, 215,
                         246, 252, 301, 340, 403, 417, 548, 561, 581, 764,
                         796, 809, 814, 926}}))
      << got;
  EXPECT_EQ(got.resident.size(), 64u);
}

// --- Aggregation primitives --------------------------------------------------

constexpr char kAggSrc[] =
    "FILTER CountAll ON REQUEST USING agg_count(key => username);\n"
    "FILTER SumBytes ON REQUEST USING agg_sum(field => amount, "
    "key => username);\n"
    "FILTER Hot ON REQUEST USING agg_topk(key => username, k => 2);\n";

Message AggMessage(uint64_t id, const std::string& user, int64_t amount) {
  return Message::MakeRequest(
      id, "M", {{"username", Value(user)}, {"amount", Value(amount)}});
}

TEST(AggOps, CountSumTopkTrackTheStream) {
  auto parsed = dsl::ParseProgram(kAggSrc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto stage = [&](const char* name) {
    auto element = program->FindElement(name);
    EXPECT_NE(element, nullptr);
    auto made = elements::MakeFilterStage(*element->filter_op);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    return std::move(made).value();
  };
  auto count_stage = stage("CountAll");
  auto sum_stage = stage("SumBytes");
  auto topk_stage = stage("Hot");
  auto* count = static_cast<elements::AggCountOp*>(count_stage.get());
  auto* sum = static_cast<elements::AggSumOp*>(sum_stage.get());
  auto* topk = static_cast<elements::AggTopkOp*>(topk_stage.get());

  // u0 x6, u1 x3, u2 x1 — all observers see the same stream and pass.
  const struct { const char* user; int n; } mix[] = {
      {"u0", 6}, {"u1", 3}, {"u2", 1}};
  uint64_t id = 1;
  for (const auto& [user, n] : mix) {
    for (int i = 0; i < n; ++i) {
      Message m = AggMessage(id++, user, 10);
      EXPECT_EQ(count->Process(m, 0).outcome, ProcessOutcome::kPass);
      EXPECT_EQ(sum->Process(m, 0).outcome, ProcessOutcome::kPass);
      EXPECT_EQ(topk->Process(m, 0).outcome, ProcessOutcome::kPass);
    }
  }

  EXPECT_EQ(count->total(), 10u);
  EXPECT_EQ(count->CountFor(Value("u0")), 6u);
  EXPECT_EQ(count->CountFor(Value("u2")), 1u);
  EXPECT_EQ(count->CountFor(Value("nobody")), 0u);

  EXPECT_DOUBLE_EQ(sum->total(), 100.0);
  EXPECT_EQ(sum->samples(), 10u);
  EXPECT_DOUBLE_EQ(sum->SumFor(Value("u0")), 60.0);

  // k=2: the heavy hitters are u0 and u1; space-saving error bound holds.
  auto hitters = topk->TopK();
  ASSERT_EQ(hitters.size(), 2u);
  EXPECT_EQ(hitters[0].key, "u0");
  EXPECT_GE(hitters[0].count, 6u);
  EXPECT_LE(hitters[0].count - hitters[0].err, 6u);

  // A message without the summed field passes through uncounted.
  Message bare = Message::MakeRequest(id++, "M", {{"username", Value("u0")}});
  EXPECT_EQ(sum->Process(bare, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(sum->samples(), 10u);
}

TEST(AggOps, PreciseEffectsAndConstrainedProcessorFeasibility) {
  auto parsed = dsl::ParseProgram(kAggSrc);
  ASSERT_TRUE(parsed.ok());
  auto program = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto sum_elem = program->FindElement("SumBytes");
  ASSERT_NE(sum_elem, nullptr);
  EXPECT_FALSE(sum_elem->effects.may_drop);
  EXPECT_FALSE(sum_elem->effects.nondeterministic);
  EXPECT_EQ(sum_elem->effects.fields_read,
            (std::vector<std::string>{"amount", "username"}));

  // Aggregations run on constrained processors; shaping filters do not.
  for (const char* name : {"CountAll", "SumBytes", "Hot"}) {
    auto e = program->FindElement(name);
    EXPECT_TRUE(
        compiler::CheckFeasible(*e, compiler::TargetPlatform::kEbpf).feasible)
        << name;
    EXPECT_TRUE(
        compiler::CheckFeasible(*e, compiler::TargetPlatform::kP4Switch)
            .feasible)
        << name;
  }
  auto limiter = LowerNamed(std::string(elements::RateLimitFilterSql()),
                            "Limiter");
  EXPECT_FALSE(
      compiler::CheckFeasible(*limiter, compiler::TargetPlatform::kP4Switch)
          .feasible);

  // Caches never leave general cores.
  auto cache = LowerNamed(kCacheSrc, "C");
  EXPECT_FALSE(
      compiler::CheckFeasible(*cache, compiler::TargetPlatform::kEbpf)
          .feasible);
  EXPECT_FALSE(
      compiler::CheckFeasible(*cache, compiler::TargetPlatform::kP4Switch)
          .feasible);
}

TEST(AggOps, ParseDepthWindowGatesSwitchPlacement) {
  auto parsed = dsl::ParseProgram(kAggSrc);
  ASSERT_TRUE(parsed.ok());
  auto program = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  auto count_elem = program->FindElement("CountAll");  // reads `username`
  ASSERT_NE(count_elem, nullptr);

  const size_t window = sim::CostModel::Default().p4_parse_depth_bytes;
  // Key field parseable at a fixed offset near the front: feasible.
  rpc::HeaderSpec front;
  front.fields.push_back({"username", rpc::ValueType::kInt});
  EXPECT_TRUE(
      compiler::CheckP4ParseDepth(*count_elem, front, window).feasible);
  // Behind a variable-length field: the switch parser cannot reach it.
  rpc::HeaderSpec behind;
  behind.fields.push_back({"payload", rpc::ValueType::kBytes});
  behind.fields.push_back({"username", rpc::ValueType::kInt});
  EXPECT_FALSE(
      compiler::CheckP4ParseDepth(*count_elem, behind, window).feasible);
}

// --- Placement ---------------------------------------------------------------

TEST(CachePlacement, MinLatencyPullsCacheTowardClient) {
  compiler::Compiler c;
  auto program = c.CompileSource(elements::CacheChainSource(), {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const compiler::CompiledChain& chain = program->chains[0];
  ASSERT_TRUE(chain.elements[0].ir->IsCache());

  controller::PathEnvironment env;  // in-app allowed, apps untrusted
  auto in_app =
      controller::PlaceChain(chain, env, controller::PlacementPolicy::kMinLatency);
  ASSERT_TRUE(in_app.ok()) << in_app.status().ToString();
  EXPECT_EQ(in_app->sites[0], mrpc::Site::kClientApp)
      << in_app->DebugString(chain);

  env.allow_in_app = false;
  auto engines =
      controller::PlaceChain(chain, env, controller::PlacementPolicy::kMinLatency);
  ASSERT_TRUE(engines.ok()) << engines.status().ToString();
  EXPECT_EQ(engines->sites[0], mrpc::Site::kClientEngine)
      << engines->DebugString(chain);
}

}  // namespace
}  // namespace adn
