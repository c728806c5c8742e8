// Burst-mode data plane: differential parity burst ≡ scalar ≡ interpreter.
//
// ChainExecutor::ProcessBurst chunks a drained burst, prefetches every
// lane's keyed-join rows, runs the scalar loop per message and batches the
// chunk's telemetry; these tests prove none of that is observable:
// outcomes, abort messages, message mutations, per-element processed/
// dropped counters, nonce/RNG streams, table content hashes and telemetry
// counts must match per-message execution exactly — for randomized chains,
// every burst size, and mid-burst drop/abort lanes. Ring burst semantics
// and the pool/engine wiring are covered here too; the concurrent-producer
// TSan cases live in test_threads.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/chain_compile.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/program.h"
#include "mrpc/engine.h"
#include "mrpc/engine_pool.h"
#include "mrpc/ring.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace adn {
namespace {

using ir::ProcessOutcome;
using ir::ProcessResult;
using mrpc::EnginePool;
using mrpc::SpscRing;
using rpc::Message;
using rpc::Value;

// --- SpscRing burst operations ----------------------------------------------

TEST(RingBurst, PopBurstDrainsFifoAndRespectsMax) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.TryPush(i));
  int out[8] = {};
  EXPECT_EQ(ring.TryPopBurst(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.TryPopBurst(out, 8), 2u);  // only 2 left
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(ring.TryPopBurst(out, 8), 0u);  // empty
}

TEST(RingBurst, PushBurstAcceptsUpToFreeSpace) {
  SpscRing<int> ring(4);  // capacity rounds to 4
  int in[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPushBurst(in, 6), 4u);  // only 4 slots
  EXPECT_TRUE(ring.full());
  int out[6] = {};
  EXPECT_EQ(ring.TryPopBurst(out, 6), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  // The unaccepted tail was left untouched for retry.
  EXPECT_EQ(in[4], 4);
  EXPECT_EQ(in[5], 5);
}

TEST(RingBurst, BurstOpsWrapAroundTheIndexMask) {
  SpscRing<int> ring(4);
  int out[4] = {};
  int next = 0;
  int expect = 0;
  // Drive the indexes far past one lap with mixed burst sizes.
  for (int round = 0; round < 50; ++round) {
    int in[3] = {next, next + 1, next + 2};
    const size_t pushed = ring.TryPushBurst(in, 3);
    next += static_cast<int>(pushed);
    const size_t popped = ring.TryPopBurst(out, (round % 3) + 1);
    for (size_t i = 0; i < popped; ++i) EXPECT_EQ(out[i], expect++);
  }
}

TEST(RingBurst, OutParameterPopMatchesOptionalPop) {
  SpscRing<std::string> ring(8);
  ASSERT_TRUE(ring.TryPush(std::string("a")));
  ASSERT_TRUE(ring.TryPush(std::string("b")));
  std::string out;
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, "a");
  auto opt = ring.TryPop();
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, "b");
  out = "untouched";
  EXPECT_FALSE(ring.TryPop(out));
  EXPECT_EQ(out, "untouched");  // empty pop leaves the out-param alone
}

// --- Helpers -----------------------------------------------------------------

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

// The fig5 chain: Logging (INSERT), Acl (PK join + abort drop), Fault
// (random() drop). Covers a mutated table, a prefetchable read-only join,
// mid-burst aborts, and a per-element RNG stream.
std::vector<std::shared_ptr<const ir::ElementIr>> Fig5Elements() {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::LogTableSql()) +
                                  std::string(elements::LoggingSql()) +
                                  std::string(elements::AclSql()) +
                                  std::string(elements::FaultSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl"),
          lowered->FindElement("Fault")};
}

void SeedAcl(ir::ElementInstance& inst) {
  rpc::Table* acl = inst.FindTable("ac_tab");
  if (acl == nullptr) return;
  ASSERT_TRUE(acl->Insert({Value("alice"), Value("W")}).ok());
  ASSERT_TRUE(acl->Insert({Value("bob"), Value("R")}).ok());
  ASSERT_TRUE(acl->Insert({Value("carol"), Value("W")}).ok());
}

Message FigMessage(Rng& rng, uint64_t id) {
  static const char* kUsers[] = {"alice", "bob", "carol", "mallory"};
  Bytes payload(rng.NextBelow(64), 0xAB);
  return Message::MakeRequest(
      id, "Obj.Put",
      {{"username", Value(std::string(kUsers[rng.NextBelow(4)]))},
       {"payload", Value(std::move(payload))}});
}

// Run `stream` through executor A one message at a time and through
// executor B in bursts of `burst`, then compare everything observable.
void ExpectBurstMatchesScalar(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    std::vector<Message> stream, size_t burst, uint64_t seed) {
  std::vector<std::unique_ptr<ir::ElementInstance>> scalar_state;
  std::vector<std::unique_ptr<ir::ElementInstance>> burst_state;
  std::vector<ir::ElementInstance*> scalar_ptrs, burst_ptrs;
  for (const auto& e : elements) {
    scalar_state.push_back(
        std::make_unique<ir::ElementInstance>(e, seed + scalar_state.size()));
    burst_state.push_back(
        std::make_unique<ir::ElementInstance>(e, seed + burst_state.size()));
    SeedAcl(*scalar_state.back());
    SeedAcl(*burst_state.back());
    scalar_ptrs.push_back(scalar_state.back().get());
    burst_ptrs.push_back(burst_state.back().get());
  }
  auto program = compiler::CompileChainProgram(elements);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ir::ChainExecutor scalar_exec(program.value(), scalar_ptrs);
  ir::ChainExecutor burst_exec(program.value(), burst_ptrs);

  std::vector<Message> scalar_msgs = stream;
  std::vector<Message>& burst_msgs = stream;
  std::vector<ProcessResult> scalar_results(stream.size());
  std::vector<ProcessResult> burst_results(stream.size());
  for (size_t i = 0; i < scalar_msgs.size(); ++i) {
    scalar_results[i] = scalar_exec.Process(scalar_msgs[i], /*now_ns=*/7);
  }
  for (size_t off = 0; off < burst_msgs.size(); off += burst) {
    const size_t n = std::min(burst, burst_msgs.size() - off);
    burst_exec.ProcessBurst(burst_msgs.data() + off, n, /*now_ns=*/7,
                            burst_results.data() + off);
  }

  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(scalar_results[i].outcome, burst_results[i].outcome)
        << "burst=" << burst << " message " << i;
    ASSERT_EQ(scalar_results[i].abort_message, burst_results[i].abort_message)
        << "burst=" << burst << " message " << i;
    ASSERT_EQ(scalar_msgs[i].DebugString(), burst_msgs[i].DebugString())
        << "burst=" << burst << " message " << i;
    EXPECT_EQ(scalar_msgs[i].destination(), burst_msgs[i].destination());
  }
  for (size_t e = 0; e < elements.size(); ++e) {
    EXPECT_EQ(scalar_state[e]->StateContentHash(),
              burst_state[e]->StateContentHash())
        << "burst=" << burst << " element " << e;
    EXPECT_EQ(scalar_state[e]->processed(), burst_state[e]->processed())
        << "burst=" << burst << " element " << e;
    EXPECT_EQ(scalar_state[e]->dropped(), burst_state[e]->dropped())
        << "burst=" << burst << " element " << e;
  }
}

// --- Burst executor: fig5 chain ----------------------------------------------

TEST(Burst, Fig5ChainHasAPrefetchSite) {
  auto elements = Fig5Elements();
  std::vector<std::unique_ptr<ir::ElementInstance>> state;
  std::vector<ir::ElementInstance*> ptrs;
  for (const auto& e : elements) {
    state.push_back(std::make_unique<ir::ElementInstance>(e, 1));
    ptrs.push_back(state.back().get());
  }
  auto program = compiler::CompileChainProgram(elements);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ir::ChainExecutor exec(program.value(), ptrs);
  // The ACL join (input.username = ac_tab.username) is the prefetch site.
  EXPECT_GE(exec.burst_prefetch_site_count(), 1u);
}

TEST(Burst, Fig5MatchesScalarAcrossBurstSizes) {
  auto elements = Fig5Elements();
  Rng rng(99);
  std::vector<Message> stream;
  for (uint64_t i = 0; i < 257; ++i) stream.push_back(FigMessage(rng, i));
  // mallory (ACL miss -> abort) and Fault's 5% random drop produce dead
  // lanes mid-burst at every size; 257 leaves a ragged tail chunk.
  for (size_t burst : {1u, 2u, 3u, 16u, 32u, 64u, 257u}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    ExpectBurstMatchesScalar(elements, stream, burst, 1000);
  }
}

TEST(Burst, AllLanesDropStillMatches) {
  // Every message is mallory: every lane aborts at the ACL element.
  auto elements = Fig5Elements();
  std::vector<Message> stream;
  for (uint64_t i = 0; i < 64; ++i) {
    stream.push_back(Message::MakeRequest(
        i, "Obj.Put",
        {{"username", Value("mallory")}, {"payload", Value(Bytes(8, 1))}}));
  }
  ExpectBurstMatchesScalar(elements, stream, 32, 77);
}

// --- Burst executor: randomized programs -------------------------------------

// Same shape as test_parity's generator: several mutation sites on one
// table, UPDATE+JOIN mixes and mid-chunk drops, each run at a random burst
// size against the scalar and interpreter tiers.
std::string RandomElementSource(Rng& rng) {
  auto num = [&](uint64_t lo, uint64_t hi) {
    return std::to_string(static_cast<int64_t>(lo + rng.NextBelow(hi - lo)));
  };
  std::string src =
      "STATE TABLE t (k INT PRIMARY KEY, v INT);\n"
      "STATE TABLE acc (rpc INT, x INT, y INT);\n"
      "ELEMENT Rand ON BOTH {\n"
      "  INPUT (a INT, b INT, username TEXT, payload BYTES);\n";
  switch (rng.NextBelow(3)) {
    case 0: break;
    case 1: src += "  ON DROP ABORT 'rand abort';\n"; break;
    case 2: src += "  ON DROP SILENT;\n"; break;
  }
  size_t statements = 2 + rng.NextBelow(3);
  for (size_t i = 0; i < statements; ++i) {
    switch (rng.NextBelow(6)) {
      case 0:
        src += "  SELECT *, a + " + num(1, 9) + " AS a, a * b AS b" +
               " FROM input WHERE a % " + num(2, 6) + " != " + num(0, 2) +
               ";\n";
        break;
      case 1:
        src += "  SELECT *, t.v AS b FROM input JOIN t ON a % 8 = t.k" +
               std::string(" WHERE t.v >= ") + num(0, 4) + ";\n";
        break;
      case 2:
        src += "  SELECT *, len(payload) + b AS b FROM input WHERE b >= " +
               num(0, 30) + " OR username = 'u1';\n";
        break;
      case 3:
        src += "  INSERT INTO acc VALUES (rpc_id(), a, b);\n";
        break;
      case 4:
        src += "  UPDATE t SET v = v + " + num(1, 5) +
               " WHERE k = input.a % 8;\n";
        break;
      case 5:
        src += "  DELETE FROM t WHERE v < " + num(0, 3) + ";\n";
        break;
    }
  }
  src += "}\n";
  return src;
}

void SeedJoinTable(ir::ElementInstance& inst) {
  rpc::Table* t = inst.FindTable("t");
  if (t == nullptr) return;
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(t->Insert({Value(k), Value((k * 7) % 5)}).ok());
  }
}

TEST(Burst, RandomProgramsMatchScalarAndInterpreter) {
  Rng meta(4242);
  for (int round = 0; round < 40; ++round) {
    const std::string src = RandomElementSource(meta);
    SCOPED_TRACE(src);
    auto code = LowerNamed(src, "Rand");
    const uint64_t seed = 500 + static_cast<uint64_t>(round);

    ir::ElementInstance interp_state(code, seed);
    ir::ElementInstance scalar_state(code, seed);
    ir::ElementInstance burst_state(code, seed);
    SeedJoinTable(interp_state);
    SeedJoinTable(scalar_state);
    SeedJoinTable(burst_state);

    auto program = compiler::CompileElementProgram(*code);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ir::ChainExecutor scalar_exec(program.value(), {&scalar_state});
    ir::ChainExecutor burst_exec(program.value(), {&burst_state});

    Rng msgs(seed * 13 + 1);
    const size_t burst = 1 + msgs.NextBelow(64);
    std::vector<Message> stream;
    for (uint64_t i = 0; i < 96; ++i) {
      stream.push_back(Message::MakeRequest(
          i, "M",
          {{"a", Value(static_cast<int64_t>(msgs.NextBelow(64)))},
           {"b", Value(static_cast<int64_t>(msgs.NextBelow(100)) - 50)},
           {"username", Value("u" + std::to_string(msgs.NextBelow(3)))},
           {"payload", Value(Bytes(msgs.NextBelow(9), 0x5a))}}));
    }
    std::vector<Message> interp_msgs = stream;
    std::vector<Message> scalar_msgs = stream;
    std::vector<ProcessResult> burst_results(stream.size());
    for (size_t off = 0; off < stream.size(); off += burst) {
      const size_t n = std::min(burst, stream.size() - off);
      burst_exec.ProcessBurst(stream.data() + off, n, /*now_ns=*/3,
                              burst_results.data() + off);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      const ProcessResult ri = interp_state.Process(interp_msgs[i], 3);
      const ProcessResult rs = scalar_exec.Process(scalar_msgs[i], 3);
      ASSERT_EQ(rs.outcome, burst_results[i].outcome)
          << "burst=" << burst << " message " << i;
      ASSERT_EQ(rs.abort_message, burst_results[i].abort_message);
      ASSERT_EQ(scalar_msgs[i].DebugString(), stream[i].DebugString())
          << "burst=" << burst << " message " << i;
      ASSERT_EQ(ri.outcome, rs.outcome) << "message " << i;
      ASSERT_EQ(interp_msgs[i].DebugString(), scalar_msgs[i].DebugString());
    }
    EXPECT_EQ(scalar_state.StateContentHash(), burst_state.StateContentHash());
    EXPECT_EQ(interp_state.StateContentHash(), burst_state.StateContentHash());
    EXPECT_EQ(scalar_state.processed(), burst_state.processed());
    EXPECT_EQ(scalar_state.dropped(), burst_state.dropped());
  }
}

// --- Burst prefetch under mutation --------------------------------------------

// Logging → Acl → Churn, where Churn is Quota plus a key-assigning UPDATE
// (the row is re-inserted under `target`, growing the cell array) and a
// DELETE (compacting it) on the same table. Earlier lanes of a burst thus
// move and erase rows whose keys later lanes were prefetched against; the
// prefetch is only a hint, so nothing about it may be observable.
std::vector<std::shared_ptr<const ir::ElementIr>> ChurnElements() {
  auto parsed = dsl::ParseProgram(
      std::string(elements::AclTableSql()) +
      std::string(elements::LogTableSql()) +
      std::string(elements::QuotaTableSql()) +
      std::string(elements::LoggingSql()) + std::string(elements::AclSql()) +
      R"(
ELEMENT Churn ON REQUEST {
  INPUT (username TEXT, mover TEXT, target TEXT, doomed TEXT);
  ON DROP ABORT 'quota exceeded';
  SELECT * FROM input JOIN quota ON input.username = quota.username
    WHERE quota.remaining > 0;
  UPDATE quota SET remaining = remaining - 1 WHERE username = input.username;
  UPDATE quota SET username = input.target, remaining = remaining + 2
    WHERE username = input.mover;
  DELETE FROM quota WHERE username = input.doomed;
}
)");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl"),
          lowered->FindElement("Churn")};
}

std::string ChurnUser(Rng& rng) { return "u" + std::to_string(rng.NextBelow(24)); }

void SeedChurn(ir::ElementInstance& inst, uint64_t seed) {
  Rng rng(seed);
  if (rpc::Table* acl = inst.FindTable("ac_tab")) {
    for (int u = 0; u < 22; ++u) {
      ASSERT_TRUE(acl->Insert({Value("u" + std::to_string(u)),
                               Value(u % 7 == 3 ? "R" : "W")})
                      .ok());
    }
  }
  if (rpc::Table* quota = inst.FindTable("quota")) {
    for (int u = 0; u < 20; ++u) {
      ASSERT_TRUE(quota
                      ->Insert({Value("u" + std::to_string(u)),
                                Value(static_cast<int64_t>(rng.NextBelow(6)))})
                      .ok());
    }
  }
}

TEST(Burst, PrefetchPassIsInvisibleUnderMutation) {
  const auto elements = ChurnElements();
  auto program = compiler::CompileChainProgram(elements);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Rng rng(2718);
  std::vector<Message> stream;
  for (uint64_t i = 0; i < 640; ++i) {
    stream.push_back(Message::MakeRequest(
        i, "M",
        {{"username", Value(ChurnUser(rng))},
         {"mover", Value(ChurnUser(rng))},
         {"target", Value(ChurnUser(rng))},
         {"doomed", Value(ChurnUser(rng))},
         {"payload", Value(Bytes(rng.NextBelow(16), 0x3c))}}));
  }
  // The stream must put the hazard inside bursts: a lane whose user an
  // earlier lane of the same 32-burst renames away or deletes.
  size_t hazards = 0;
  for (size_t off = 0; off < stream.size(); off += 32) {
    for (size_t j = off + 1; j < off + 32; ++j) {
      for (size_t i = off; i < j; ++i) {
        const Value& user = stream[j].GetFieldOrNull("username");
        hazards += stream[i].GetFieldOrNull("mover") == user ||
                   stream[i].GetFieldOrNull("doomed") == user;
      }
    }
  }
  EXPECT_GT(hazards, 100u);

  for (size_t burst : {1u, 2u, 31u, 32u, 64u}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    std::vector<std::unique_ptr<ir::ElementInstance>> interp, scalar, bursty;
    std::vector<ir::ElementInstance*> scalar_ptrs, burst_ptrs;
    for (size_t e = 0; e < elements.size(); ++e) {
      for (auto* side : {&interp, &scalar, &bursty}) {
        side->push_back(std::make_unique<ir::ElementInstance>(elements[e], 9));
        SeedChurn(*side->back(), 77);
      }
      scalar_ptrs.push_back(scalar.back().get());
      burst_ptrs.push_back(bursty.back().get());
    }
    ir::ChainExecutor scalar_exec(program.value(), scalar_ptrs);
    ir::ChainExecutor burst_exec(program.value(), burst_ptrs);
    // Both keyed joins (ac_tab and quota) are prefetched, although Churn
    // mutates the table it joins.
    EXPECT_EQ(burst_exec.burst_prefetch_site_count(), 2u);

    std::vector<Message> interp_msgs = stream;
    std::vector<Message> scalar_msgs = stream;
    std::vector<Message> burst_msgs = stream;
    std::vector<ProcessResult> burst_results(stream.size());
    for (size_t off = 0; off < burst_msgs.size(); off += burst) {
      const size_t n = std::min(burst, burst_msgs.size() - off);
      burst_exec.ProcessBurst(burst_msgs.data() + off, n, /*now_ns=*/5,
                              burst_results.data() + off);
    }
    size_t passed = 0, aborted = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      ProcessResult ri = ProcessResult::Pass();
      for (auto& inst : interp) {
        ri = inst->Process(interp_msgs[i], 5);
        if (ri.outcome != ProcessOutcome::kPass) break;
      }
      const ProcessResult rs = scalar_exec.Process(scalar_msgs[i], 5);
      const ProcessResult& rb = burst_results[i];
      ASSERT_EQ(ri.outcome, rs.outcome) << "message " << i;
      ASSERT_EQ(rs.outcome, rb.outcome) << "message " << i;
      ASSERT_EQ(ri.abort_message, rs.abort_message) << "message " << i;
      ASSERT_EQ(rs.abort_message, rb.abort_message) << "message " << i;
      ASSERT_EQ(interp_msgs[i].DebugString(), scalar_msgs[i].DebugString());
      ASSERT_EQ(scalar_msgs[i].DebugString(), burst_msgs[i].DebugString());
      passed += rb.outcome == ProcessOutcome::kPass;
      aborted += rb.outcome == ProcessOutcome::kDropAbort;
    }
    EXPECT_GT(passed, 0u);
    EXPECT_GT(aborted, 0u);
    for (size_t e = 0; e < elements.size(); ++e) {
      EXPECT_EQ(interp[e]->StateContentHash(), scalar[e]->StateContentHash())
          << "element " << e;
      EXPECT_EQ(scalar[e]->StateContentHash(), bursty[e]->StateContentHash())
          << "element " << e;
    }
  }
}

// --- GeneratedStage (per-element engine tier) --------------------------------

// Each fig5 element as its own GeneratedStage, plus a rate_limit filter (one
// kBuiltin over its bucket table, which empties after 128 messages):
// ProcessBurst over chunks of every size must match the stage's own scalar
// Process message by message, in outcomes, mutations, counters and state.
TEST(Burst, GeneratedStageBurstMatchesScalarProcess) {
  auto codes = Fig5Elements();
  codes.push_back(LowerNamed(std::string(elements::RateLimitFilterSql()),
                             "Limiter"));
  Rng rng(123);
  std::vector<Message> stream;
  for (uint64_t i = 0; i < 130; ++i) stream.push_back(FigMessage(rng, i));

  for (const auto& e : codes) {
    for (size_t burst : {size_t{1}, size_t{7}, size_t{32}}) {
      mrpc::GeneratedStage scalar(e, 5);
      mrpc::GeneratedStage bursty(e, 5);
      SeedAcl(scalar.instance());
      SeedAcl(bursty.instance());
      EXPECT_TRUE(scalar.compiled()) << e->name;

      std::vector<Message> scalar_msgs = stream;
      std::vector<Message> burst_msgs = stream;
      std::vector<ProcessResult> scalar_results(stream.size());
      std::vector<ProcessResult> burst_results(stream.size());
      for (size_t i = 0; i < stream.size(); ++i) {
        scalar_results[i] = scalar.Process(scalar_msgs[i], 0);
      }
      for (size_t off = 0; off < stream.size(); off += burst) {
        const size_t n = std::min(burst, stream.size() - off);
        bursty.ProcessBurst(burst_msgs.data() + off, n, 0,
                            burst_results.data() + off);
      }
      for (size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(scalar_results[i].outcome, burst_results[i].outcome)
            << e->name << " burst=" << burst << " message " << i;
        ASSERT_EQ(scalar_results[i].abort_message,
                  burst_results[i].abort_message)
            << e->name << " burst=" << burst << " message " << i;
        ASSERT_EQ(scalar_msgs[i].DebugString(), burst_msgs[i].DebugString())
            << e->name << " burst=" << burst << " message " << i;
      }
      EXPECT_EQ(scalar.instance().processed(), bursty.instance().processed())
          << e->name << " burst=" << burst;
      EXPECT_EQ(scalar.instance().dropped(), bursty.instance().dropped())
          << e->name << " burst=" << burst;
      EXPECT_EQ(scalar.instance().StateContentHash(),
                bursty.instance().StateContentHash())
          << e->name << " burst=" << burst;
    }
  }
}

// --- EnginePool wiring -------------------------------------------------------

TEST(Burst, PoolBurstSizesProduceIdenticalStateAndCounts) {
  // One worker, deterministic routing: any burst size must yield exactly the
  // processed/dropped counts and table state of the per-message drain.
  auto run = [&](size_t burst_size) {
    auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                    std::string(elements::LogTableSql()) +
                                    std::string(elements::LoggingSql()) +
                                    std::string(elements::AclSql()) +
                                    std::string(elements::FaultSql()));
    auto lowered = compiler::LowerProgram(*parsed);
    EXPECT_TRUE(lowered.ok());
    std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
        lowered->FindElement("Logging"), lowered->FindElement("Acl"),
        lowered->FindElement("Fault")};
    EnginePool::Config config;
    config.workers = 1;
    config.shard_key_field = "username";
    config.burst_size = burst_size;
    config.seed = 17;
    EnginePool pool(elements, {}, config);
    SeedAcl(*pool.FindTemplateInstance("Acl"));
    EXPECT_TRUE(pool.Start().ok());
    Rng rng(55);
    for (uint64_t i = 0; i < 4000; ++i) pool.Submit(FigMessage(rng, i));
    pool.Stop();
    struct Totals {
      uint64_t processed, dropped;
      std::vector<uint64_t> hashes;
    } t{pool.processed(), pool.dropped(), {}};
    for (size_t e = 0; e < pool.element_count(); ++e) {
      t.hashes.push_back(pool.MergedStateHash(e));
    }
    return std::make_tuple(t.processed, t.dropped, t.hashes);
  };
  const auto scalar = run(1);
  for (size_t burst : {4u, 32u, 64u}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    EXPECT_EQ(run(burst), scalar);
  }
}

// Logging → Acl → Quota: Quota joins the table it updates on every message.
std::vector<std::shared_ptr<const ir::ElementIr>> LogAclQuotaElements() {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::LogTableSql()) +
                                  std::string(elements::QuotaTableSql()) +
                                  std::string(elements::LoggingSql()) +
                                  std::string(elements::AclSql()) +
                                  std::string(elements::QuotaSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(lowered.ok());
  return {lowered->FindElement("Logging"), lowered->FindElement("Acl"),
          lowered->FindElement("Quota")};
}

// One obs-on pool run: everything the telemetry must leave identical
// across burst sizes.
struct ObsRun {
  uint64_t processed = 0;
  uint64_t dropped = 0;
  uint64_t rpcs_metric = 0;
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> element_counts;  // adn_element_latency_ns counts
  uint64_t sampled_traces = 0;
  uint64_t events_dropped = 0;

  bool operator==(const ObsRun&) const = default;
};

void PrintTo(const ObsRun& r, std::ostream* os) {
  *os << "{processed " << r.processed << ", dropped " << r.dropped
      << ", rpcs " << r.rpcs_metric << ", element counts";
  for (uint64_t c : r.element_counts) *os << " " << c;
  *os << ", sampled " << r.sampled_traces << ", events dropped "
      << r.events_dropped << "}";
}

// Runs 4000 fig5 messages through a one-worker pool with metrics and
// 1-in-8 tracing on, then checks each sampled lane's span tree: exactly
// one root "rpc" span and one child per element the lane entered, in chain
// order. A lane enters every element up to the one that dropped it, named
// by its abort message (`drop_messages[e]` for element e).
ObsRun RunObsPool(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<std::string>& drop_messages, size_t burst_size) {
  constexpr uint64_t kMessages = 4000;
  obs::Tracer::Default().Clear();
  obs::EventRingRegistry::Default().Reset();
  obs::MetricsRegistry::Default().Reset();
  EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.burst_size = burst_size;
  config.seed = 17;
  config.processor = "obs-parity";
  // One worker: on_done runs on its thread, and Drain() orders these
  // writes before the reads below.
  std::vector<ProcessResult> outcomes(kMessages);
  config.on_done = [&](int, const Message& m, const ProcessResult& r) {
    outcomes[m.id()] = r;
  };
  EnginePool pool(elements, {}, config);
  SeedAcl(*pool.FindTemplateInstance("Acl"));
  if (ir::ElementInstance* quota = pool.FindTemplateInstance("Quota")) {
    rpc::Table* t = quota->FindTable("quota");
    EXPECT_TRUE(t->Insert({Value("alice"), Value(int64_t{300})}).ok());
    EXPECT_TRUE(t->Insert({Value("carol"), Value(int64_t{5})}).ok());
  }
  EXPECT_TRUE(pool.Start().ok());
  Rng rng(55);
  for (uint64_t i = 0; i < kMessages; ++i) pool.Submit(FigMessage(rng, i));
  pool.Drain();

  ObsRun run;
  // Draining the rings folds ring-full drops into the counter read below.
  const std::vector<obs::Span> spans = obs::Tracer::Default().AllSpans();
  for (uint64_t id = 0; id < kMessages; ++id) {
    if (!obs::Tracer::Default().ShouldSample(id)) continue;
    ++run.sampled_traces;
    size_t entered = elements.size();
    if (outcomes[id].outcome != ProcessOutcome::kPass) {
      for (size_t e = 0; e < drop_messages.size(); ++e) {
        if (outcomes[id].abort_message == drop_messages[e]) entered = e + 1;
      }
    }
    const obs::Span* root = nullptr;
    std::vector<std::string> children;
    for (const obs::Span& s : spans) {
      if (s.trace_id != id || s.parent_id != 0) continue;
      EXPECT_EQ(root, nullptr) << "trace " << id << ": two roots";
      root = &s;
    }
    EXPECT_NE(root, nullptr) << "trace " << id;
    if (root == nullptr) continue;
    EXPECT_EQ(root->name(), "rpc");
    EXPECT_EQ(root->processor(), "obs-parity-w0");
    for (const obs::Span& s : spans) {
      if (s.trace_id != id || s.parent_id == 0) continue;
      EXPECT_EQ(s.parent_id, root->span_id) << "trace " << id;
      EXPECT_LE(root->start_ns, s.start_ns);
      EXPECT_LE(s.start_ns, s.end_ns);
      EXPECT_LE(s.end_ns, root->end_ns);
      children.emplace_back(s.name());
    }
    std::vector<std::string> want;
    for (size_t e = 0; e < entered; ++e) want.push_back(elements[e]->name);
    EXPECT_EQ(children, want) << "trace " << id << " outcome "
                              << outcomes[id].abort_message;
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "adn_chain_rpcs_total") {
      run.rpcs_metric += static_cast<uint64_t>(s.value);
    } else if (s.name == "adn_obs_events_dropped_total") {
      run.events_dropped += static_cast<uint64_t>(s.value);
    }
  }
  for (const auto& e : elements) {
    const obs::MetricSample* lat = snap.Find(
        "adn_element_latency_ns", "element=\"" + e->name + "\"");
    run.element_counts.push_back(lat == nullptr ? 0 : lat->count);
  }
  pool.Stop();
  run.processed = pool.processed();
  run.dropped = pool.dropped();
  for (size_t e = 0; e < pool.element_count(); ++e) {
    run.hashes.push_back(pool.MergedStateHash(e));
    // Every lane that entered an element is counted, whatever the chunk.
    EXPECT_EQ(run.element_counts[e], pool.WorkerInstance(0, e).processed())
        << elements[e]->name;
  }
  return run;
}

TEST(Burst, ObsOnBurstMatchesObsOnScalarCountsAndState) {
  // The always-on telemetry contract: with metrics AND sampled tracing
  // enabled, burst-batched telemetry must not perturb execution, and its
  // counts must not depend on the chunking — processed/dropped counts,
  // per-element state hashes, rpcs_total, every element's latency count
  // and the sampled span trees all match the per-message (burst=1) run,
  // with no event lost. Fig5 and Logging-Acl-Quota (a chain that joins the
  // table it updates) both run it.
  obs::SetEnabled(true);
  obs::Tracer::Default().SetTracingEnabled(true);
  obs::Tracer::Default().SetSampleEvery(8);
  const std::vector<std::pair<
      std::vector<std::shared_ptr<const ir::ElementIr>>,
      std::vector<std::string>>>
      chains = {
          {Fig5Elements(), {"", "permission denied", "fault injected"}},
          {LogAclQuotaElements(), {"", "permission denied", "quota exceeded"}},
      };
  for (const auto& [elements, drop_messages] : chains) {
    SCOPED_TRACE("chain ending in " + elements.back()->name);
    const ObsRun scalar = RunObsPool(elements, drop_messages, 1);
    EXPECT_EQ(scalar.rpcs_metric, 4000u);  // metrics counted every message
    EXPECT_EQ(scalar.element_counts.front(), 4000u);
    EXPECT_EQ(scalar.sampled_traces, 500u);
    EXPECT_EQ(scalar.events_dropped, 0u);
    EXPECT_GT(scalar.dropped, 0u);
    EXPECT_LT(scalar.dropped, scalar.processed);
    for (size_t burst : {4u, 32u}) {
      SCOPED_TRACE("burst=" + std::to_string(burst));
      EXPECT_EQ(RunObsPool(elements, drop_messages, burst), scalar);
    }
  }
  obs::Tracer::Default().Clear();
  obs::EventRingRegistry::Default().Reset();
  obs::MetricsRegistry::Default().Reset();
  obs::Tracer::Default().SetTracingEnabled(false);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace adn
