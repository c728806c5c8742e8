// Burst-mode data plane: differential parity burst ≡ scalar ≡ interpreter.
//
// The SoA wavefront in program_burst.cc reorders execution from
// message-major to instruction-major; these tests prove the reordering is
// unobservable: outcomes, abort messages, message mutations, per-element
// processed/dropped counters, nonce/RNG streams and table content hashes
// must match the scalar tier bit for bit — for randomized chains, every
// burst size, and mid-burst drop/abort lanes. Ring burst semantics and the
// pool/engine wiring are covered here too; the concurrent-producer TSan
// cases live in test_threads.cc.
#include <gtest/gtest.h>

#include <algorithm>
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
// mid-burst aborts, and a per-element RNG stream — and is exactly the shape
// the burst analysis must prove safe.
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

TEST(Burst, Fig5ChainIsVectorizableWithAPrefetchSite) {
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
  EXPECT_TRUE(exec.burst_vectorizable());
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

// Same shape as test_parity's generator. Most generated programs violate a
// burst-safety rule (several mutation sites on one table, UPDATE+JOIN mixes)
// and must take the transparent scalar fallback; the rest exercise the SoA
// wavefront — parity must hold either way, and the test asserts both paths
// actually occur across the corpus.
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
  int vectorized = 0, fallback = 0;
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
    if (burst_exec.burst_vectorizable()) {
      ++vectorized;
    } else {
      ++fallback;
    }

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
  // The corpus must exercise both the wavefront and the fallback, or the
  // test is weaker than it claims.
  EXPECT_GT(vectorized, 0);
  EXPECT_GT(fallback, 0);
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
    // Quota joins the table it mutates: the scalar loop runs every burst,
    // behind the prefetch of both keyed joins (ac_tab and quota).
    EXPECT_FALSE(burst_exec.burst_vectorizable());
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

// --- EngineChain (single-threaded engine tier) -------------------------------

TEST(Burst, EngineChainBurstMatchesScalarChain) {
  auto elements = Fig5Elements();
  auto make_chain = [&](mrpc::EngineChain& chain) {
    for (const auto& e : elements) {
      auto stage = std::make_unique<mrpc::GeneratedStage>(e, 5);
      SeedAcl(stage->instance());
      chain.AddStage(std::move(stage));
    }
  };
  mrpc::EngineChain scalar_chain, burst_chain;
  make_chain(scalar_chain);
  make_chain(burst_chain);

  Rng rng(123);
  std::vector<Message> stream;
  for (uint64_t i = 0; i < 130; ++i) stream.push_back(FigMessage(rng, i));
  std::vector<Message> scalar_msgs = stream;
  std::vector<ProcessResult> burst_results(stream.size());
  std::vector<ProcessResult> scalar_results(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    scalar_results[i] = scalar_chain.Process(scalar_msgs[i], 0);
  }
  for (size_t off = 0; off < stream.size(); off += 32) {
    const size_t n = std::min<size_t>(32, stream.size() - off);
    burst_chain.ProcessBurst(stream.data() + off, n, 0,
                             burst_results.data() + off);
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(scalar_results[i].outcome, burst_results[i].outcome)
        << "message " << i;
    ASSERT_EQ(scalar_msgs[i].DebugString(), stream[i].DebugString());
  }
  EXPECT_EQ(scalar_chain.processed(), burst_chain.processed());
  EXPECT_EQ(scalar_chain.dropped(), burst_chain.dropped());
  for (size_t s = 0; s < scalar_chain.size(); ++s) {
    auto& a = static_cast<mrpc::GeneratedStage&>(scalar_chain.stage(s));
    auto& b = static_cast<mrpc::GeneratedStage&>(burst_chain.stage(s));
    EXPECT_EQ(a.instance().StateContentHash(),
              b.instance().StateContentHash())
        << "stage " << s;
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

TEST(Burst, ObsOnBurstMatchesObsOnScalarCountsAndState) {
  // The always-on telemetry contract: with metrics AND sampled tracing
  // enabled, the pool must still run the burst executor (no scalar
  // fallback), and burst-batched telemetry must not perturb execution —
  // processed/dropped counts, per-element state hashes, and the metric
  // rpcs_total all match the obs-on scalar (burst=1) run exactly.
  obs::SetEnabled(true);
  obs::Tracer::Default().SetTracingEnabled(true);
  obs::Tracer::Default().SetSampleEvery(8);
  auto run = [&](size_t burst_size) {
    obs::Tracer::Default().Clear();
    obs::EventRingRegistry::Default().Reset();
    obs::MetricsRegistry::Default().Reset();
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
    config.processor = "obs-parity";
    EnginePool pool(elements, {}, config);
    SeedAcl(*pool.FindTemplateInstance("Acl"));
    EXPECT_TRUE(pool.Start().ok());
    Rng rng(55);
    for (uint64_t i = 0; i < 4000; ++i) pool.Submit(FigMessage(rng, i));
    pool.Drain();
    uint64_t rpcs_metric = 0;
    for (const obs::MetricSample& s :
         obs::MetricsRegistry::Default().Snapshot().samples) {
      if (s.name == "adn_chain_rpcs_total") {
        rpcs_metric += static_cast<uint64_t>(s.value);
      }
    }
    pool.Stop();
    std::vector<uint64_t> hashes;
    for (size_t e = 0; e < pool.element_count(); ++e) {
      hashes.push_back(pool.MergedStateHash(e));
    }
    return std::make_tuple(pool.processed(), pool.dropped(), rpcs_metric,
                           hashes);
  };
  const auto scalar = run(1);
  EXPECT_EQ(std::get<2>(scalar), 4000u);  // metrics counted every message
  for (size_t burst : {4u, 32u}) {
    SCOPED_TRACE("burst=" + std::to_string(burst));
    EXPECT_EQ(run(burst), scalar);
  }
  obs::Tracer::Default().Clear();
  obs::EventRingRegistry::Default().Reset();
  obs::MetricsRegistry::Default().Reset();
  obs::Tracer::Default().SetTracingEnabled(false);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace adn
