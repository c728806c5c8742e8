// ChainProgram executor tests: program structure, whole-chain execution
// with kind guards, the mesh-path deployment, and migration invariance of
// the compiled tier (state stays in ElementInstance, so snapshot/restore,
// split/merge behave identically under either executor).
#include <gtest/gtest.h>

#include "compiler/chain_compile.h"
#include "compiler/compiler.h"
#include "compiler/lower.h"
#include "core/network.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/program.h"
#include "mrpc/engine.h"
#include "stack/mesh_path.h"

namespace adn {
namespace {

using ir::ProcessOutcome;
using rpc::Message;
using rpc::Value;

compiler::ProgramIr Lower(const std::string& source) {
  auto parsed = dsl::ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::shared_ptr<const ir::ElementIr> LowerNamed(const std::string& source,
                                                const std::string& name) {
  auto program = Lower(source);
  auto element = program.FindElement(name);
  EXPECT_NE(element, nullptr) << name;
  return element;
}

// --- Program structure ---------------------------------------------------------

TEST(ChainProgram, CompilesAclToExpectedShape) {
  auto code = LowerNamed(std::string(elements::AclTableSql()) +
                             std::string(elements::AclSql()),
                         "Acl");
  auto program = compiler::CompileElementProgram(*code);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const ir::ChainProgram& p = *program.value();
  ASSERT_EQ(p.elements.size(), 1u);
  EXPECT_EQ(p.elements[0].name, "Acl");
  // The hand-coded twins in elements/handcoded.cc are calibrated against
  // these instruction counts; a codegen change that shifts them must
  // recalibrate the twins to keep the 3-12% band.
  EXPECT_EQ(p.elements[0].instr_count, 11u);
  EXPECT_GT(p.num_registers, 0);
  std::string listing = p.DebugString();
  EXPECT_NE(listing.find("lookup"), std::string::npos) << listing;
  EXPECT_NE(listing.find("drop"), std::string::npos) << listing;
}

TEST(ChainProgram, TwinCalibrationInstructionCounts) {
  struct Case {
    std::string source;
    const char* name;
    uint32_t instr_count;
  };
  std::vector<Case> cases = {
      {std::string(elements::LogTableSql()) +
           std::string(elements::LoggingSql()),
       "Logging", 6},
      {std::string(elements::FaultSql()), "Fault", 9},
      {std::string(elements::EndpointsTableSql()) +
           std::string(elements::HashLbSql()),
       "HashLb", 12},
      {std::string(elements::CompressSql()), "Compress", 6},
  };
  for (const auto& c : cases) {
    auto code = LowerNamed(c.source, c.name);
    auto program = compiler::CompileElementProgram(*code);
    ASSERT_TRUE(program.ok()) << c.name << ": "
                              << program.status().ToString();
    EXPECT_EQ(program.value()->elements[0].instr_count, c.instr_count)
        << c.name;
  }
}

TEST(ChainProgram, FilterElementsCompileToOneBuiltin) {
  auto program = Lower(std::string(elements::RateLimitFilterSql()));
  auto filter = program.FindElement("Limiter");
  ASSERT_NE(filter, nullptr);
  auto compiled = compiler::CompileElementProgram(*filter);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // The whole body is one call into the instance's built-in operator.
  const ir::ChainProgram& code = *compiled.value();
  ASSERT_EQ(code.code.size(), 3u) << code.DebugString();
  EXPECT_EQ(code.code[0].op, ir::Instr::Op::kBeginElement);
  EXPECT_EQ(code.code[1].op, ir::Instr::Op::kBuiltin);
  EXPECT_EQ(code.code[2].op, ir::Instr::Op::kReturnPass);

  // A GeneratedStage over it runs the operator against its state table.
  mrpc::GeneratedStage stage(filter, 1);
  EXPECT_TRUE(stage.compiled());
  Message m = Message::MakeRequest(1, "Get", {{"username", Value("alice")}});
  EXPECT_EQ(stage.Process(m, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(stage.instance().processed(), 1u);
  EXPECT_EQ(stage.instance().dropped(), 0u);
  const rpc::Table* bucket = stage.instance().FindTable("__filter_Limiter");
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->RowCount(), 1u);
  EXPECT_DOUBLE_EQ(bucket->RowAt(0)[0].AsFloat(), 127.0);  // burst 128 - 1
}

TEST(ChainProgram, CompileSourceAttachesProgramToChain) {
  compiler::Compiler c;
  auto compiled = c.CompileSource(elements::Fig5ProgramSource(), {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const compiler::CompiledChain* chain = compiled->FindChain("fig5");
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(chain->program, nullptr);
  EXPECT_EQ(chain->program->elements.size(), 3u);
  EXPECT_GT(chain->program->TotalInstrCount(), 0u);
}

// --- Whole-chain execution with kind guards -----------------------------------

TEST(ChainExecutor, KindGuardSkipsNonMatchingElements) {
  auto code = LowerNamed(std::string(elements::FaultSql()), "Fault");
  auto program =
      compiler::CompileChainProgram({code}, compiler::ChainCompileOptions{});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ir::ElementInstance inst(code, 5);
  ir::ChainExecutor exec(program.value(), {&inst});
  Message m = Message::MakeRequest(1, "M", {{"payload", Value(Bytes{1})}});
  Message resp = Message::MakeResponse(m, {{"payload", Value(Bytes{2})}});
  EXPECT_EQ(exec.Process(resp, 0).outcome, ProcessOutcome::kPass);
  // Fault is ON REQUEST: the response never entered the element.
  EXPECT_EQ(inst.processed(), 0u);
}

TEST(ChainExecutor, Fig5ChainMatchesInterpreterOnMixedKinds) {
  auto lowered = Lower(elements::Fig5ProgramSource());
  std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
      lowered.FindElement("Logging"), lowered.FindElement("Acl"),
      lowered.FindElement("Fault")};
  for (const auto& e : elements) ASSERT_NE(e, nullptr);

  auto program = compiler::CompileChainProgram(elements, {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  std::vector<std::unique_ptr<ir::ElementInstance>> interp;
  std::vector<std::unique_ptr<ir::ElementInstance>> compiled;
  std::vector<ir::ElementInstance*> raw;
  for (size_t i = 0; i < elements.size(); ++i) {
    interp.push_back(std::make_unique<ir::ElementInstance>(elements[i], i + 1));
    compiled.push_back(
        std::make_unique<ir::ElementInstance>(elements[i], i + 1));
    raw.push_back(compiled.back().get());
  }
  for (auto* set : {&interp, &compiled}) {
    rpc::Table* acl = (*set)[1]->FindTable("ac_tab");
    ASSERT_NE(acl, nullptr);
    ASSERT_TRUE(acl->Insert({Value("alice"), Value("W")}).ok());
    ASSERT_TRUE(acl->Insert({Value("bob"), Value("R")}).ok());
  }
  ir::ChainExecutor exec(program.value(), std::move(raw));

  // Reference semantics: walk the instances, honoring AppliesTo and
  // stopping at the first drop — exactly what EngineChain does.
  auto run_interp = [&](Message& m) {
    for (auto& inst : interp) {
      if (!inst->AppliesTo(m.kind())) continue;
      ir::ProcessResult r = inst->Process(m, 0);
      if (r.outcome != ProcessOutcome::kPass) return r;
    }
    return ir::ProcessResult::Pass();
  };

  Rng msgs(77);
  const char* users[] = {"alice", "bob", "mallory"};
  for (int i = 0; i < 400; ++i) {
    Message m1 = Message::MakeRequest(
        static_cast<uint64_t>(i), "M",
        {{"username", Value(std::string(users[msgs.NextBelow(3)]))},
         {"payload", Value(Bytes(1 + msgs.NextBelow(32), 0x11))}});
    if (msgs.NextBelow(4) == 0) {
      m1 = Message::MakeResponse(m1, {{"username", m1.GetFieldOrNull(
                                                       "username")},
                                      {"payload", Value(Bytes{9})}});
    }
    Message m2 = m1;
    ir::ProcessResult r1 = run_interp(m1);
    ir::ProcessResult r2 = exec.Process(m2, 0);
    ASSERT_EQ(r1.outcome, r2.outcome) << "message " << i;
    ASSERT_EQ(r1.abort_message, r2.abort_message) << "message " << i;
    ASSERT_EQ(m1.DebugString(), m2.DebugString()) << "message " << i;
  }
  for (size_t i = 0; i < interp.size(); ++i) {
    EXPECT_EQ(interp[i]->StateContentHash(), compiled[i]->StateContentHash());
    EXPECT_EQ(interp[i]->processed(), compiled[i]->processed());
    EXPECT_EQ(interp[i]->dropped(), compiled[i]->dropped());
  }
}

// --- Mesh-path deployment -------------------------------------------------------

TEST(ChainExecutor, RunsInsideMeshSidecar) {
  auto code = LowerNamed(std::string(elements::AclTableSql()) +
                             std::string(elements::AclSql()),
                         "Acl");
  auto program = compiler::CompileChainProgram({code}, {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  rpc::Schema schema;
  ASSERT_TRUE(schema.AddColumn({"username", rpc::ValueType::kText, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"object_id", rpc::ValueType::kInt, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"payload", rpc::ValueType::kBytes, false}).ok());

  stack::MeshConfig config;
  config.concurrency = 16;
  config.measured_requests = 2'000;
  config.warmup_requests = 200;
  config.request_schema = schema;
  config.make_request = core::MakeDefaultRequestFactory();
  stack::AdnChainConfig chain;
  chain.program = program.value();
  chain.elements = {code};
  chain.seed_state = [](stack::AdnChainFilter& filter) {
    rpc::Table* acl = filter.instance(0).FindTable("ac_tab");
    ASSERT_NE(acl, nullptr);
    // Half the default workload's users get write permission.
    ASSERT_TRUE(acl->Insert({Value("alice"), Value("W")}).ok());
    ASSERT_TRUE(acl->Insert({Value("carol"), Value("W")}).ok());
    ASSERT_TRUE(acl->Insert({Value("bob"), Value("R")}).ok());
  };
  config.adn_chain = std::move(chain);

  stack::MeshResult result = stack::RunMeshExperiment(config);
  EXPECT_EQ(result.stats.completed + result.stats.dropped, 2'200u);
  double drop_rate =
      static_cast<double>(result.stats.dropped) /
      static_cast<double>(result.stats.completed + result.stats.dropped);
  // alice + carol pass, bob + dave are denied by the compiled chain.
  EXPECT_NEAR(drop_rate, 0.5, 0.05);
}

// A deployed cached chain compiles whole (the cache is one kBuiltin), so
// the sidecar runs it as one program like any other chain.
TEST(ChainExecutor, RunsCachedChainInsideMeshSidecar) {
  compiler::Compiler c;
  auto compiled = c.CompileSource(elements::CacheChainSource(), {});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const compiler::CompiledChain* chain = compiled->FindChain("cached");
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(chain->program, nullptr);
  ASSERT_EQ(chain->program->elements.size(), chain->elements.size());

  rpc::Schema schema;
  ASSERT_TRUE(schema.AddColumn({"username", rpc::ValueType::kText, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"object_id", rpc::ValueType::kInt, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"payload", rpc::ValueType::kBytes, false}).ok());

  stack::MeshConfig config;
  config.concurrency = 16;
  config.measured_requests = 2'000;
  config.warmup_requests = 200;
  config.request_schema = schema;
  config.make_request = core::MakeDefaultRequestFactory();
  stack::AdnChainConfig adn;
  adn.program = chain->program;
  for (const compiler::CompiledElement& ce : chain->elements) {
    adn.elements.push_back(ce.ir);
  }
  adn.seed_state = [](stack::AdnChainFilter& filter) {
    for (size_t i = 0; i < filter.instance_count(); ++i) {
      if (rpc::Table* acl = filter.instance(i).FindTable("ac_tab")) {
        for (const char* user : {"alice", "bob", "carol", "dave"}) {
          ASSERT_TRUE(acl->Insert({Value(std::string(user)), Value("W")}).ok());
        }
      }
      if (rpc::Table* endpoints = filter.instance(i).FindTable("endpoints")) {
        for (int64_t shard = 0; shard < elements::kLbShards; ++shard) {
          ASSERT_TRUE(
              endpoints->Insert({Value(shard), Value(100 + shard)}).ok());
        }
      }
    }
  };
  config.adn_chain = std::move(adn);

  stack::MeshResult result = stack::RunMeshExperiment(config);
  EXPECT_EQ(result.stats.completed, 2'200u);
  EXPECT_EQ(result.stats.dropped, 0u) << "every user may write";
}

// --- Migration invariance -------------------------------------------------------

std::shared_ptr<const ir::ElementIr> QuotaElement() {
  return LowerNamed(std::string(elements::QuotaTableSql()) +
                        std::string(elements::QuotaSql()),
                    "Quota");
}

void SeedQuota(ir::ElementInstance& inst) {
  rpc::Table* quota = inst.FindTable("quota");
  ASSERT_NE(quota, nullptr);
  for (int64_t u = 0; u < 4; ++u) {
    ASSERT_TRUE(
        quota->Insert({Value("u" + std::to_string(u)), Value(u + 3)}).ok());
  }
}

Message QuotaRequest(uint64_t id, Rng& rng) {
  return Message::MakeRequest(
      id, "M",
      {{"username", Value("u" + std::to_string(rng.NextBelow(5)))}});
}

TEST(Migration, SnapshotUnderCompiledExecutorReplaysIdentically) {
  auto code = QuotaElement();
  auto program = compiler::CompileElementProgram(*code);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  ir::ElementInstance original(code, 1);
  SeedQuota(original);
  ir::ChainExecutor exec(program.value(), {&original});

  Rng stream(12);
  std::vector<Message> first_half, second_half;
  for (uint64_t i = 0; i < 15; ++i) first_half.push_back(QuotaRequest(i, stream));
  for (uint64_t i = 15; i < 30; ++i)
    second_half.push_back(QuotaRequest(i, stream));

  for (Message& m : first_half) {
    Message copy = m;
    (void)exec.Process(copy, 0);
  }

  // Mid-stream migration: snapshot, restore into a fresh instance driven by
  // its own compiled executor, then replay the remaining stream on both.
  Bytes snapshot = original.SnapshotState();
  ir::ElementInstance restored(code, 99);
  ASSERT_TRUE(restored.RestoreState(snapshot).ok());
  EXPECT_EQ(restored.StateContentHash(), original.StateContentHash());
  ir::ChainExecutor restored_exec(program.value(), {&restored});

  for (Message& m : second_half) {
    Message m1 = m;
    Message m2 = m;
    ir::ProcessResult r1 = exec.Process(m1, 0);
    ir::ProcessResult r2 = restored_exec.Process(m2, 0);
    EXPECT_EQ(r1.outcome, r2.outcome);
    EXPECT_EQ(r1.abort_message, r2.abort_message);
    EXPECT_EQ(m1.DebugString(), m2.DebugString());
  }
  EXPECT_EQ(restored.StateContentHash(), original.StateContentHash());
}

TEST(Migration, SplitMergeRoundTripsUnderCompiledExecutor) {
  auto code = QuotaElement();
  auto program = compiler::CompileElementProgram(*code);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  ir::ElementInstance source(code, 1);
  SeedQuota(source);
  ir::ChainExecutor exec(program.value(), {&source});
  Rng stream(13);
  for (uint64_t i = 0; i < 20; ++i) {
    Message m = QuotaRequest(i, stream);
    (void)exec.Process(m, 0);
  }

  // An oracle copy that never moves, to replay the same traffic against.
  ir::ElementInstance oracle(code, 1);
  ASSERT_TRUE(oracle.RestoreState(source.SnapshotState()).ok());
  ir::ChainExecutor oracle_exec(program.value(), {&oracle});
  const uint64_t original_hash = source.StateContentHash();
  const size_t original_rows = source.FindTable("quota")->RowCount();

  // Scale-out: the source's rows move into three instances; the source is
  // left empty and its executor, still live, now finds no user (handles
  // are indexes, so nothing dangles).
  ir::ElementInstance s0(code, 2);
  ir::ElementInstance s1(code, 3);
  ir::ElementInstance s2(code, 4);
  ir::ElementInstance* const shards[] = {&s0, &s1, &s2};
  ASSERT_TRUE(source.MoveStateTo(shards).ok());
  EXPECT_EQ(s0.StateContentHash() ^ s1.StateContentHash() ^
                s2.StateContentHash(),
            original_hash);
  EXPECT_TRUE(source.FindTable("quota")->empty());
  {
    Message m = QuotaRequest(0, stream);
    EXPECT_EQ(exec.Process(m, 0).outcome, ProcessOutcome::kDropAbort);
  }

  // Scale-in: the shards move back into the source, whose executor —
  // built before any move — reproduces the oracle message for message.
  ir::ElementInstance* const home[] = {&source};
  for (ir::ElementInstance* shard : shards) {
    ASSERT_TRUE(shard->MoveStateTo(home).ok());
  }
  EXPECT_EQ(source.StateContentHash(), original_hash);
  EXPECT_EQ(source.FindTable("quota")->RowCount(), original_rows);
  for (uint64_t i = 20; i < 60; ++i) {
    Message m1 = QuotaRequest(i, stream);
    Message m2 = m1;
    const ir::ProcessResult r1 = exec.Process(m1, 0);
    const ir::ProcessResult r2 = oracle_exec.Process(m2, 0);
    EXPECT_EQ(r1.outcome, r2.outcome);
    EXPECT_EQ(r1.abort_message, r2.abort_message);
    EXPECT_EQ(m1.DebugString(), m2.DebugString());
  }
  EXPECT_EQ(source.StateContentHash(), oracle.StateContentHash());

  // Moving into a NON-empty instance (scale-in onto a live peer): arriving
  // at the same union from three shards or from one whole copy hashes
  // identically, and the merged instance keeps working under the compiled
  // executor.
  auto seed_extra = [](ir::ElementInstance& inst) {
    rpc::Table* quota = inst.FindTable("quota");
    ASSERT_NE(quota, nullptr);
    ASSERT_TRUE(quota->Insert({Value("w0"), Value(7)}).ok());
    ASSERT_TRUE(quota->Insert({Value("w1"), Value(1)}).ok());
  };
  ir::ElementInstance copy(code, 5);
  ASSERT_TRUE(copy.RestoreState(source.SnapshotState()).ok());
  ASSERT_TRUE(source.MoveStateTo(shards).ok());
  ir::ElementInstance busy(code, 6);
  seed_extra(busy);
  ir::ElementInstance* const into_busy[] = {&busy};
  for (ir::ElementInstance* shard : shards) {
    ASSERT_TRUE(shard->MoveStateTo(into_busy).ok());
  }
  ir::ElementInstance busy_twin(code, 7);
  seed_extra(busy_twin);
  ir::ElementInstance* const into_twin[] = {&busy_twin};
  ASSERT_TRUE(copy.MoveStateTo(into_twin).ok());
  EXPECT_EQ(busy.StateContentHash(), busy_twin.StateContentHash());
  EXPECT_EQ(busy.FindTable("quota")->RowCount(), original_rows + 2);

  ir::ChainExecutor merged_exec(program.value(), {&busy});
  Message m = Message::MakeRequest(100, "M", {{"username", Value("w0")}});
  EXPECT_EQ(merged_exec.Process(m, 0).outcome, ProcessOutcome::kPass);
}

TEST(Migration, RestoreSwapsTablesWithoutDanglingExecutorHandles) {
  // The executor resolves table handles per call through the instance, so a
  // RestoreState that replaces the whole table vector mid-lifetime must be
  // transparent to an already-constructed executor.
  auto code = QuotaElement();
  auto program = compiler::CompileElementProgram(*code);
  ASSERT_TRUE(program.ok());
  ir::ElementInstance inst(code, 1);
  SeedQuota(inst);
  ir::ChainExecutor exec(program.value(), {&inst});
  Message warm = Message::MakeRequest(0, "M", {{"username", Value("u3")}});
  ASSERT_EQ(exec.Process(warm, 0).outcome, ProcessOutcome::kPass);

  ir::ElementInstance donor(code, 2);
  rpc::Table* quota = donor.FindTable("quota");
  ASSERT_NE(quota, nullptr);
  ASSERT_TRUE(quota->Insert({Value("only"), Value(1)}).ok());
  ASSERT_TRUE(inst.RestoreState(donor.SnapshotState()).ok());

  Message hit = Message::MakeRequest(1, "M", {{"username", Value("only")}});
  Message miss = Message::MakeRequest(2, "M", {{"username", Value("u3")}});
  EXPECT_EQ(exec.Process(hit, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(exec.Process(miss, 0).outcome, ProcessOutcome::kDropAbort);
}

// --- Point UPDATE in place ------------------------------------------------------

// Everything observable after one element processed `stream` on one tier.
struct TierOutcome {
  std::vector<ir::ProcessResult> results;
  std::vector<std::string> messages;
  uint64_t state_hash = 0;
  std::string table_dump;
};

enum class Tier { kInterpreter, kScalar, kBurst };

TierOutcome RunTier(const std::shared_ptr<const ir::ElementIr>& code,
                    const std::vector<std::pair<std::string, rpc::Row>>& seed,
                    const std::vector<Message>& stream, Tier tier) {
  TierOutcome out;
  ir::ElementInstance inst(code, 1);
  for (const auto& [table, row] : seed) {
    EXPECT_TRUE(inst.FindTable(table)->Insert(row).ok());
  }
  std::vector<Message> msgs = stream;
  out.results.resize(msgs.size());
  auto program = compiler::CompileElementProgram(*code);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  ir::ChainExecutor exec(program.value(), {&inst});
  switch (tier) {
    case Tier::kInterpreter:
      for (size_t i = 0; i < msgs.size(); ++i) {
        out.results[i] = inst.Process(msgs[i], 0);
      }
      break;
    case Tier::kScalar:
      for (size_t i = 0; i < msgs.size(); ++i) {
        out.results[i] = exec.Process(msgs[i], 0);
      }
      break;
    case Tier::kBurst:
      for (size_t off = 0; off < msgs.size(); off += 16) {
        const size_t n = std::min<size_t>(16, msgs.size() - off);
        exec.ProcessBurst(msgs.data() + off, n, 0, out.results.data() + off);
      }
      break;
  }
  for (const Message& m : msgs) out.messages.push_back(m.DebugString());
  out.state_hash = inst.StateContentHash();
  for (const rpc::Table& t : inst.tables()) {
    out.table_dump += t.DebugString(1000) + "\n";
  }
  return out;
}

// Runs `stream` on the interpreter oracle, the scalar executor and the burst
// executor, expects all three to agree, and returns the oracle's outcome.
TierOutcome ExpectTiersAgree(
    const std::shared_ptr<const ir::ElementIr>& code,
    const std::vector<std::pair<std::string, rpc::Row>>& seed,
    const std::vector<Message>& stream) {
  const TierOutcome oracle = RunTier(code, seed, stream, Tier::kInterpreter);
  for (Tier tier : {Tier::kScalar, Tier::kBurst}) {
    const TierOutcome got = RunTier(code, seed, stream, tier);
    const int t = static_cast<int>(tier);
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(oracle.results[i].outcome, got.results[i].outcome)
          << "tier " << t << " message " << i;
      EXPECT_EQ(oracle.results[i].abort_message, got.results[i].abort_message)
          << "tier " << t << " message " << i;
      EXPECT_EQ(oracle.messages[i], got.messages[i])
          << "tier " << t << " message " << i;
    }
    EXPECT_EQ(oracle.state_hash, got.state_hash) << "tier " << t;
    EXPECT_EQ(oracle.table_dump, got.table_dump) << "tier " << t;
  }
  return oracle;
}

const ir::ChainProgram::UpdateSpec& OnlyUpdateSpec(
    const std::shared_ptr<const ir::ElementIr>& code,
    std::shared_ptr<const ir::ChainProgram>& holder) {
  auto program = compiler::CompileElementProgram(*code);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  holder = program.value();
  EXPECT_EQ(holder->update_specs.size(), 1u);
  return holder->update_specs[0];
}

TEST(PointUpdate, QuotaMatchesOracleOnEveryTier) {
  auto code = QuotaElement();
  std::shared_ptr<const ir::ChainProgram> holder;
  EXPECT_TRUE(OnlyUpdateSpec(code, holder).in_place);

  Rng rng(31);
  std::vector<std::pair<std::string, rpc::Row>> seed;
  for (int64_t u = 0; u < 20; ++u) {
    seed.push_back({"quota",
                    {Value("u" + std::to_string(u)),
                     Value(static_cast<int64_t>(rng.NextBelow(6)))}});
  }
  std::vector<Message> stream;
  for (uint64_t i = 0; i < 600; ++i) {
    stream.push_back(Message::MakeRequest(
        i, "M", {{"username", Value("u" + std::to_string(rng.NextBelow(24)))}}));
  }
  const TierOutcome oracle = ExpectTiersAgree(code, seed, stream);
  size_t passed = 0;
  for (const ir::ProcessResult& r : oracle.results) {
    passed += r.outcome == ProcessOutcome::kPass ? 1 : 0;
  }
  // The stream both spends quota and runs users dry.
  EXPECT_GT(passed, 0u);
  EXPECT_LT(passed, stream.size());
}

TEST(PointUpdate, MistypedAssignmentAbortsAndLeavesRowUnchanged) {
  // `amount` is declared INT but arrives as TEXT: the assignment's value is
  // only known to be mistyped at run time.
  auto code = LowerNamed(std::string(elements::QuotaTableSql()) + R"(
ELEMENT Refill ON REQUEST {
  INPUT (username TEXT, amount INT);
  UPDATE quota SET remaining = amount WHERE username = input.username;
}
)",
                         "Refill");
  std::shared_ptr<const ir::ChainProgram> holder;
  EXPECT_TRUE(OnlyUpdateSpec(code, holder).in_place);

  const std::vector<std::pair<std::string, rpc::Row>> seed = {
      {"quota", {Value("alice"), Value(5)}}};
  std::vector<Message> stream = {
      Message::MakeRequest(
          1, "M", {{"username", Value("alice")}, {"amount", Value("lots")}}),
      Message::MakeRequest(
          2, "M", {{"username", Value("alice")}, {"amount", Value(9)}}),
  };
  const TierOutcome oracle = ExpectTiersAgree(code, seed, stream);
  ASSERT_EQ(oracle.results[0].outcome, ProcessOutcome::kDropAbort);
  EXPECT_NE(oracle.results[0].abort_message.find(
                "column 'remaining' of table quota expects INT, got TEXT"),
            std::string::npos)
      << oracle.results[0].abort_message;
  EXPECT_EQ(oracle.results[1].outcome, ProcessOutcome::kPass);

  // The aborted message left the row as it was on every tier.
  const std::vector<Message> bad_only = {stream[0]};
  for (Tier tier : {Tier::kInterpreter, Tier::kScalar, Tier::kBurst}) {
    const TierOutcome got = RunTier(code, seed, bad_only, tier);
    EXPECT_NE(got.table_dump.find("('alice', 5)"), std::string::npos)
        << got.table_dump;
  }
}

TEST(PointUpdate, SwappingAssignmentsReadTheOldRow) {
  auto code = LowerNamed(R"(
STATE TABLE pairs (k TEXT PRIMARY KEY, a INT, b INT);
ELEMENT Swap ON REQUEST {
  INPUT (username TEXT);
  UPDATE pairs SET a = b, b = a WHERE k = input.username;
}
)",
                         "Swap");
  std::shared_ptr<const ir::ChainProgram> holder;
  EXPECT_TRUE(OnlyUpdateSpec(code, holder).in_place);
  const std::vector<std::pair<std::string, rpc::Row>> seed = {
      {"pairs", {Value("x"), Value(1), Value(2)}},
      {"pairs", {Value("y"), Value(3), Value(4)}}};
  const std::vector<Message> stream = {
      Message::MakeRequest(1, "M", {{"username", Value("x")}}),
      Message::MakeRequest(2, "M", {{"username", Value("z")}}),
      Message::MakeRequest(3, "M", {{"username", Value("y")}}),
      Message::MakeRequest(4, "M", {{"username", Value("y")}})};
  const TierOutcome oracle = ExpectTiersAgree(code, seed, stream);
  EXPECT_NE(oracle.table_dump.find("('x', 2, 1)"), std::string::npos)
      << oracle.table_dump;
  EXPECT_NE(oracle.table_dump.find("('y', 3, 4)"), std::string::npos)
      << "swapped twice: " << oracle.table_dump;
}

TEST(PointUpdate, KeyAssigningUpdateTakesTheUpsertPath) {
  // Renaming the key re-inserts the row under the new key (the upsert the
  // oracle performs), so this UPDATE must not write in place.
  auto code = LowerNamed(std::string(elements::QuotaTableSql()) + R"(
ELEMENT Rename ON REQUEST {
  INPUT (username TEXT);
  UPDATE quota SET username = 'renamed', remaining = remaining + 10
    WHERE username = input.username;
}
)",
                         "Rename");
  std::shared_ptr<const ir::ChainProgram> holder;
  const ir::ChainProgram::UpdateSpec& spec = OnlyUpdateSpec(code, holder);
  EXPECT_NE(spec.key_entry, ir::ChainProgram::kNoSub);
  EXPECT_FALSE(spec.in_place);
  const std::vector<std::pair<std::string, rpc::Row>> seed = {
      {"quota", {Value("alice"), Value(1)}},
      {"quota", {Value("bob"), Value(2)}}};
  const std::vector<Message> stream = {
      Message::MakeRequest(1, "M", {{"username", Value("alice")}}),
      Message::MakeRequest(2, "M", {{"username", Value("bob")}})};
  const TierOutcome oracle = ExpectTiersAgree(code, seed, stream);
  EXPECT_NE(oracle.table_dump.find("('renamed', 12)"), std::string::npos)
      << oracle.table_dump;
}

}  // namespace
}  // namespace adn
