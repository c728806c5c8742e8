// IR tests: lowering + type checking, effect summaries, element execution
// semantics, commutativity/parallelism analysis, state snapshots.
#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/analysis.h"
#include "ir/exec.h"

namespace adn::ir {
namespace {

using compiler::LowerProgram;
using rpc::Message;
using rpc::Value;
using rpc::ValueType;

// Lower a one-element program and return the element.
std::shared_ptr<const ElementIr> LowerOne(const std::string& source) {
  auto parsed = dsl::ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = LowerProgram(*parsed);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_FALSE(program->elements.empty());
  return program->elements[0];
}

Status LowerExpectError(const std::string& source) {
  auto parsed = dsl::ParseProgram(source);
  if (!parsed.ok()) return parsed.status();
  auto program = LowerProgram(*parsed);
  EXPECT_FALSE(program.ok()) << "lowering unexpectedly succeeded";
  return program.status();
}

// --- Type checking ---------------------------------------------------------------

TEST(Lowering, UnknownInputFieldRejected) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (x INT); SELECT * FROM input WHERE y > 0; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kNotFound);
  EXPECT_NE(s.error().message().find("'y'"), std::string::npos);
}

TEST(Lowering, UnknownTableRejected) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (x INT); SELECT * FROM input JOIN ghost ON x = "
      "ghost.a; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kNotFound);
}

TEST(Lowering, UnknownFunctionRejected) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (x INT); SELECT *, frobnicate(x) AS y FROM input; }");
  EXPECT_NE(s.error().message().find("frobnicate"), std::string::npos);
}

TEST(Lowering, ArityChecked) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (p BYTES); SELECT *, compress(p, p) AS p FROM "
      "input; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kTypeError);
}

TEST(Lowering, ArgTypeChecked) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (x INT); SELECT *, compress(x) AS y FROM input; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kTypeError);
}

TEST(Lowering, WhereMustBeBool) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (x INT); SELECT * FROM input WHERE x + 1; }");
  EXPECT_NE(s.error().message().find("WHERE"), std::string::npos);
}

TEST(Lowering, ComparingTextWithIntRejected) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (u TEXT); SELECT * FROM input WHERE u = 3; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kTypeError);
}

TEST(Lowering, ArithmeticOnTextRejected) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (u TEXT); SELECT *, u * 2 AS v FROM input; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kTypeError);
}

TEST(Lowering, ModWantsInts) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (f FLOAT); SELECT * FROM input WHERE f % 2 = 0; }");
  EXPECT_EQ(s.error().code(), ErrorCode::kTypeError);
}

TEST(Lowering, DestinationMustBeInt) {
  Status s = LowerExpectError(
      "ELEMENT E { INPUT (u TEXT); SELECT *, u AS __destination FROM "
      "input; }");
  EXPECT_NE(s.error().message().find("__destination"), std::string::npos);
}

TEST(Lowering, AmbiguousBareNameRejected) {
  Status s = LowerExpectError(R"(
    STATE TABLE t (x INT PRIMARY KEY, y INT);
    ELEMENT E {
      INPUT (x INT);
      SELECT * FROM input JOIN t ON input.x = t.x WHERE x > 0;
    }
  )");
  EXPECT_NE(s.error().message().find("ambiguous"), std::string::npos);
}

TEST(Lowering, JoinKeyTypeMismatchRejected) {
  Status s = LowerExpectError(R"(
    STATE TABLE t (k TEXT PRIMARY KEY, v INT);
    ELEMENT E {
      INPUT (x INT);
      SELECT * FROM input JOIN t ON x = t.k;
    }
  )");
  EXPECT_NE(s.error().message().find("join key type"), std::string::npos);
}

TEST(Lowering, JoinBothSidesInputRejected) {
  Status s = LowerExpectError(R"(
    STATE TABLE t (k INT PRIMARY KEY);
    ELEMENT E {
      INPUT (x INT, y INT);
      SELECT * FROM input JOIN t ON x = y;
    }
  )");
  EXPECT_NE(s.error().message().find("JOIN ON"), std::string::npos);
}

TEST(Lowering, InsertColumnCountChecked) {
  Status s = LowerExpectError(R"(
    STATE TABLE t (a INT, b INT);
    ELEMENT E { INPUT (x INT); INSERT INTO t VALUES (x); SELECT * FROM input; }
  )");
  EXPECT_NE(s.error().message().find("1 value(s) for 2"), std::string::npos);
}

TEST(Lowering, InsertColumnTypeChecked) {
  Status s = LowerExpectError(R"(
    STATE TABLE t (a INT);
    ELEMENT E { INPUT (u TEXT); INSERT INTO t VALUES (u); SELECT * FROM input; }
  )");
  EXPECT_EQ(s.error().code(), ErrorCode::kTypeError);
}

TEST(Lowering, SelectFromMustBeInput) {
  Status s = LowerExpectError(
      "STATE TABLE t (a INT); ELEMENT E { INPUT (x INT); SELECT * FROM t; }");
  EXPECT_NE(s.error().message().find("FROM input"), std::string::npos);
}

TEST(Lowering, SchemaEvolutionAcrossStatements) {
  // The second statement reads the field the first one created.
  auto element = LowerOne(R"(
    ELEMENT E {
      INPUT (x INT);
      SELECT *, x * 2 AS doubled FROM input;
      SELECT * FROM input WHERE doubled > 10;
    }
  )");
  ASSERT_NE(element, nullptr);
  EXPECT_TRUE(element->effects.WritesField("doubled"));
}

TEST(Lowering, UnknownFilterOpRejected) {
  Status s = LowerExpectError("FILTER F USING teleport(x => 1);");
  EXPECT_NE(s.error().message().find("teleport"), std::string::npos);
}

TEST(Lowering, FilterMissingRequiredArg) {
  Status s = LowerExpectError("FILTER F USING rate_limit(burst => 5);");
  EXPECT_NE(s.error().message().find("rps"), std::string::npos);
}

TEST(Lowering, FilterUnknownArgRejected) {
  Status s =
      LowerExpectError("FILTER F USING rate_limit(rps => 5, speed => 9);");
  EXPECT_NE(s.error().message().find("speed"), std::string::npos);
}

TEST(Lowering, ChainUnknownElementRejected) {
  Status s = LowerExpectError("CHAIN c FOR CALLS a -> b { Ghost }");
  EXPECT_NE(s.error().message().find("Ghost"), std::string::npos);
}

// --- Effects ----------------------------------------------------------------------

TEST(Effects, AclSummary) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()));
  ASSERT_TRUE(parsed.ok());
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& eff = program->elements[0]->effects;
  EXPECT_TRUE(eff.ReadsField("username"));
  EXPECT_TRUE(eff.fields_written.empty());
  EXPECT_EQ(eff.tables_read, std::vector<std::string>{"ac_tab"});
  EXPECT_TRUE(eff.tables_written.empty());
  EXPECT_TRUE(eff.may_drop);
  EXPECT_FALSE(eff.nondeterministic);
}

TEST(Effects, LoggingSummary) {
  auto parsed = dsl::ParseProgram(std::string(elements::LogTableSql()) +
                                  std::string(elements::LoggingSql()));
  ASSERT_TRUE(parsed.ok());
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  const auto& eff = program->elements[0]->effects;
  EXPECT_FALSE(eff.may_drop);
  EXPECT_EQ(eff.tables_written, std::vector<std::string>{"log_tab"});
  EXPECT_TRUE(eff.reads_metadata);  // rpc_id()
}

TEST(Effects, FaultSummary) {
  auto parsed = dsl::ParseProgram(std::string(elements::FaultSql()));
  ASSERT_TRUE(parsed.ok());
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  const auto& eff = program->elements[0]->effects;
  EXPECT_TRUE(eff.may_drop);
  EXPECT_TRUE(eff.nondeterministic);
  EXPECT_TRUE(eff.fields_read.empty());  // random() reads nothing
}

TEST(Effects, LbSetsDestination) {
  auto parsed = dsl::ParseProgram(std::string(elements::EndpointsTableSql()) +
                                  std::string(elements::HashLbSql()));
  ASSERT_TRUE(parsed.ok());
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& eff = program->elements[0]->effects;
  EXPECT_TRUE(eff.sets_destination);
  EXPECT_TRUE(eff.ReadsField("object_id"));
}

TEST(Effects, IdentityProjectionIsNotAWrite) {
  auto element = LowerOne(
      "ELEMENT E { INPUT (x INT, y INT); SELECT x, y FROM input; }");
  EXPECT_TRUE(element->effects.fields_written.empty());
}

TEST(Effects, ComputedOverwriteIsAWrite) {
  auto element = LowerOne(
      "ELEMENT E { INPUT (p BYTES); SELECT *, compress(p) AS p FROM input; }");
  EXPECT_TRUE(element->effects.WritesField("p"));
  EXPECT_TRUE(element->effects.ReadsField("p"));
}

// --- Execution --------------------------------------------------------------------

class AclExecution : public ::testing::Test {
 protected:
  AclExecution() {
    auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                    std::string(elements::AclSql()));
    auto program = LowerProgram(*parsed);
    instance_ = std::make_unique<ElementInstance>(program->elements[0], 1);
    rpc::Table* table = instance_->FindTable("ac_tab");
    (void)table->Insert({Value("alice"), Value("W")});
    (void)table->Insert({Value("bob"), Value("R")});
  }
  std::unique_ptr<ElementInstance> instance_;
};

TEST_F(AclExecution, AllowsWriters) {
  Message m = Message::MakeRequest(1, "M", {{"username", Value("alice")},
                                            {"payload", Value(Bytes{1})}});
  EXPECT_EQ(instance_->Process(m, 0).outcome, ProcessOutcome::kPass);
}

TEST_F(AclExecution, DeniesReaders) {
  Message m = Message::MakeRequest(1, "M", {{"username", Value("bob")},
                                            {"payload", Value(Bytes{1})}});
  ProcessResult r = instance_->Process(m, 0);
  EXPECT_EQ(r.outcome, ProcessOutcome::kDropAbort);
  EXPECT_EQ(r.abort_message, "permission denied");
}

TEST_F(AclExecution, DeniesUnknownUsers) {
  Message m = Message::MakeRequest(1, "M", {{"username", Value("mallory")},
                                            {"payload", Value(Bytes{1})}});
  EXPECT_EQ(instance_->Process(m, 0).outcome, ProcessOutcome::kDropAbort);
}

TEST_F(AclExecution, StatsCount) {
  Message ok = Message::MakeRequest(1, "M", {{"username", Value("alice")},
                                             {"payload", Value(Bytes{})}});
  Message bad = Message::MakeRequest(2, "M", {{"username", Value("bob")},
                                              {"payload", Value(Bytes{})}});
  (void)instance_->Process(ok, 0);
  (void)instance_->Process(bad, 0);
  EXPECT_EQ(instance_->processed(), 2u);
  EXPECT_EQ(instance_->dropped(), 1u);
}

TEST(Execution, LoggingInsertsRows) {
  auto parsed = dsl::ParseProgram(std::string(elements::LogTableSql()) +
                                  std::string(elements::LoggingSql()));
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  ElementInstance instance(program->elements[0], 1);
  Message m = Message::MakeRequest(42, "M",
                                   {{"username", Value("alice")},
                                    {"payload", Value(Bytes(10))}});
  ASSERT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kPass);
  const rpc::Table* log = instance.FindTable("log_tab");
  ASSERT_EQ(log->RowCount(), 1u);
  const rpc::Row& row = log->rows()[0];
  EXPECT_EQ(row[0].AsInt(), 42);
  EXPECT_EQ(row[1].AsText(), "alice");
  EXPECT_EQ(row[2].AsInt(), 10);
}

TEST(Execution, FaultDropsApproximatelyFivePercent) {
  auto parsed = dsl::ParseProgram(std::string(elements::FaultSql()));
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  ElementInstance instance(program->elements[0], 7);
  int dropped = 0;
  constexpr int kTotal = 20000;
  for (int i = 0; i < kTotal; ++i) {
    Message m = Message::MakeRequest(static_cast<uint64_t>(i), "M",
                                     {{"payload", Value(Bytes{1})}});
    if (instance.Process(m, 0).outcome != ProcessOutcome::kPass) ++dropped;
  }
  EXPECT_NEAR(dropped / static_cast<double>(kTotal), 0.05, 0.01);
}

TEST(Execution, FaultIsDeterministicPerSeed) {
  auto parsed = dsl::ParseProgram(std::string(elements::FaultSql()));
  auto program = LowerProgram(*parsed);
  ElementInstance a(program->elements[0], 99);
  ElementInstance b(program->elements[0], 99);
  for (int i = 0; i < 1000; ++i) {
    Message ma = Message::MakeRequest(static_cast<uint64_t>(i), "M",
                                      {{"payload", Value(Bytes{1})}});
    Message mb = ma;
    EXPECT_EQ(a.Process(ma, 0).outcome, b.Process(mb, 0).outcome);
  }
}

TEST(Execution, HashLbRoutesToOwnedShard) {
  auto parsed = dsl::ParseProgram(std::string(elements::EndpointsTableSql()) +
                                  std::string(elements::HashLbSql()));
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ElementInstance instance(program->elements[0], 1);
  rpc::Table* endpoints = instance.FindTable("endpoints");
  for (int shard = 0; shard < elements::kLbShards; ++shard) {
    (void)endpoints->Insert(
        {Value(shard), Value(100 + shard % 2)});  // two backends
  }
  int to_100 = 0, to_101 = 0;
  for (int i = 0; i < 1000; ++i) {
    Message m = Message::MakeRequest(
        static_cast<uint64_t>(i), "M",
        {{"object_id", Value(i)}, {"payload", Value(Bytes{1})}});
    ASSERT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kPass);
    if (m.destination() == 100) {
      ++to_100;
    } else if (m.destination() == 101) {
      ++to_101;
    }
  }
  EXPECT_EQ(to_100 + to_101, 1000);
  EXPECT_GT(to_100, 300);  // roughly balanced
  EXPECT_GT(to_101, 300);
  // Same object id always routes the same way (consistent).
  Message m1 = Message::MakeRequest(
      1, "M", {{"object_id", Value(777)}, {"payload", Value(Bytes{1})}});
  Message m2 = m1;
  (void)instance.Process(m1, 0);
  (void)instance.Process(m2, 0);
  EXPECT_EQ(m1.destination(), m2.destination());
}

TEST(Execution, LbAbortsWhenNoBackends) {
  auto parsed = dsl::ParseProgram(std::string(elements::EndpointsTableSql()) +
                                  std::string(elements::HashLbSql()));
  auto program = LowerProgram(*parsed);
  ElementInstance instance(program->elements[0], 1);
  Message m = Message::MakeRequest(
      1, "M", {{"object_id", Value(1)}, {"payload", Value(Bytes{1})}});
  ProcessResult r = instance.Process(m, 0);
  EXPECT_EQ(r.outcome, ProcessOutcome::kDropAbort);
  EXPECT_EQ(r.abort_message, "no backend for shard");
}

TEST(Execution, CompressDecompressChainRestoresPayload) {
  auto parsed = dsl::ParseProgram(std::string(elements::CompressSql()) +
                                  std::string(elements::DecompressSql()));
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  ElementInstance compress(program->FindElement("Compress"), 1);
  ElementInstance decompress(program->FindElement("Decompress"), 2);
  Bytes payload(3000, 'z');
  Message m = Message::MakeRequest(1, "M", {{"payload", Value(payload)}});
  ASSERT_EQ(compress.Process(m, 0).outcome, ProcessOutcome::kPass);
  EXPECT_LT(m.GetFieldOrNull("payload").AsBytes().size(), payload.size());
  ASSERT_EQ(decompress.Process(m, 0).outcome, ProcessOutcome::kPass);
  EXPECT_EQ(m.GetFieldOrNull("payload").AsBytes(), payload);
}

TEST(Execution, QuotaDecrementsAndDenies) {
  auto parsed = dsl::ParseProgram(std::string(elements::QuotaTableSql()) +
                                  std::string(elements::QuotaSql()));
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ElementInstance instance(program->elements[0], 1);
  (void)instance.FindTable("quota")->Insert({Value("alice"), Value(2)});
  auto send = [&] {
    Message m =
        Message::MakeRequest(1, "M", {{"username", Value("alice")}});
    return instance.Process(m, 0).outcome;
  };
  EXPECT_EQ(send(), ProcessOutcome::kPass);
  EXPECT_EQ(send(), ProcessOutcome::kPass);
  EXPECT_EQ(send(), ProcessOutcome::kDropAbort);  // quota exhausted
}

TEST(Execution, TelemetryCountsPerMethod) {
  auto parsed = dsl::ParseProgram(std::string(elements::TelemetryTableSql()) +
                                  std::string(elements::TelemetrySql()));
  auto program = LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ElementInstance instance(program->elements[0], 1);
  rpc::Table* counters = instance.FindTable("telemetry");
  (void)counters->Insert({Value("Store.Get"), Value(0)});
  (void)counters->Insert({Value("Store.Put"), Value(0)});
  for (int i = 0; i < 5; ++i) {
    Message m = Message::MakeRequest(static_cast<uint64_t>(i), "Store.Get",
                                     {{"payload", Value(Bytes{})}});
    ASSERT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kPass);
  }
  const Value* get = counters->LookupByKey(rpc::Row{Value("Store.Get")});
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get[1].AsInt(), 5);
  EXPECT_EQ(counters->LookupByKey(rpc::Row{Value("Store.Put")})[1].AsInt(), 0);
}

TEST(Execution, StrictProjectionDropsOtherFields) {
  auto element = LowerOne(
      "ELEMENT E { INPUT (x INT, y INT); SELECT x FROM input; }");
  ElementInstance instance(element, 1);
  Message m =
      Message::MakeRequest(1, "M", {{"x", Value(1)}, {"y", Value(2)}});
  ASSERT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kPass);
  EXPECT_TRUE(m.HasField("x"));
  EXPECT_FALSE(m.HasField("y"));
}

TEST(Execution, SilentDropBehavior) {
  auto element = LowerOne(R"(
    ELEMENT E { INPUT (x INT); ON DROP SILENT; SELECT * FROM input WHERE x > 0; }
  )");
  ElementInstance instance(element, 1);
  Message m = Message::MakeRequest(1, "M", {{"x", Value(-1)}});
  EXPECT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kDropSilent);
}

TEST(Execution, DivisionByZeroYieldsNullNotCrash) {
  auto element = LowerOne(
      "ELEMENT E { INPUT (x INT); SELECT * FROM input WHERE 10 / x > 1; }");
  ElementInstance instance(element, 1);
  Message m = Message::MakeRequest(1, "M", {{"x", Value(0)}});
  // NULL predicate => drop, not crash.
  EXPECT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kDropAbort);
}

TEST(Execution, MissingFieldIsNullAndDrops) {
  auto element = LowerOne(
      "ELEMENT E { INPUT (x INT); SELECT * FROM input WHERE x > 0; }");
  ElementInstance instance(element, 1);
  Message m = Message::MakeRequest(1, "M", {});  // no x field
  EXPECT_EQ(instance.Process(m, 0).outcome, ProcessOutcome::kDropAbort);
}

// --- State snapshot/migration at the instance level ---------------------------------

TEST(InstanceState, SnapshotRestoreRoundTrip) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()));
  auto program = LowerProgram(*parsed);
  ElementInstance a(program->elements[0], 1);
  (void)a.FindTable("ac_tab")->Insert({Value("alice"), Value("W")});
  Bytes snapshot = a.SnapshotState();

  ElementInstance b(program->elements[0], 2);
  ASSERT_TRUE(b.RestoreState(snapshot).ok());
  EXPECT_EQ(b.StateContentHash(), a.StateContentHash());
  Message m = Message::MakeRequest(1, "M", {{"username", Value("alice")},
                                            {"payload", Value(Bytes{})}});
  EXPECT_EQ(b.Process(m, 0).outcome, ProcessOutcome::kPass);
}

TEST(InstanceState, SplitMergePreservesHash) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()));
  auto program = LowerProgram(*parsed);
  ElementInstance source(program->elements[0], 1);
  for (int i = 0; i < 64; ++i) {
    (void)source.FindTable("ac_tab")->Insert(
        {Value("u" + std::to_string(i)), Value("W")});
  }
  const uint64_t hash = source.StateContentHash();
  ElementInstance a(program->elements[0], 3);
  ElementInstance b(program->elements[0], 4);
  ElementInstance c(program->elements[0], 5);
  ElementInstance* const shards[] = {&a, &b, &c};
  ASSERT_TRUE(source.MoveStateTo(shards).ok());
  EXPECT_EQ(source.StateContentHash(), 0u);
  EXPECT_EQ(a.StateContentHash() ^ b.StateContentHash() ^ c.StateContentHash(),
            hash);
  ElementInstance merged(program->elements[0], 2);
  ElementInstance* const into[] = {&merged};
  for (ElementInstance* shard : shards) {
    ASSERT_TRUE(shard->MoveStateTo(into).ok());
  }
  EXPECT_EQ(merged.StateContentHash(), hash);
}

TEST(InstanceState, RestoreRejectsWrongTableCount) {
  auto acl_parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                      std::string(elements::AclSql()));
  auto acl_program = LowerProgram(*acl_parsed);
  auto fault_parsed = dsl::ParseProgram(std::string(elements::FaultSql()));
  auto fault_program = LowerProgram(*fault_parsed);
  ElementInstance acl(acl_program->elements[0], 1);
  ElementInstance fault(fault_program->elements[0], 1);
  EXPECT_FALSE(fault.RestoreState(acl.SnapshotState()).ok());
}

// --- Commutativity / parallelism ------------------------------------------------------

compiler::ProgramIr LowerLibrary() {
  auto parsed = dsl::ParseProgram(elements::FullLibrarySource());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = LowerProgram(*parsed);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

TEST(Analysis, CompressCommutesWithAcl) {
  // Compress writes payload; ACL reads username and may drop but writes no
  // state — disjoint fields, so reordering is safe (Fig. 2 config 3 insight).
  auto program = LowerLibrary();
  auto compress = program.FindElement("Compress");
  auto acl = program.FindElement("Acl");
  EXPECT_TRUE(
      CheckCommutes(compress->effects, acl->effects).Commutes());
}

TEST(Analysis, LoggingDoesNotCommuteWithAcl) {
  // ACL drops; Logging writes the log table: moving the logger after the
  // ACL would hide denied requests from the log.
  auto program = LowerLibrary();
  auto logging = program.FindElement("Logging");
  auto acl = program.FindElement("Acl");
  ConflictReport r = CheckCommutes(logging->effects, acl->effects);
  EXPECT_FALSE(r.Commutes());
  EXPECT_EQ(r.kind, ConflictKind::kDropVsStateWrite);
}

TEST(Analysis, CompressDoesNotCommuteWithEncrypt) {
  // Both rewrite payload: write-write conflict (order matters: compressing
  // ciphertext is useless).
  auto program = LowerLibrary();
  auto compress = program.FindElement("Compress");
  auto encrypt = program.FindElement("Encrypt");
  ConflictReport r = CheckCommutes(compress->effects, encrypt->effects);
  EXPECT_FALSE(r.Commutes());  // read-write or write-write on payload
  EXPECT_NE(r.kind, ConflictKind::kNone);
}

TEST(Analysis, TwoDropOnlyFiltersCommute) {
  auto acl_like = LowerOne(
      "ELEMENT A { INPUT (x INT); SELECT * FROM input WHERE x > 0; }");
  auto other = LowerOne(
      "ELEMENT B { INPUT (y INT); SELECT * FROM input WHERE y > 0; }");
  EXPECT_TRUE(CheckCommutes(acl_like->effects, other->effects).Commutes());
  // But they may NOT run in parallel (both droppers).
  EXPECT_FALSE(
      CheckParallelizable(acl_like->effects, other->effects).Commutes());
}

TEST(Analysis, SharedStateTableConflicts) {
  auto a = LowerOne(R"(
    STATE TABLE shared (k INT PRIMARY KEY, v INT);
    ELEMENT A { INPUT (x INT); INSERT INTO shared VALUES (x, 1); SELECT * FROM input; }
  )");
  auto b = LowerOne(R"(
    STATE TABLE shared (k INT PRIMARY KEY, v INT);
    ELEMENT B { INPUT (x INT); UPDATE shared SET v = v + 1 WHERE k = x; SELECT * FROM input; }
  )");
  ConflictReport r = CheckCommutes(a->effects, b->effects);
  EXPECT_EQ(r.kind, ConflictKind::kStateConflict);
}

TEST(Analysis, ParallelGroupsForIndependentModifiers) {
  // Two elements writing disjoint fields, no drops: one parallel group.
  auto a = LowerOne(
      "ELEMENT A { INPUT (x INT); SELECT *, x + 1 AS x2 FROM input; }");
  auto b = LowerOne(
      "ELEMENT B { INPUT (y INT); SELECT *, y + 1 AS y2 FROM input; }");
  std::vector<const ElementIr*> chain = {a.get(), b.get()};
  auto groups = PartitionIntoParallelGroups(chain);
  EXPECT_EQ(groups, (std::vector<int>{0, 0}));
}

TEST(Analysis, DropEarlyMovesCheapFilterForward) {
  auto program = LowerLibrary();
  auto compress = program.FindElement("Compress");
  auto acl = program.FindElement("Acl");
  // Chain: Compress (expensive, payload), then Acl (cheap, droppy).
  std::vector<const ElementIr*> chain = {compress.get(), acl.get()};
  auto order = ComputeDropEarlyOrder(chain);
  EXPECT_EQ(order, (std::vector<size_t>{1, 0}));  // Acl hoisted first
}

TEST(Analysis, DropEarlyRespectsConflicts) {
  auto program = LowerLibrary();
  auto logging = program.FindElement("Logging");
  auto acl = program.FindElement("Acl");
  std::vector<const ElementIr*> chain = {logging.get(), acl.get()};
  auto order = ComputeDropEarlyOrder(chain);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1}));  // unchanged
}

TEST(OpCounts, MatchHandCodedTwinAssumptions) {
  // elements/handcoded.cc hard-codes the generated twins' op counts; keep
  // them honest.
  auto program = LowerLibrary();
  EXPECT_EQ(program.FindElement("Logging")->OpCount(), 7);
  EXPECT_EQ(program.FindElement("Acl")->OpCount(), 9);
  EXPECT_EQ(program.FindElement("Fault")->OpCount(), 6);
  EXPECT_EQ(program.FindElement("HashLb")->OpCount(), 10);
  EXPECT_EQ(program.FindElement("Compress")->OpCount(), 5);
}

}  // namespace
}  // namespace adn::ir
