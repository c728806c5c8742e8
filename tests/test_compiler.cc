// Compiler tests: optimization passes (reordering, fusion, parallel
// grouping), header synthesis, backend feasibility + code emission, and the
// top-level Compile pipeline.
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/exec.h"

namespace adn::compiler {
namespace {

using rpc::Value;
using rpc::ValueType;

Result<CompiledProgram> CompileFig5() {
  Compiler compiler;
  return compiler.CompileSource(elements::Fig5ProgramSource(), {});
}

Result<CompiledProgram> CompileFig2() {
  Compiler compiler;
  return compiler.CompileSource(elements::Fig2ProgramSource(), {});
}

// --- Passes ------------------------------------------------------------------

TEST(Passes, Fig2ReordersAclBeforePayloadTransforms) {
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledChain* chain = program->FindChain("fig2");
  ASSERT_NE(chain, nullptr);
  // Original order: HashLb, Compress, Decompress, Acl. The ACL reads only
  // username and can drop; the payload transforms are expensive — the
  // optimizer hoists the ACL ahead of them (the paper's §3 reordering).
  std::vector<std::string> names;
  for (const auto& e : chain->elements) names.push_back(e.ir->name);
  auto pos = [&](const std::string& n) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i].find(n) != std::string::npos) return i;
    }
    return names.size();
  };
  EXPECT_LT(pos("Acl"), pos("Compress"));
  EXPECT_LT(pos("HashLb"), pos("Acl"));  // LB still first (it drops too)
  // A reorder report was emitted.
  bool reported = false;
  for (const auto& r : chain->pass_reports) {
    if (r.pass == "reorder-drop-early") reported = true;
  }
  EXPECT_TRUE(reported);
}

TEST(Passes, Fig5OrderPreserved) {
  // Logging writes state and Acl/Fault drop: no legal reorder exists, and
  // elements have distinct constraints so no fusion of Acl into others.
  auto program = CompileFig5();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledChain* chain = program->FindChain("fig5");
  ASSERT_NE(chain, nullptr);
  ASSERT_EQ(chain->elements.size(), 3u);
  EXPECT_EQ(chain->elements[0].ir->name, "Logging");
  EXPECT_EQ(chain->elements[1].ir->name, "Acl");
  EXPECT_EQ(chain->elements[2].ir->name, "Fault");
}

TEST(Passes, FusionMergesSameConstraintNeighbors) {
  const std::string source = R"(
    ELEMENT A ON REQUEST { INPUT (x INT); SELECT *, x + 1 AS a FROM input; }
    ELEMENT B ON REQUEST { INPUT (x INT); SELECT *, x + 2 AS b FROM input; }
    CHAIN c FOR CALLS s1 -> s2 { A, B }
  )";
  Compiler compiler;
  auto program = compiler.CompileSource(source, {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledChain* chain = program->FindChain("c");
  ASSERT_EQ(chain->elements.size(), 1u);
  EXPECT_EQ(chain->elements[0].ir->name, "A+B");
}

TEST(Passes, FusedElementBehavesLikeSequence) {
  auto parsed = dsl::ParseProgram(R"(
    ELEMENT A ON REQUEST { INPUT (x INT); SELECT *, x + 1 AS a FROM input; }
    ELEMENT B ON REQUEST { INPUT (x INT); SELECT *, x * 10 AS b FROM input; }
  )");
  ASSERT_TRUE(parsed.ok());
  auto lowered = LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  auto fused = FuseElements(*lowered->elements[0], *lowered->elements[1]);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();

  ir::ElementInstance seq_a(lowered->elements[0], 1);
  ir::ElementInstance seq_b(lowered->elements[1], 1);
  ir::ElementInstance one(
      std::make_shared<const ir::ElementIr>(std::move(fused).value()), 1);

  rpc::Message m1 = rpc::Message::MakeRequest(1, "M", {{"x", Value(5)}});
  rpc::Message m2 = m1;
  ASSERT_EQ(seq_a.Process(m1, 0).outcome, ir::ProcessOutcome::kPass);
  ASSERT_EQ(seq_b.Process(m1, 0).outcome, ir::ProcessOutcome::kPass);
  ASSERT_EQ(one.Process(m2, 0).outcome, ir::ProcessOutcome::kPass);
  EXPECT_EQ(m2.GetFieldOrNull("a").AsInt(), m1.GetFieldOrNull("a").AsInt());
  EXPECT_EQ(m2.GetFieldOrNull("b").AsInt(), m1.GetFieldOrNull("b").AsInt());
}

TEST(Passes, FusionRefusesFiltersAndMixedDirections) {
  auto parsed = dsl::ParseProgram(R"(
    ELEMENT A ON REQUEST { INPUT (x INT); SELECT * FROM input; }
    ELEMENT B ON RESPONSE { INPUT (x INT); SELECT * FROM input; }
  )");
  auto lowered = LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  EXPECT_FALSE(
      FuseElements(*lowered->elements[0], *lowered->elements[1]).ok());
}

TEST(Passes, DisabledPassesLeaveChainAlone) {
  Compiler compiler;
  CompileOptions options;
  options.passes.reorder_drop_early = false;
  options.passes.fuse_adjacent = false;
  options.passes.parallelize = false;
  auto program =
      compiler.CompileSource(elements::Fig2ProgramSource(), options);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledChain* chain = program->FindChain("fig2");
  ASSERT_EQ(chain->elements.size(), 4u);
  EXPECT_EQ(chain->elements[0].ir->name, "HashLb");
  EXPECT_EQ(chain->elements[1].ir->name, "Compress");
  EXPECT_TRUE(chain->pass_reports.empty());
}

// --- Header synthesis -----------------------------------------------------------

TEST(Headers, MinimalFieldsPerLink) {
  // Chain: A reads x (drops), B reads y. App emits x, y, z and consumes all.
  const std::string source = R"(
    ELEMENT A ON REQUEST { INPUT (x INT); SELECT * FROM input WHERE x > 0; }
    ELEMENT B ON REQUEST { INPUT (y INT); SELECT * FROM input WHERE y > 0; }
    CHAIN c FOR CALLS s1 -> s2 { A, B }
  )";
  Compiler compiler;
  CompileOptions options;
  options.passes.fuse_adjacent = false;
  options.passes.reorder_drop_early = false;
  (void)options.request_schema.AddColumn({"x", ValueType::kInt, false});
  (void)options.request_schema.AddColumn({"y", ValueType::kInt, false});
  (void)options.request_schema.AddColumn({"z", ValueType::kText, false});
  auto program = compiler.CompileSource(source, options);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledChain* chain = program->FindChain("c");
  ASSERT_EQ(chain->headers.link_specs.size(), 3u);
  // Link into A needs everything (A reads x; B reads y; app reads x,y,z).
  EXPECT_EQ(chain->headers.link_specs[0].fields.size(), 3u);
  // Link after B still carries x,y,z because the app consumes them all.
  EXPECT_EQ(chain->headers.link_specs[2].fields.size(), 3u);
}

TEST(Headers, AppReadsPruneDeadFields) {
  const std::string source = R"(
    ELEMENT A ON REQUEST { INPUT (x INT); SELECT * FROM input WHERE x > 0; }
    CHAIN c FOR CALLS s1 -> s2 { A }
  )";
  Compiler compiler;
  CompileOptions options;
  (void)options.request_schema.AddColumn({"x", ValueType::kInt, false});
  (void)options.request_schema.AddColumn({"debug", ValueType::kText, false});
  options.app_reads = {"x"};  // server never reads `debug`
  auto program = compiler.CompileSource(source, options);
  ASSERT_TRUE(program.ok());
  const CompiledChain* chain = program->FindChain("c");
  // After A, only x survives on the wire.
  ASSERT_EQ(chain->headers.link_specs[1].fields.size(), 1u);
  EXPECT_EQ(chain->headers.link_specs[1].fields[0].name, "x");
}

TEST(Headers, MissingFieldDiagnosed) {
  const std::string source = R"(
    ELEMENT A ON REQUEST { INPUT (x INT); SELECT * FROM input WHERE x > 0; }
    CHAIN c FOR CALLS s1 -> s2 { A }
  )";
  Compiler compiler;
  CompileOptions options;
  (void)options.request_schema.AddColumn({"y", ValueType::kInt, false});
  auto program = compiler.CompileSource(source, options);
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.error().message().find("'x'"), std::string::npos);
}

TEST(Headers, EvolveSchemaTracksRewrites) {
  auto parsed = dsl::ParseProgram(std::string(elements::CompressSql()));
  auto lowered = LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  rpc::Schema in;
  (void)in.AddColumn({"payload", ValueType::kBytes, false});
  auto out = EvolveSchema(in, *lowered->elements[0]);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
  EXPECT_EQ(out->columns()[0].type, ValueType::kBytes);
}

TEST(Headers, LayeredStackIsMuchBigger) {
  EXPECT_GT(LayeredStackHeaderBytes(3), 200u);
  EXPECT_LT(rpc::HeaderSpec::kBaseHeaderBytes, 32u);
}

// --- Backend feasibility -----------------------------------------------------------

struct FeasibilityCase {
  const char* element;
  bool ebpf;
  bool p4;
};

// Print the case by name: gtest's default byte dump of the struct would show
// the (ASLR-randomized) pointer value, which ends up in the ctest test name.
void PrintTo(const FeasibilityCase& c, std::ostream* os) { *os << c.element; }

class BackendMatrix : public ::testing::TestWithParam<FeasibilityCase> {};

TEST_P(BackendMatrix, MatchesExpectations) {
  auto parsed = dsl::ParseProgram(elements::FullLibrarySource());
  ASSERT_TRUE(parsed.ok());
  auto lowered = LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  auto element = lowered->FindElement(GetParam().element);
  ASSERT_NE(element, nullptr) << GetParam().element;
  EXPECT_EQ(CheckFeasible(*element, TargetPlatform::kEbpf).feasible,
            GetParam().ebpf)
      << CheckFeasible(*element, TargetPlatform::kEbpf).reason;
  EXPECT_EQ(CheckFeasible(*element, TargetPlatform::kP4Switch).feasible,
            GetParam().p4)
      << CheckFeasible(*element, TargetPlatform::kP4Switch).reason;
  // Native and SmartNIC always work.
  EXPECT_TRUE(CheckFeasible(*element, TargetPlatform::kNative).feasible);
  EXPECT_TRUE(CheckFeasible(*element, TargetPlatform::kSmartNic).feasible);
}

INSTANTIATE_TEST_SUITE_P(
    Library, BackendMatrix,
    ::testing::Values(
        // Acl: PK-join + where over text equality -> eBPF map lookup OK,
        // P4 exact-match table OK.
        FeasibilityCase{"Acl", true, true},
        // Fault: random() < literal float compiles to integer threshold.
        FeasibilityCase{"Fault", true, true},
        // Logging: INSERT (state write) -> fine in eBPF (ring buffer),
        // impossible on P4 (switch tables are control-plane written).
        FeasibilityCase{"Logging", true, false},
        // HashLb: hash + PK join + metadata write -> both.
        FeasibilityCase{"HashLb", true, true},
        // Compression: no helper, payload rewrite -> neither.
        FeasibilityCase{"Compress", false, false},
        // Encryption: bounded-loop block cipher OK in eBPF, not P4.
        FeasibilityCase{"Encrypt", true, false},
        // Quota: UPDATE scan -> not in eBPF (verifier), not P4 (state write).
        FeasibilityCase{"Quota", false, false}),
    [](const auto& info) { return info.param.element; });

TEST(Backends, P4ParseDepthRejectsFarFields) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()));
  auto lowered = LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  auto acl = lowered->elements[0];

  // Header layout 1: username first -> fits easily.
  rpc::HeaderSpec front;
  front.fields = {{"username", ValueType::kText, false},
                  {"payload", ValueType::kBytes, false}};
  // TEXT is variable length: switch parsers cannot use it, front or not.
  EXPECT_FALSE(
      CheckP4ParseDepth(*acl, front, 200).feasible);

  // An INT-keyed variant with the key up front fits; behind a payload, not.
  auto parsed2 = dsl::ParseProgram(R"(
    STATE TABLE keys (k INT PRIMARY KEY, v INT);
    ELEMENT E ON REQUEST {
      INPUT (k INT);
      SELECT * FROM input JOIN keys ON input.k = keys.k;
    }
  )");
  auto lowered2 = LowerProgram(*parsed2);
  ASSERT_TRUE(lowered2.ok());
  auto e = lowered2->elements[0];
  rpc::HeaderSpec ok_spec;
  ok_spec.fields = {{"k", ValueType::kInt, false},
                    {"payload", ValueType::kBytes, false}};
  EXPECT_TRUE(CheckP4ParseDepth(*e, ok_spec, 200).feasible);
  rpc::HeaderSpec bad_spec;
  bad_spec.fields = {{"payload", ValueType::kBytes, false},
                     {"k", ValueType::kInt, false}};
  EXPECT_FALSE(CheckP4ParseDepth(*e, bad_spec, 200).feasible);
}

TEST(Backends, HeaderSynthesisFrontLoadsSwitchFields) {
  // In fig2, HashLb is P4-feasible and reads object_id; the compiler must
  // put object_id ahead of the payload in the first link header.
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok());
  const CompiledChain* chain = program->FindChain("fig2");
  const auto& fields = chain->headers.link_specs[0].fields;
  ASSERT_FALSE(fields.empty());
  size_t object_pos = fields.size(), payload_pos = fields.size();
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == "object_id") object_pos = i;
    if (fields[i].name == "payload") payload_pos = i;
  }
  EXPECT_LT(object_pos, payload_pos);
}

TEST(Backends, CostEstimateOrdering) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()));
  auto lowered = LowerProgram(*parsed);
  auto acl = lowered->elements[0];
  const auto& model = sim::CostModel::Default();
  double native = EstimateCostNs(*acl, TargetPlatform::kNative, model, 64);
  double ebpf = EstimateCostNs(*acl, TargetPlatform::kEbpf, model, 64);
  double nic = EstimateCostNs(*acl, TargetPlatform::kSmartNic, model, 64);
  double p4 = EstimateCostNs(*acl, TargetPlatform::kP4Switch, model, 64);
  EXPECT_LT(ebpf, native);   // in-kernel avoids crossings
  EXPECT_GT(nic, native);    // slower cores
  EXPECT_LT(p4, native);     // fixed pipeline
}

TEST(Backends, PayloadSizeScalesUdfCost) {
  auto parsed = dsl::ParseProgram(std::string(elements::CompressSql()));
  auto lowered = LowerProgram(*parsed);
  auto compress = lowered->elements[0];
  const auto& model = sim::CostModel::Default();
  double small = EstimateCostNs(*compress, TargetPlatform::kNative, model, 64);
  double large =
      EstimateCostNs(*compress, TargetPlatform::kNative, model, 64 * 1024);
  EXPECT_GT(large, small + 50'000);
}

// --- Code emission --------------------------------------------------------------

TEST(Emission, EbpfCodeHasMapAndDropLogic) {
  auto program = CompileFig5();
  ASSERT_TRUE(program.ok());
  const CompiledChain* chain = program->FindChain("fig5");
  const CompiledElement* acl = nullptr;
  for (const auto& e : chain->elements) {
    if (e.ir->name == "Acl") acl = &e;
  }
  ASSERT_NE(acl, nullptr);
  ASSERT_TRUE(acl->ebpf.feasible) << acl->ebpf.reason;
  EXPECT_NE(acl->ebpf_code.find("BPF_HASH_MAP(ac_tab"), std::string::npos);
  EXPECT_NE(acl->ebpf_code.find("bpf_map_lookup_elem"), std::string::npos);
  EXPECT_NE(acl->ebpf_code.find("return ADN_DROP"), std::string::npos);
  EXPECT_NE(acl->ebpf_code.find("SEC(\"adn/Acl\")"), std::string::npos);
}

TEST(Emission, EbpfFloatLoweredToThreshold) {
  auto program = CompileFig5();
  ASSERT_TRUE(program.ok());
  const CompiledChain* chain = program->FindChain("fig5");
  const CompiledElement* fault = nullptr;
  for (const auto& e : chain->elements) {
    if (e.ir->name == "Fault") fault = &e;
  }
  ASSERT_NE(fault, nullptr);
  ASSERT_TRUE(fault->ebpf.feasible);
  EXPECT_NE(fault->ebpf_code.find("bpf_get_prandom_u32"), std::string::npos);
  EXPECT_NE(fault->ebpf_code.find("* 2^32"), std::string::npos);
}

TEST(Emission, P4CodeHasTableApply) {
  Compiler compiler;
  CompileOptions options;
  auto program = compiler.CompileSource(elements::Fig2ProgramSource(), options);
  ASSERT_TRUE(program.ok());
  const CompiledChain* chain = program->FindChain("fig2");
  const CompiledElement* lb = nullptr;
  for (const auto& e : chain->elements) {
    if (e.ir->name == "HashLb") lb = &e;
  }
  ASSERT_NE(lb, nullptr);
  ASSERT_TRUE(lb->p4.feasible) << lb->p4.reason;
  EXPECT_NE(lb->p4_code.find("table endpoints_t"), std::string::npos);
  EXPECT_NE(lb->p4_code.find("endpoints_t.apply()"), std::string::npos);
  EXPECT_NE(lb->p4_code.find("hdr.dst ="), std::string::npos);
}

TEST(Emission, Deterministic) {
  auto a = CompileFig5();
  auto b = CompileFig5();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->chains[0].elements.size(); ++i) {
    EXPECT_EQ(a->chains[0].elements[i].ebpf_code,
              b->chains[0].elements[i].ebpf_code);
  }
}

// --- Facade ------------------------------------------------------------------------

TEST(CompilerFacade, BadSourceReturnsError) {
  Compiler compiler;
  EXPECT_FALSE(compiler.CompileSource("ELEMENT {", {}).ok());
  EXPECT_FALSE(
      compiler.CompileSource("CHAIN c FOR CALLS a -> b { Nope }", {}).ok());
}

TEST(CompilerFacade, DerivedSchemaCoversAllInputs) {
  auto program = CompileFig5();
  ASSERT_TRUE(program.ok());
  const CompiledChain* chain = program->FindChain("fig5");
  EXPECT_NE(chain->request_schema.FindColumn("username"), nullptr);
  EXPECT_NE(chain->request_schema.FindColumn("payload"), nullptr);
}

TEST(CompilerFacade, FullLibraryCompiles) {
  Compiler compiler;
  auto program = compiler.CompileSource(elements::FullLibrarySource(), {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const CompiledChain* chain = program->FindChain("everything");
  ASSERT_NE(chain, nullptr);
  EXPECT_GE(chain->elements.size(), 8u);  // fusion may merge some
}

}  // namespace
}  // namespace adn::compiler
