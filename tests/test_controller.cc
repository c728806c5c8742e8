// Controller tests: cluster watch events, the placement solver across
// policies and environments, state migration (including under in-flight
// traffic on the simulated path), hot update, and the reconcile loop with
// endpoint synchronization.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "controller/migration.h"
#include "controller/placement.h"
#include "core/network.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/adn_path.h"

namespace adn::controller {
namespace {

using compiler::CompiledChain;
using compiler::Compiler;
using mrpc::Site;
using rpc::Value;

// --- ClusterState -------------------------------------------------------------

TEST(Cluster, EventsDeliveredToWatchers) {
  ClusterState cluster;
  std::vector<ClusterEvent::Kind> seen;
  cluster.Watch([&](const ClusterEvent& e) { seen.push_back(e.kind); });
  ASSERT_TRUE(cluster.AddMachine({"m1", 8, false, false}).ok());
  ASSERT_TRUE(cluster.AddService("svc").ok());
  auto endpoint = cluster.AddReplica("svc", "m1");
  ASSERT_TRUE(endpoint.ok());
  ASSERT_TRUE(cluster.RemoveReplica("svc", endpoint.value()).ok());
  ASSERT_TRUE(cluster.ApplyConfig("adn-program", "").ok());
  EXPECT_EQ(seen, (std::vector<ClusterEvent::Kind>{
                      ClusterEvent::Kind::kMachineAdded,
                      ClusterEvent::Kind::kServiceAdded,
                      ClusterEvent::Kind::kReplicaAdded,
                      ClusterEvent::Kind::kReplicaRemoved,
                      ClusterEvent::Kind::kConfigApplied}));
}

TEST(Cluster, DuplicatesAndMissingRejected) {
  ClusterState cluster;
  ASSERT_TRUE(cluster.AddMachine({"m1", 8, false, false}).ok());
  EXPECT_FALSE(cluster.AddMachine({"m1", 8, false, false}).ok());
  EXPECT_FALSE(cluster.AddReplica("ghost-svc", "m1").ok());
  ASSERT_TRUE(cluster.AddService("svc").ok());
  EXPECT_FALSE(cluster.AddReplica("svc", "ghost-machine").ok());
  EXPECT_FALSE(cluster.RemoveReplica("svc", 123).ok());
}

TEST(Cluster, ConfigGenerationBumps) {
  ClusterState cluster;
  ASSERT_TRUE(cluster.ApplyConfig("adn-program", "v1").ok());
  ASSERT_TRUE(cluster.ApplyConfig("adn-program", "v2").ok());
  const AdnConfigResource* config = cluster.FindConfig("adn-program");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->generation, 2);
  EXPECT_EQ(config->program_source, "v2");
}

// --- Placement -----------------------------------------------------------------

Result<compiler::CompiledProgram> CompileFig2() {
  Compiler compiler;
  return compiler.CompileSource(elements::Fig2ProgramSource(), {});
}

PathEnvironment RichEnvironment() {
  PathEnvironment env;
  env.sender_kernel_offload = true;
  env.receiver_kernel_offload = true;
  env.receiver_smartnic = true;
  env.p4_switch_on_path = true;
  env.allow_in_app = true;
  return env;
}

TEST(Placement, NativeOnlyUsesEngines) {
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok());
  auto placement = PlaceChain(program->chains[0], RichEnvironment(),
                              PlacementPolicy::kNativeOnly);
  ASSERT_TRUE(placement.ok()) << placement.status().ToString();
  for (Site site : placement->sites) {
    EXPECT_TRUE(site == Site::kClientEngine || site == Site::kServerEngine)
        << SiteName(site);
  }
}

TEST(Placement, SenderReceiverConstraintsHonored) {
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok());
  const CompiledChain& chain = program->chains[0];
  for (PlacementPolicy policy :
       {PlacementPolicy::kNativeOnly, PlacementPolicy::kMinHostCpu,
        PlacementPolicy::kMinLatency}) {
    auto placement = PlaceChain(chain, RichEnvironment(), policy);
    ASSERT_TRUE(placement.ok()) << PlacementPolicyName(policy);
    for (size_t i = 0; i < chain.elements.size(); ++i) {
      if (chain.constraints[i] == dsl::LocationConstraint::kSender) {
        EXPECT_TRUE(placement->sites[i] == Site::kClientApp ||
                    placement->sites[i] == Site::kClientEngine ||
                    placement->sites[i] == Site::kClientKernel)
            << chain.elements[i].ir->name;
      }
      if (chain.constraints[i] == dsl::LocationConstraint::kReceiver) {
        EXPECT_TRUE(placement->sites[i] == Site::kServerNic ||
                    placement->sites[i] == Site::kServerKernel ||
                    placement->sites[i] == Site::kServerEngine ||
                    placement->sites[i] == Site::kServerApp)
            << chain.elements[i].ir->name;
      }
    }
  }
}

TEST(Placement, TrustedNeverInApp) {
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok());
  const CompiledChain& chain = program->chains[0];
  auto placement =
      PlaceChain(chain, RichEnvironment(), PlacementPolicy::kInApp);
  ASSERT_TRUE(placement.ok()) << placement.status().ToString();
  for (size_t i = 0; i < chain.elements.size(); ++i) {
    if (chain.constraints[i] == dsl::LocationConstraint::kTrusted) {
      EXPECT_NE(placement->sites[i], Site::kClientApp);
      EXPECT_NE(placement->sites[i], Site::kServerApp);
    }
  }
}

TEST(Placement, MinHostCpuOffloadsFeasibleElements) {
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok());
  const CompiledChain& chain = program->chains[0];
  auto rich = PlaceChain(chain, RichEnvironment(),
                         PlacementPolicy::kMinHostCpu);
  ASSERT_TRUE(rich.ok());
  // With a switch + NIC available, some element leaves the host.
  bool any_offloaded = false;
  for (Site site : rich->sites) {
    if (site == Site::kSwitch || site == Site::kServerNic) {
      any_offloaded = true;
    }
  }
  EXPECT_TRUE(any_offloaded) << rich->DebugString(chain);

  PathEnvironment bare;  // engines only
  auto fallback =
      PlaceChain(chain, bare, PlacementPolicy::kMinHostCpu);
  ASSERT_TRUE(fallback.ok());
  EXPECT_GT(fallback->estimated_host_cpu_ns, rich->estimated_host_cpu_ns);
}

TEST(Placement, MonotonicityAlongPath) {
  auto program = CompileFig2();
  ASSERT_TRUE(program.ok());
  const CompiledChain& chain = program->chains[0];
  for (PlacementPolicy policy :
       {PlacementPolicy::kNativeOnly, PlacementPolicy::kMinHostCpu,
        PlacementPolicy::kMinLatency, PlacementPolicy::kInApp}) {
    auto placement = PlaceChain(chain, RichEnvironment(), policy);
    ASSERT_TRUE(placement.ok());
    for (size_t i = 1; i < placement->sites.size(); ++i) {
      EXPECT_LE(static_cast<int>(placement->sites[i - 1]),
                static_cast<int>(placement->sites[i]))
          << PlacementPolicyName(policy);
    }
  }
}

TEST(Placement, InfeasibleDiagnosed) {
  // A RECEIVER-constrained element followed by a SENDER-constrained one can
  // never satisfy path monotonicity: the request would have to flow
  // backwards. (Both elements write state so the optimizer cannot reorder
  // them either.)
  Compiler compiler;
  auto program = compiler.CompileSource(R"(
    STATE TABLE t1 (k INT PRIMARY KEY);
    STATE TABLE t2 (k INT PRIMARY KEY);
    ELEMENT A ON REQUEST { INPUT (x INT); INSERT INTO t1 VALUES (x); }
    ELEMENT B ON REQUEST { INPUT (x INT); INSERT INTO t2 VALUES (x); }
    CHAIN c FOR CALLS a -> b { A AT RECEIVER, B AT SENDER }
  )",
                                        {});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto placement = PlaceChain(program->chains[0], RichEnvironment(),
                              PlacementPolicy::kNativeOnly);
  ASSERT_FALSE(placement.ok());
  EXPECT_EQ(placement.error().code(), ErrorCode::kResourceExhausted);
}

TEST(Placement, ResponseElementsStayOnSymmetricSites) {
  Compiler compiler;
  auto program = compiler.CompileSource(
      std::string(elements::LogTableSql()) +
          std::string(elements::LoggingSql()) +
          "CHAIN c FOR CALLS a -> b { Logging }",
      {});
  ASSERT_TRUE(program.ok());
  auto placement = PlaceChain(program->chains[0], RichEnvironment(),
                              PlacementPolicy::kMinHostCpu);
  ASSERT_TRUE(placement.ok());
  // Logging is ON BOTH: only apps/engines see both directions.
  Site site = placement->sites[0];
  EXPECT_TRUE(site == Site::kClientApp || site == Site::kClientEngine ||
              site == Site::kServerEngine || site == Site::kServerApp)
      << SiteName(site);
}

// --- Migration ------------------------------------------------------------------

std::unique_ptr<mrpc::GeneratedStage> MakeAclStage(int rows, uint64_t seed) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::AclSql()));
  auto program = compiler::LowerProgram(*parsed);
  auto stage = std::make_unique<mrpc::GeneratedStage>(
      program->elements[0], seed);
  for (int i = 0; i < rows; ++i) {
    (void)stage->instance().FindTable("ac_tab")->Insert(
        {Value("user" + std::to_string(i)), Value(i % 2 == 0 ? "W" : "R")});
  }
  return stage;
}

TEST(Migration, ScaleOutIsLossless) {
  auto source = MakeAclStage(500, 1);
  auto result = ScaleOutStage(*source, 4, 100);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->instances.size(), 4u);
  EXPECT_TRUE(result->report.lossless());
  EXPECT_GT(result->report.state_bytes, 1000u);
  EXPECT_GT(result->report.pause_ns, 0);
  // Every shard serves its own keys correctly.
  size_t total_rows = 0;
  for (const auto& instance : result->instances) {
    total_rows += instance->instance().FindTable("ac_tab")->RowCount();
  }
  EXPECT_EQ(total_rows, 500u);
}

TEST(Migration, ScaleInMergesBack) {
  auto source = MakeAclStage(300, 1);
  uint64_t original_hash = source->instance().StateContentHash();
  auto out = ScaleOutStage(*source, 3, 10);
  ASSERT_TRUE(out.ok());
  std::vector<mrpc::GeneratedStage*> shards;
  for (const auto& instance : out->instances) shards.push_back(instance.get());
  auto merged = ScaleInStages(shards, 99);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->report.lossless());
  EXPECT_EQ(merged->instance->instance().StateContentHash(), original_hash);
}

TEST(Migration, ScaleInRejectsMixedElements) {
  // A move cannot be undone, so every source is checked before the first
  // one moves: the Acl source listed ahead of the mismatch keeps its rows.
  auto acl = MakeAclStage(20, 1);
  auto other_acl = MakeAclStage(30, 2);
  const uint64_t acl_hash = acl->instance().StateContentHash();
  const uint64_t other_hash = other_acl->instance().StateContentHash();
  auto parsed = dsl::ParseProgram(std::string(elements::FaultSql()));
  auto program = compiler::LowerProgram(*parsed);
  mrpc::GeneratedStage fault(program->elements[0], 2);
  auto merged = ScaleInStages({acl.get(), other_acl.get(), &fault}, 5);
  EXPECT_FALSE(merged.ok());
  EXPECT_EQ(acl->instance().FindTable("ac_tab")->RowCount(), 20u);
  EXPECT_EQ(acl->instance().StateContentHash(), acl_hash);
  EXPECT_EQ(other_acl->instance().FindTable("ac_tab")->RowCount(), 30u);
  EXPECT_EQ(other_acl->instance().StateContentHash(), other_hash);
}

TEST(Migration, HotUpdateKeepsState) {
  auto running = MakeAclStage(50, 1);
  // New code: same table, stricter rule (requires 'W' — same here, but the
  // point is the code object differs).
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) + R"(
    ELEMENT Acl ON REQUEST {
      INPUT (username TEXT, payload BYTES);
      ON DROP ABORT 'denied by v2';
      SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
        WHERE ac_tab.permission = 'W';
    }
  )");
  ASSERT_TRUE(parsed.ok());
  auto program = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  auto updated = HotUpdateStage(*running, program->elements[0], 7);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_TRUE(updated->report.lossless());
  // v2 behavior with v1 state.
  rpc::Message m = rpc::Message::MakeRequest(
      1, "M",
      {{"username", Value("user1")}, {"payload", Value(Bytes{})}});
  auto r = updated->instance->Process(m, 0);
  EXPECT_EQ(r.outcome, ir::ProcessOutcome::kDropAbort);
  EXPECT_EQ(r.abort_message, "denied by v2");
}

TEST(Migration, HotUpdateRejectsSchemaChange) {
  auto running = MakeAclStage(5, 1);
  auto parsed = dsl::ParseProgram(R"(
    STATE TABLE ac_tab (username TEXT PRIMARY KEY, permission TEXT,
                        added_column INT);
    ELEMENT Acl ON REQUEST {
      INPUT (username TEXT);
      SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username;
    }
  )");
  auto program = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(HotUpdateStage(*running, program->elements[0], 7).ok());
}

TEST(Migration, PauseScalesWithStateSize) {
  EXPECT_LT(EstimatePauseNs(100), EstimatePauseNs(1'000'000));
  EXPECT_GE(EstimatePauseNs(0), 50'000);  // handshake floor
}

// --- Width changes (docs/RECONFIG.md) -----------------------------------------

TEST(Migration, WidthChangeChargesTheHandshakeNotTheStateSize) {
  // A width change moves key slots without copying their rows, so its
  // charged blackout is the handshake floor, while a scale-out's report
  // still prices the state it moved per byte.
  auto source = MakeAclStage(5'000, 1);
  const uint64_t original_hash = source->instance().StateContentHash();

  auto migrated = MigrateStageWidth(*source, 4, 900);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_TRUE(migrated->report.lossless());
  EXPECT_EQ(migrated->instance->instance().StateContentHash(), original_hash);
  EXPECT_EQ(migrated->report.pause_ns, EstimatePauseNs(0));
  EXPECT_TRUE(source->instance().FindTable("ac_tab")->empty());

  auto scaled = ScaleOutStage(*migrated->instance, 4, 500);
  ASSERT_TRUE(scaled.ok()) << scaled.status().ToString();
  EXPECT_TRUE(scaled->report.lossless());
  EXPECT_GT(scaled->report.pause_ns, migrated->report.pause_ns);
}

std::unique_ptr<mrpc::GeneratedStage> MakeQuotaStage(int rows, uint64_t seed) {
  auto parsed = dsl::ParseProgram(std::string(elements::QuotaTableSql()) +
                                  std::string(elements::QuotaSql()));
  auto program = compiler::LowerProgram(*parsed);
  auto stage =
      std::make_unique<mrpc::GeneratedStage>(program->elements[0], seed);
  for (int i = 0; i < rows; ++i) {
    (void)stage->instance().FindTable("quota")->Insert(
        {Value("user" + std::to_string(i)), Value(static_cast<int64_t>(100))});
  }
  return stage;
}

TEST(Migration, TakeAndAdoptMoveExactlyOneSlot) {
  auto source = MakeQuotaStage(300, 1);
  const uint64_t original_hash = source->instance().StateContentHash();
  const size_t original_rows =
      source->instance().FindTable("quota")->RowCount();

  // Move key slot 5 into a fresh instance the way EnginePool does: the
  // source hands the slot's shards out, the destination takes them in.
  auto parsed = dsl::ParseProgram(std::string(elements::QuotaTableSql()) +
                                  std::string(elements::QuotaSql()));
  auto program = compiler::LowerProgram(*parsed);
  ir::ElementInstance dest(program->elements[0], 2);
  std::vector<rpc::TableShard> shards = source->instance().TakeKeySlot(5);
  size_t moved = 0;
  for (const rpc::TableShard& shard : shards) moved += shard.RowCount();
  dest.AdoptKeySlot(5, std::move(shards));
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(dest.FindTable("quota")->RowCount(), moved);
  EXPECT_EQ(source->instance().FindTable("quota")->RowCount(),
            original_rows - moved);
  // The XOR-decomposable hash proves the two sides partition the original.
  EXPECT_EQ(source->instance().StateContentHash() ^ dest.StateContentHash(),
            original_hash);
}

// --- Migration under in-flight traffic -----------------------------------------

// Records the order in which requests traverse its site. The vector is
// shared with the test body so the recorded order outlives the chain.
class OrderProbeStage : public mrpc::EngineStage {
 public:
  explicit OrderProbeStage(std::shared_ptr<std::vector<uint64_t>> order)
      : order_(std::move(order)) {}
  std::string_view name() const override { return "OrderProbe"; }
  bool AppliesTo(rpc::MessageKind kind) const override {
    return kind == rpc::MessageKind::kRequest;
  }
  ir::ProcessResult Process(rpc::Message& message, int64_t) override {
    order_->push_back(message.id());
    return ir::ProcessResult::Pass();
  }
  double CostNs(const sim::CostModel&, size_t) const override { return 50.0; }

 private:
  std::shared_ptr<std::vector<uint64_t>> order_;
};

TEST(Migration, PauseDrainResumeUnderInFlightTraffic) {
  auto parsed = dsl::ParseProgram(std::string(elements::LogTableSql()) +
                                  std::string(elements::LoggingSql()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto logging = program->FindElement("Logging");
  ASSERT_NE(logging, nullptr);

  auto order = std::make_shared<std::vector<uint64_t>>();

  mrpc::AdnPathConfig config;
  config.concurrency = 64;
  config.measured_requests = 3'000;
  config.warmup_requests = 200;
  // Fixed-size payloads mean equal per-message station costs, so arrival
  // order at the server engine equals issue order and any reordering the
  // probe sees is real.
  config.make_request = core::MakeDefaultRequestFactory();
  config.header.fields = {
      {"username", rpc::ValueType::kText, false},
      {"object_id", rpc::ValueType::kInt, false},
      {"payload", rpc::ValueType::kBytes, false},
  };
  config.stages.push_back(
      {Site::kServerEngine,
       [logging] { return std::make_unique<mrpc::GeneratedStage>(logging, 11); }});
  config.stages.push_back(
      {Site::kServerEngine,
       [order] { return std::make_unique<OrderProbeStage>(order); }});

  // Mid-run, widen the server engine through the real scale-out/scale-in
  // protocol while the path is saturated; the site pauses for the charged
  // migration window and traffic must queue behind it.
  bool hashes_round_tripped = false;
  int ticks = 0;
  config.report_interval_ns = 1'000'000;  // 1 ms
  config.on_report = [&](const mrpc::PathReport&) {
    std::vector<mrpc::ReconfigCommand> commands;
    if (++ticks != 2) return commands;
    mrpc::ReconfigCommand cmd;
    cmd.site = Site::kServerEngine;
    cmd.new_width = 2;
    cmd.migrate = [&](mrpc::EngineChain& chain) -> sim::SimTime {
      for (size_t i = 0; i < chain.size(); ++i) {
        auto* stage = dynamic_cast<mrpc::GeneratedStage*>(&chain.stage(i));
        if (stage == nullptr) continue;  // skip the probe
        const uint64_t before = stage->instance().StateContentHash();
        auto out = ScaleOutStage(*stage, 3, 900);
        EXPECT_TRUE(out.ok()) << out.status().ToString();
        if (!out.ok()) break;
        EXPECT_TRUE(out->report.lossless());
        std::vector<mrpc::GeneratedStage*> sources;
        for (const auto& instance : out->instances) {
          sources.push_back(instance.get());
        }
        auto merged = ScaleInStages(sources, 950);
        EXPECT_TRUE(merged.ok()) << merged.status().ToString();
        if (!merged.ok()) break;
        EXPECT_TRUE(merged->report.lossless());
        EXPECT_EQ(merged->instance->instance().StateContentHash(), before);
        hashes_round_tripped = true;
        chain.ReplaceStage(i, std::move(merged->instance));
      }
      // Charge a pause comfortably longer than the inter-arrival gap so the
      // queueing path is exercised deterministically.
      return 200'000;  // 200 us
    };
    commands.push_back(std::move(cmd));
    return commands;
  };

  auto result = mrpc::RunAdnPathExperiment(config);

  // No message was lost or reordered across the pause.
  EXPECT_EQ(result.stats.completed, 3'200u);
  EXPECT_EQ(result.stats.dropped, 0u);
  ASSERT_EQ(order->size(), 3'200u);
  for (size_t i = 1; i < order->size(); ++i) {
    ASSERT_LT((*order)[i - 1], (*order)[i]) << "reordered at index " << i;
  }

  // The reconfiguration actually happened mid-run, with traffic parked.
  EXPECT_TRUE(hashes_round_tripped);
  ASSERT_EQ(result.reconfigs.size(), 1u);
  EXPECT_EQ(result.reconfigs[0].site, Site::kServerEngine);
  EXPECT_EQ(result.reconfigs[0].old_width, 1);
  EXPECT_EQ(result.reconfigs[0].new_width, 2);
  EXPECT_EQ(result.reconfigs[0].pause_ns, 200'000);
  EXPECT_GT(result.reconfigs[0].queued_during_pause, 0u);
  EXPECT_EQ(result.queued_during_pause,
            result.reconfigs[0].queued_during_pause);
}

// --- Controller reconcile loop -----------------------------------------------------

class ControllerFixture : public ::testing::Test {
 protected:
  ControllerFixture() {
    (void)cluster_.AddMachine({"m1", 10, false, false});
    (void)cluster_.AddMachine({"m2", 10, true, true});
    (void)cluster_.AddService("client");
    (void)cluster_.AddService("server");
    (void)cluster_.AddReplica("client", "m1");
  }
  ClusterState cluster_;
};

TEST_F(ControllerFixture, ReconcilesOnConfigApply) {
  AdnController controller(&cluster_, {});
  EXPECT_EQ(controller.deployment(), nullptr);
  ASSERT_TRUE(
      cluster_.ApplyConfig("adn-program", elements::Fig5ProgramSource()).ok());
  ASSERT_TRUE(controller.last_status().ok())
      << controller.last_status().ToString();
  ASSERT_NE(controller.deployment(), nullptr);
  EXPECT_EQ(controller.deployment()->program.chains.size(), 1u);
  EXPECT_EQ(controller.reconcile_count(), 1);
}

TEST_F(ControllerFixture, BadProgramReportsError) {
  AdnController controller(&cluster_, {});
  ASSERT_TRUE(cluster_.ApplyConfig("adn-program", "ELEMENT broken {").ok());
  EXPECT_FALSE(controller.last_status().ok());
  EXPECT_EQ(controller.deployment(), nullptr);
}

TEST_F(ControllerFixture, ConfigUpdateRedeploys) {
  AdnController controller(&cluster_, {});
  ASSERT_TRUE(
      cluster_.ApplyConfig("adn-program", elements::Fig5ProgramSource()).ok());
  int64_t gen1 = controller.deployment()->generation;
  ASSERT_TRUE(
      cluster_.ApplyConfig("adn-program", elements::Fig2ProgramSource()).ok());
  ASSERT_TRUE(controller.last_status().ok());
  EXPECT_GT(controller.deployment()->generation, gen1);
  EXPECT_NE(controller.deployment()->program.FindChain("fig2"), nullptr);
}

TEST_F(ControllerFixture, EndpointRowsTrackReplicas) {
  AdnController controller(&cluster_, {});
  auto e1 = cluster_.AddReplica("server", "m2");
  ASSERT_TRUE(e1.ok());
  auto rows = controller.EndpointRows("server");
  ASSERT_EQ(rows.size(), static_cast<size_t>(elements::kLbShards));
  for (const auto& row : rows) {
    EXPECT_EQ(row[1].AsInt(), static_cast<int64_t>(e1.value()));
  }
  auto e2 = cluster_.AddReplica("server", "m2");
  ASSERT_TRUE(e2.ok());
  rows = controller.EndpointRows("server");
  int to_e1 = 0, to_e2 = 0;
  for (const auto& row : rows) {
    if (row[1].AsInt() == static_cast<int64_t>(e1.value())) ++to_e1;
    if (row[1].AsInt() == static_cast<int64_t>(e2.value())) ++to_e2;
  }
  EXPECT_EQ(to_e1, elements::kLbShards / 2);
  EXPECT_EQ(to_e2, elements::kLbShards / 2);
  EXPECT_EQ(controller.endpoint_updates(), 2);  // the two adds it observed
}

TEST_F(ControllerFixture, BuildStagesSeedsState) {
  ControllerOptions options;
  options.state_seeds = {
      {"ac_tab", {{Value("alice"), Value("W")}}},
  };
  AdnController controller(&cluster_, options);
  ASSERT_TRUE(
      cluster_.ApplyConfig("adn-program", elements::Fig5ProgramSource()).ok());
  ASSERT_TRUE(controller.last_status().ok());
  auto stages = controller.BuildStages("fig5", 1);
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  ASSERT_EQ(stages->size(), 3u);
  // Materialize the ACL stage and check the seeded rule.
  for (const auto& placed : *stages) {
    auto stage = placed.factory();
    ASSERT_NE(stage, nullptr);
    if (std::string(stage->name()) == "Acl") {
      auto* generated = dynamic_cast<mrpc::GeneratedStage*>(stage.get());
      ASSERT_NE(generated, nullptr);
      EXPECT_EQ(
          generated->instance().FindTable("ac_tab")->RowCount(), 1u);
    }
  }
}

TEST_F(ControllerFixture, BuildStagesUnknownChain) {
  AdnController controller(&cluster_, {});
  ASSERT_TRUE(
      cluster_.ApplyConfig("adn-program", elements::Fig5ProgramSource()).ok());
  EXPECT_FALSE(controller.BuildStages("ghost", 1).ok());
}

TEST(ControllerScaling, WidthRecommendations) {
  ClusterState cluster;
  ControllerOptions options;
  options.max_engine_width = 8;
  AdnController controller(&cluster, options);
  EXPECT_EQ(controller.RecommendEngineWidth(0.95, 1), 2);
  EXPECT_EQ(controller.RecommendEngineWidth(0.95, 4), 8);
  EXPECT_EQ(controller.RecommendEngineWidth(0.95, 8), 8);  // capped
  EXPECT_EQ(controller.RecommendEngineWidth(0.5, 2), 2);   // steady
  EXPECT_EQ(controller.RecommendEngineWidth(0.1, 4), 2);   // scale in
  EXPECT_EQ(controller.RecommendEngineWidth(0.1, 1), 1);   // floor
}

}  // namespace
}  // namespace adn::controller
