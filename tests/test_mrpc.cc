// mRPC substrate tests: SPSC ring, engine chains, filter operators, and the
// ADN data path driver.
#include <gtest/gtest.h>

#include "compiler/chain_compile.h"
#include "compiler/lower.h"
#include "core/network.h"
#include "dsl/parser.h"
#include "elements/handcoded.h"
#include "elements/library.h"
#include "mrpc/adn_path.h"
#include "mrpc/ring.h"

namespace adn::mrpc {
namespace {

using rpc::Message;
using rpc::Value;

// --- SpscRing -----------------------------------------------------------------

TEST(SpscRing, PushPopFifo) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.TryPop().value(), 1);
  EXPECT_EQ(ring.TryPop().value(), 2);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.TryPush(3));
  (void)ring.TryPop();
  EXPECT_TRUE(ring.TryPush(3));
}

TEST(SpscRing, CapacityRoundsToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    ASSERT_EQ(ring.TryPop().value(), i);
  }
  EXPECT_EQ(ring.enqueued(), 1000u);
}

TEST(SpscRing, MoveOnlyPayloads) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.TryPush(std::make_unique<int>(7)));
  auto out = ring.TryPop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 7);
}

// --- EngineChain ----------------------------------------------------------------

std::shared_ptr<const ir::ElementIr> LowerElement(const std::string& source) {
  auto parsed = dsl::ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto program = compiler::LowerProgram(*parsed);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program->elements[0];
}

TEST(EngineChain, RunsStagesInOrderAndStopsAtDrop) {
  EngineChain chain;
  chain.AddStage(std::make_unique<GeneratedStage>(
      LowerElement(
          "ELEMENT Add { INPUT (x INT); SELECT *, x + 1 AS x FROM input; }"),
      1));
  chain.AddStage(std::make_unique<GeneratedStage>(
      LowerElement(
          "ELEMENT Gate { INPUT (x INT); SELECT * FROM input WHERE x < 10; }"),
      2));
  chain.AddStage(std::make_unique<GeneratedStage>(
      LowerElement(
          "ELEMENT Add2 { INPUT (x INT); SELECT *, x * 2 AS x FROM input; }"),
      3));

  Message pass = Message::MakeRequest(1, "M", {{"x", Value(3)}});
  EXPECT_EQ(chain.Process(pass, 0).outcome, ir::ProcessOutcome::kPass);
  EXPECT_EQ(pass.GetFieldOrNull("x").AsInt(), 8);  // (3+1)*2

  Message blocked = Message::MakeRequest(2, "M", {{"x", Value(50)}});
  EXPECT_EQ(chain.Process(blocked, 0).outcome,
            ir::ProcessOutcome::kDropAbort);
  EXPECT_EQ(blocked.GetFieldOrNull("x").AsInt(), 51);  // stage 3 never ran

  EXPECT_EQ(chain.processed(), 2u);
  EXPECT_EQ(chain.dropped(), 1u);
}

TEST(EngineChain, SkipsInapplicableDirections) {
  EngineChain chain;
  chain.AddStage(std::make_unique<GeneratedStage>(
      LowerElement("ELEMENT ReqOnly ON REQUEST { INPUT (x INT); "
                   "SELECT *, x + 1 AS x FROM input; }"),
      1));
  Message req = Message::MakeRequest(1, "M", {{"x", Value(0)}});
  Message resp = Message::MakeResponse(req, {{"x", Value(0)}});
  (void)chain.Process(req, 0);
  (void)chain.Process(resp, 0);
  EXPECT_EQ(req.GetFieldOrNull("x").AsInt(), 1);
  EXPECT_EQ(resp.GetFieldOrNull("x").AsInt(), 0);  // untouched
}

TEST(EngineChain, CostSumsApplicableStages) {
  const auto& model = sim::CostModel::Default();
  EngineChain chain;
  chain.AddStage(std::make_unique<GeneratedStage>(
      LowerElement("ELEMENT A ON REQUEST { INPUT (x INT); "
                   "SELECT * FROM input WHERE x > 0; }"),
      1));
  double req_cost = chain.CostNs(model, rpc::MessageKind::kRequest, 0);
  double resp_cost = chain.CostNs(model, rpc::MessageKind::kResponse, 0);
  EXPECT_GT(req_cost, resp_cost);  // response pays dispatch only
  EXPECT_DOUBLE_EQ(resp_cost,
                   static_cast<double>(model.mrpc_engine_dispatch_ns));
}

// --- Filter operators --------------------------------------------------------------
// Each FILTER lowers to one kBuiltin over its __filter_<Name> tables; these
// run the deployed form, a GeneratedStage (compiled executor).

GeneratedStage FilterStage(const std::string& decl) {
  return GeneratedStage(LowerElement(decl), 1);
}

TEST(RateLimit, EnforcesRate) {
  GeneratedStage limiter = FilterStage(
      "FILTER L ON REQUEST USING rate_limit(rps => 1000, burst => 10);");
  ASSERT_TRUE(limiter.compiled());
  Message m = Message::MakeRequest(1, "M", {});
  int passed = 0;
  // 10k requests in one simulated second => ~1000 pass + burst.
  for (int i = 0; i < 10'000; ++i) {
    int64_t now_ns = i * 100'000;  // 10 per ms
    if (limiter.Process(m, now_ns).outcome == ir::ProcessOutcome::kPass) {
      ++passed;
    }
  }
  EXPECT_NEAR(passed, 1010, 15);
}

TEST(RateLimit, BurstAllowsSpikes) {
  GeneratedStage limiter = FilterStage(
      "FILTER L ON REQUEST USING rate_limit(rps => 10, burst => 5);");
  Message m = Message::MakeRequest(1, "M", {});
  int passed = 0;
  for (int i = 0; i < 8; ++i) {
    if (limiter.Process(m, 0).outcome == ir::ProcessOutcome::kPass) ++passed;
  }
  EXPECT_EQ(passed, 5);  // bucket depth
}

TEST(Dedup, DropsDuplicateIdsSilently) {
  GeneratedStage dedup =
      FilterStage("FILTER D ON REQUEST USING dedup(window => 16);");
  Message a = Message::MakeRequest(7, "M", {});
  Message b = Message::MakeRequest(7, "M", {});
  Message c = Message::MakeRequest(8, "M", {});
  EXPECT_EQ(dedup.Process(a, 0).outcome, ir::ProcessOutcome::kPass);
  EXPECT_EQ(dedup.Process(b, 0).outcome, ir::ProcessOutcome::kDropSilent);
  EXPECT_EQ(dedup.Process(c, 0).outcome, ir::ProcessOutcome::kPass);
}

TEST(Dedup, WindowEvictsOldEntries) {
  GeneratedStage dedup =
      FilterStage("FILTER D ON REQUEST USING dedup(window => 2);");
  Message m1 = Message::MakeRequest(1, "M", {});
  Message m2 = Message::MakeRequest(2, "M", {});
  Message m3 = Message::MakeRequest(3, "M", {});
  Message m1_again = Message::MakeRequest(1, "M", {});
  (void)dedup.Process(m1, 0);
  (void)dedup.Process(m2, 0);
  (void)dedup.Process(m3, 0);  // evicts id 1
  EXPECT_EQ(dedup.Process(m1_again, 0).outcome, ir::ProcessOutcome::kPass);
  EXPECT_EQ(dedup.instance().tables()[0].RowCount(), 2u);  // the window
}

TEST(CircuitBreaker, OpensOnErrorsAndCoolsDown) {
  GeneratedStage breaker = FilterStage(
      "FILTER B ON BOTH USING circuit_breaker(error_threshold => 0.5, "
      "window => 4, cooldown_ms => 1);");
  // No chain feeds the breaker an error (docs/DSL.md "Filters"), so seed its
  // outcome log with three; one response then fills the window at 3 of 4.
  rpc::Table* outcomes = breaker.instance().FindTable("__filter_B_outcomes");
  ASSERT_NE(outcomes, nullptr);
  for (int64_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(outcomes->Insert({Value(seq), Value(true)}).ok());
  }
  Message req = Message::MakeRequest(1, "M", {});
  Message resp = Message::MakeResponse(req, {});
  EXPECT_EQ(breaker.Process(resp, 0).outcome, ir::ProcessOutcome::kPass);
  EXPECT_EQ(breaker.instance().FindTable("__filter_B")->RowCount(), 1u);
  const ir::ProcessResult open = breaker.Process(req, 100);
  EXPECT_EQ(open.outcome, ir::ProcessOutcome::kDropAbort);
  EXPECT_EQ(open.abort_message, "circuit open");
  // After the cooldown, half-open lets a probe through.
  EXPECT_EQ(breaker.Process(req, 2'000'000).outcome,
            ir::ProcessOutcome::kPass);
  EXPECT_EQ(breaker.instance().FindTable("__filter_B")->RowCount(), 0u);
}

TEST(FilterFactory, BindsKnownOps) {
  // Every engine-side operator lowers and compiles to one built-in call.
  for (const char* decl :
       {"FILTER F USING rate_limit(rps => 100);", "FILTER F USING dedup();"}) {
    auto code = LowerElement(decl);
    ASSERT_NE(code, nullptr) << decl;
    EXPECT_TRUE(compiler::CompileElementProgram(*code).ok()) << decl;
  }
  // retry runs in the client library: it lowers, but does not compile.
  auto retry = LowerElement("FILTER F USING retry(max_attempts => 3);");
  auto compiled = compiler::CompileElementProgram(*retry);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.error().code(), ErrorCode::kUnsupported);
  // An unknown operator does not lower.
  auto parsed = dsl::ParseProgram("FILTER F USING warp();");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(compiler::LowerProgram(*parsed).ok());
}

// --- AdnPath driver ------------------------------------------------------------------

AdnPathConfig BaseConfig() {
  AdnPathConfig config;
  config.concurrency = 16;
  config.measured_requests = 2'000;
  config.warmup_requests = 200;
  config.make_request = core::MakeDefaultRequestFactory();
  config.header.fields = {
      {"username", rpc::ValueType::kText, false},
      {"object_id", rpc::ValueType::kInt, false},
      {"payload", rpc::ValueType::kBytes, false},
  };
  return config;
}

TEST(AdnPath, CompletesAllRequests) {
  AdnPathConfig config = BaseConfig();
  config.stages.push_back(
      {Site::kClientEngine,
       [] { return std::make_unique<elements::HandLogging>(); }});
  auto result = RunAdnPathExperiment(config);
  EXPECT_EQ(result.stats.completed, 2'200u);
  EXPECT_EQ(result.stats.dropped, 0u);
  EXPECT_GT(result.stats.throughput_krps, 10.0);
  EXPECT_GT(result.wire_bytes_per_request, 20.0);
}

TEST(AdnPath, AbortsAccountedAsDrops) {
  AdnPathConfig config = BaseConfig();
  config.stages.push_back(
      {Site::kClientEngine,
       [] { return std::make_unique<elements::HandFault>(0.20, 9); }});
  auto result = RunAdnPathExperiment(config);
  double drop_rate =
      static_cast<double>(result.stats.dropped) /
      static_cast<double>(result.stats.completed + result.stats.dropped);
  EXPECT_NEAR(drop_rate, 0.20, 0.04);
}

TEST(AdnPath, OffloadedSitesReduceHostCpu) {
  // Same stage on the engine vs on the (receiver) SmartNIC: host CPU per
  // RPC must drop when the work leaves the host.
  AdnPathConfig host = BaseConfig();
  host.stages.push_back(
      {Site::kClientEngine,
       [] { return std::make_unique<elements::HandLogging>(); }});
  AdnPathConfig nic = BaseConfig();
  nic.stages.push_back(
      {Site::kServerNic,
       [] { return std::make_unique<elements::HandLogging>(); }});
  auto host_result = RunAdnPathExperiment(host);
  auto nic_result = RunAdnPathExperiment(nic);
  EXPECT_LT(nic_result.host_cpu_per_rpc_ns, host_result.host_cpu_per_rpc_ns);
}

TEST(AdnPath, InAppSkipsEngineHops) {
  AdnPathConfig with_engine = BaseConfig();
  with_engine.concurrency = 1;
  AdnPathConfig in_app = BaseConfig();
  in_app.concurrency = 1;
  in_app.client_engine_present = false;
  in_app.server_engine_present = false;
  auto engine_result = RunAdnPathExperiment(with_engine);
  auto app_result = RunAdnPathExperiment(in_app);
  EXPECT_LT(app_result.stats.mean_latency_us,
            engine_result.stats.mean_latency_us);
}

TEST(AdnPath, WiderEngineRaisesThroughput) {
  AdnPathConfig narrow = BaseConfig();
  narrow.concurrency = 64;
  narrow.make_request = core::MakeDefaultRequestFactory(16 * 1024);
  narrow.stages.push_back(
      {Site::kClientEngine,
       [] { return std::make_unique<elements::HandCompress>(true); }});
  AdnPathConfig wide = narrow;
  wide.stages.clear();
  wide.stages.push_back(
      {Site::kClientEngine,
       [] { return std::make_unique<elements::HandCompress>(true); }});
  wide.client_engine_width = 4;
  auto narrow_result = RunAdnPathExperiment(narrow);
  auto wide_result = RunAdnPathExperiment(wide);
  EXPECT_GT(wide_result.stats.throughput_krps,
            narrow_result.stats.throughput_krps * 1.5);
}

TEST(AdnPath, HeaderFieldsLimitWhatServerSees) {
  // Header carries only object_id; a server-side stage that reads username
  // must see NULL and drop.
  AdnPathConfig config = BaseConfig();
  config.header.fields = {{"object_id", rpc::ValueType::kInt, false}};
  config.stages.push_back(
      {Site::kServerEngine, [] {
         return std::make_unique<elements::HandAcl>(
             std::unordered_map<std::string, char>{{"alice", 'W'}});
       }});
  auto result = RunAdnPathExperiment(config);
  EXPECT_EQ(result.stats.completed, 0u);  // every request denied
  EXPECT_EQ(result.stats.dropped, 2'200u);
}

}  // namespace
}  // namespace adn::mrpc
