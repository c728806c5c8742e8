// Public-API tests: Network lifecycle, placement policies end to end,
// replica churn, and client-side retry/timeout policies.
#include <gtest/gtest.h>

#include "core/client_policy.h"
#include "core/network.h"
#include "elements/library.h"

namespace adn::core {
namespace {

std::vector<std::pair<std::string, std::vector<rpc::Row>>> OpenAclSeeds() {
  std::vector<rpc::Row> rows;
  for (const char* user : {"alice", "bob", "carol", "dave"}) {
    rows.push_back({rpc::Value(std::string(user)), rpc::Value("W")});
  }
  return {{"ac_tab", std::move(rows)}};
}

TEST(Network, CreateRejectsBadSource) {
  auto network = Network::Create("ELEMENT {", {});
  EXPECT_FALSE(network.ok());
}

TEST(Network, CreateRejectsInfeasibleDeployment) {
  // RECEIVER before SENDER cannot be placed monotonically along the path.
  const std::string source = R"(
    STATE TABLE t1 (k INT PRIMARY KEY);
    STATE TABLE t2 (k INT PRIMARY KEY);
    ELEMENT A ON REQUEST { INPUT (x INT); INSERT INTO t1 VALUES (x); }
    ELEMENT B ON REQUEST { INPUT (x INT); INSERT INTO t2 VALUES (x); }
    CHAIN c FOR CALLS a -> b { A AT RECEIVER, B AT SENDER }
  )";
  auto network = Network::Create(source, {});
  EXPECT_FALSE(network.ok());
}

TEST(Network, ClientLibraryFilterInAChainFailsToCompile) {
  // retry/timeout run in the client library, so a chain naming one must be
  // refused at deploy time rather than reach the simulator's data path.
  for (const char* op : {"retry(max_attempts => 3)", "timeout(timeout_ms => 5)"}) {
    const std::string source = std::string(elements::LogTableSql()) +
                               std::string(elements::LoggingSql()) +
                               "FILTER Retry ON REQUEST USING " + op +
                               ";\nCHAIN c FOR CALLS a -> b { Logging, Retry }\n";
    auto network = Network::Create(source, {});
    ASSERT_FALSE(network.ok()) << op;
    EXPECT_EQ(network.error().code(), ErrorCode::kUnsupported) << op;
    const std::string& message = network.error().message();
    EXPECT_NE(message.find("Retry"), std::string::npos) << message;
    EXPECT_NE(message.find("core/client_policy.h"), std::string::npos)
        << message;
  }
}

TEST(Network, ExposesCompiledArtifacts) {
  NetworkOptions options;
  auto network = Network::Create(elements::Fig5ProgramSource(), options);
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  const auto* chain = (*network)->Chain("fig5");
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->elements.size(), 3u);
  EXPECT_FALSE(chain->headers.link_specs.empty());
  const auto* placement = (*network)->PlacementFor("fig5");
  ASSERT_NE(placement, nullptr);
  EXPECT_EQ(placement->sites.size(), 3u);
  EXPECT_EQ((*network)->PlacementFor("nope"), nullptr);
}

TEST(Network, ReplicaChurnRefreshesEndpoints) {
  NetworkOptions options;
  options.callee_replicas = 1;
  auto network = Network::Create(elements::Fig2ProgramSource(), options);
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  auto& controller = (*network)->controller();
  size_t before = 0;
  {
    auto rows = controller.EndpointRows("service_b");
    std::set<int64_t> endpoints;
    for (const auto& row : rows) endpoints.insert(row[1].AsInt());
    before = endpoints.size();
  }
  EXPECT_EQ(before, 1u);
  auto added = (*network)->AddCalleeReplica("fig2");
  ASSERT_TRUE(added.ok());
  {
    auto rows = controller.EndpointRows("service_b");
    std::set<int64_t> endpoints;
    for (const auto& row : rows) endpoints.insert(row[1].AsInt());
    EXPECT_EQ(endpoints.size(), 2u);
  }
  ASSERT_TRUE((*network)->RemoveCalleeReplica("fig2", added.value()).ok());
  {
    auto rows = controller.EndpointRows("service_b");
    std::set<int64_t> endpoints;
    for (const auto& row : rows) endpoints.insert(row[1].AsInt());
    EXPECT_EQ(endpoints.size(), 1u);
  }
}

class PolicyMatrix
    : public ::testing::TestWithParam<controller::PlacementPolicy> {};

TEST_P(PolicyMatrix, Fig2RunsUnderEveryPolicy) {
  NetworkOptions options;
  options.policy = GetParam();
  options.environment.sender_kernel_offload = true;
  options.environment.receiver_kernel_offload = true;
  options.environment.receiver_smartnic = true;
  options.environment.p4_switch_on_path = true;
  options.state_seeds = OpenAclSeeds();
  auto network = Network::Create(elements::Fig2ProgramSource(), options);
  ASSERT_TRUE(network.ok()) << network.status().ToString();

  WorkloadOptions workload;
  workload.concurrency = 16;
  workload.measured_requests = 1'500;
  workload.warmup_requests = 100;
  workload.make_request = MakeDefaultRequestFactory(512);
  auto result = (*network)->RunWorkload("fig2", workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.completed, 1'400u);
  EXPECT_GT(result->stats.throughput_krps, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyMatrix,
    ::testing::Values(controller::PlacementPolicy::kNativeOnly,
                      controller::PlacementPolicy::kInApp,
                      controller::PlacementPolicy::kMinHostCpu,
                      controller::PlacementPolicy::kMinLatency),
    [](const auto& info) {
      std::string name(controller::PlacementPolicyName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Network, OffloadPolicyLowersHostCpu) {
  NetworkOptions native;
  native.policy = controller::PlacementPolicy::kNativeOnly;
  native.state_seeds = OpenAclSeeds();
  NetworkOptions offload = native;
  offload.policy = controller::PlacementPolicy::kMinHostCpu;
  offload.environment.sender_kernel_offload = true;
  offload.environment.receiver_kernel_offload = true;
  offload.environment.receiver_smartnic = true;
  offload.environment.p4_switch_on_path = true;

  WorkloadOptions workload;
  workload.concurrency = 16;
  workload.measured_requests = 1'500;
  workload.warmup_requests = 100;
  workload.make_request = MakeDefaultRequestFactory(512);

  auto native_network =
      Network::Create(elements::Fig2ProgramSource(), native);
  ASSERT_TRUE(native_network.ok());
  auto offload_network =
      Network::Create(elements::Fig2ProgramSource(), offload);
  ASSERT_TRUE(offload_network.ok());
  auto native_result = (*native_network)->RunWorkload("fig2", workload);
  auto offload_result = (*offload_network)->RunWorkload("fig2", workload);
  ASSERT_TRUE(native_result.ok());
  ASSERT_TRUE(offload_result.ok());
  EXPECT_LT(offload_result->host_cpu_per_rpc_ns,
            native_result->host_cpu_per_rpc_ns);
}

// --- Client policies -------------------------------------------------------------

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.base_backoff_ns = 1'000'000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ns = 6'000'000;
  EXPECT_EQ(BackoffForAttempt(policy, 1), 1'000'000);
  EXPECT_EQ(BackoffForAttempt(policy, 2), 2'000'000);
  EXPECT_EQ(BackoffForAttempt(policy, 3), 4'000'000);
  EXPECT_EQ(BackoffForAttempt(policy, 4), 6'000'000);  // capped
}

TEST(RetryPolicyTest, BackoffStaysCappedAtLargeAttemptCounts) {
  // Regression: the pre-clamp implementation multiplied the double out to
  // 2^99 * 1ms before casting to int64_t — UB whose practical result was a
  // negative backoff that std::min then selected. Every attempt up to a
  // max_attempts = 100 policy must return the cap, never a negative or
  // wrapped value.
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.base_backoff_ns = 1'000'000;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ns = 64'000'000;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    int64_t backoff = BackoffForAttempt(policy, attempt);
    EXPECT_GE(backoff, policy.base_backoff_ns) << "attempt " << attempt;
    EXPECT_LE(backoff, policy.max_backoff_ns) << "attempt " << attempt;
  }
  EXPECT_EQ(BackoffForAttempt(policy, 100), 64'000'000);
}

TEST(RetryPolicyTest, BudgetLimitsRetryFraction) {
  RetryPolicy policy;
  policy.budget_fraction = 0.2;
  RetryBudget budget(policy);
  for (int i = 0; i < 100; ++i) budget.OnRequest();
  int granted = 0;
  for (int i = 0; i < 100; ++i) {
    if (budget.TryConsume()) ++granted;
  }
  EXPECT_LE(granted, 20);
  EXPECT_GE(granted, 15);
  EXPECT_LE(budget.current_fraction(), 0.21);
}

TEST(RetryPolicyTest, NoBudgetWithoutTraffic) {
  RetryBudget budget(RetryPolicy{});
  EXPECT_FALSE(budget.TryConsume());
}

TEST(RetryPolicyTest, RetriabilityClassification) {
  EXPECT_TRUE(IsRetriableError("fault injected"));
  EXPECT_TRUE(IsRetriableError("rate limit exceeded"));
  EXPECT_TRUE(IsRetriableError("circuit open"));
  EXPECT_FALSE(IsRetriableError("permission denied"));
  EXPECT_FALSE(IsRetriableError("quota exceeded"));
}

}  // namespace
}  // namespace adn::core
