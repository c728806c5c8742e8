// E1/E2 — Figure 5: RPC rate (krps) and latency (us) for three element
// chains (Logging, ACL, Fault), comparing:
//   gRPC+Envoy        — the general-purpose service-mesh baseline,
//   ADN+mRPC          — compiler-generated elements on mRPC engines,
//   hand-coded mRPC   — expert-written modules (upper bound).
//
// Methodology mirrors the paper §6: a single-threaded client keeps 128
// concurrent RPCs outstanding; request and response carry a short byte
// string. Rate comes from the closed-loop run; the latency panel reports the
// unloaded round trip (concurrency 1), since at full saturation closed-loop
// latency is queue depth divided by throughput for every system alike.
#include <cstdio>
#include <memory>
#include <string>

#include "compiler/compiler.h"
#include "core/network.h"
#include "dsl/parser.h"
#include "elements/handcoded.h"
#include "elements/library.h"
#include "mrpc/adn_path.h"
#include "mrpc/engine_pool.h"
#include "stack/mesh_path.h"

namespace adn {
namespace {

constexpr uint64_t kMeasured = 30'000;
constexpr uint64_t kWarmup = 3'000;
constexpr int kRateConcurrency = 128;
constexpr int kLatencyConcurrency = 1;

rpc::Schema RequestSchema() {
  rpc::Schema s;
  (void)s.AddColumn({"username", rpc::ValueType::kText, false});
  (void)s.AddColumn({"object_id", rpc::ValueType::kInt, false});
  (void)s.AddColumn({"payload", rpc::ValueType::kBytes, false});
  return s;
}

// All users have W permission: Figure 5 measures element processing cost,
// not denial rates.
std::vector<std::pair<std::string, std::vector<rpc::Row>>> AclSeeds() {
  std::vector<rpc::Row> rows;
  for (const char* user : {"alice", "bob", "carol", "dave"}) {
    rows.push_back({rpc::Value(std::string(user)), rpc::Value("W")});
  }
  return {{"ac_tab", std::move(rows)}};
}

std::unordered_map<std::string, char> AclRules() {
  return {{"alice", 'W'}, {"bob", 'W'}, {"carol", 'W'}, {"dave", 'W'}};
}

struct Row {
  std::string chain;
  std::string system;
  double rate_krps;
  double latency_us;
  double p99_us;
};

// --- gRPC+Envoy ------------------------------------------------------------
stack::MeshResult RunEnvoy(const std::string& element, int concurrency) {
  stack::MeshConfig config;
  config.label = "gRPC+Envoy/" + element;
  config.concurrency = concurrency;
  config.measured_requests = kMeasured;
  config.warmup_requests = kWarmup;
  config.request_schema = RequestSchema();
  config.make_request = core::MakeDefaultRequestFactory();
  config.field_headers = {{"username", "x-user"},
                          {"object_id", "x-object-id"}};
  if (element == "Logging") {
    config.filters.push_back([] {
      return std::make_unique<stack::AccessLogFilter>(
          "[%DIRECTION%] user=%REQ(x-user)% path=%REQ(:path)% "
          "bytes=%BYTES%");
    });
  } else if (element == "ACL") {
    config.filters.push_back([] {
      std::vector<stack::RbacPolicy> allow;
      for (const char* user : {"alice", "bob", "carol", "dave"}) {
        stack::RbacPolicy policy;
        policy.name = std::string("allow-") + user;
        policy.principals.push_back(
            {"x-user", stack::HeaderMatcher::Kind::kExact, user});
        allow.push_back(std::move(policy));
      }
      return std::make_unique<stack::RbacFilter>(
          std::move(allow), stack::RbacFilter::DefaultAction::kDeny);
    });
  } else {  // Fault
    config.filters.push_back(
        [] { return std::make_unique<stack::FaultFilter>(0.05, 503); });
  }
  return RunMeshExperiment(config);
}

// --- ADN+mRPC (generated) ----------------------------------------------------
std::string ProgramFor(const std::string& element) {
  std::string out;
  out += elements::AclTableSql();
  out += elements::LogTableSql();
  out += elements::LoggingSql();
  out += elements::AclSql();
  out += elements::FaultSql();
  out += "CHAIN only FOR CALLS client -> server { " +
         (element == "ACL" ? std::string("Acl") : element) + " }\n";
  return out;
}

mrpc::AdnPathResult RunAdn(const std::string& element, int concurrency) {
  core::NetworkOptions options;
  options.policy = controller::PlacementPolicy::kNativeOnly;
  options.state_seeds = AclSeeds();
  auto network = core::Network::Create(ProgramFor(element), options);
  if (!network.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 network.status().ToString().c_str());
    std::abort();
  }
  core::WorkloadOptions workload;
  workload.label = "ADN+mRPC/" + element;
  workload.concurrency = concurrency;
  workload.measured_requests = kMeasured;
  workload.warmup_requests = kWarmup;
  workload.make_request = core::MakeDefaultRequestFactory();
  auto result = (*network)->RunWorkload("only", workload);
  if (!result.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

// --- Hand-coded mRPC -----------------------------------------------------------
mrpc::AdnPathResult RunHandCoded(const std::string& element,
                                 int concurrency) {
  mrpc::AdnPathConfig config;
  config.label = "hand-mRPC/" + element;
  config.concurrency = concurrency;
  config.measured_requests = kMeasured;
  config.warmup_requests = kWarmup;
  config.make_request = core::MakeDefaultRequestFactory();
  mrpc::PlacedStage stage;
  stage.site = mrpc::Site::kClientEngine;
  if (element == "Logging") {
    stage.factory = [] { return std::make_unique<elements::HandLogging>(); };
  } else if (element == "ACL") {
    stage.factory = [] {
      return std::make_unique<elements::HandAcl>(AclRules());
    };
  } else {
    stage.factory = [] {
      return std::make_unique<elements::HandFault>(0.05, 42);
    };
  }
  config.stages.push_back(std::move(stage));
  // Same minimal header the compiler would synthesize for this chain.
  config.header.fields = {
      {"username", rpc::ValueType::kText, false},
      {"object_id", rpc::ValueType::kInt, false},
      {"payload", rpc::ValueType::kBytes, false},
  };
  return RunAdnPathExperiment(config);
}

// --- Multi-worker EnginePool (real threads) ----------------------------------
// The single-chain cells above run the simulated single-threaded path; this
// row runs the full fig5 chain on the real-thread EnginePool and reports
// per-worker-CPU capacity (sum over workers of messages per CPU-nanosecond),
// the scaling basis that stays honest on single-core hosts.
double PoolCapacityMrps(int workers) {
  auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) return 0;
  std::vector<std::shared_ptr<const ir::ElementIr>> chain = {
      lowered->FindElement("Logging"), lowered->FindElement("Acl"),
      lowered->FindElement("Fault")};

  mrpc::EnginePool::Config config;
  config.workers = workers;
  config.shard_key_field = "username";
  config.processor = "fig5-pool";
  mrpc::EnginePool pool(chain, {}, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  constexpr int kUsers = 1024;  // spread the shard-key routing
  for (int i = 0; i < kUsers; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "u%04d", i);
    (void)acl->Insert({rpc::Value(std::string(name)), rpc::Value("W")});
  }
  if (!pool.Start().ok()) return 0;

  std::vector<rpc::Message> stream;
  for (uint64_t i = 0; i < 256; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "u%04llu",
                  static_cast<unsigned long long>(i * 2654435761ULL % kUsers));
    Bytes payload(64, static_cast<uint8_t>(i));
    stream.push_back(rpc::Message::MakeRequest(
        i + 1, "Obj.Put",
        {{"username", rpc::Value(std::string(name))},
         {"payload", rpc::Value(std::move(payload))}}));
  }
  for (uint64_t i = 0; i < 200'000; ++i) {
    pool.Submit(stream[i % stream.size()]);
  }
  pool.Drain();
  pool.Stop();
  double capacity = 0;
  for (int w = 0; w < workers; ++w) {
    const double cpu = static_cast<double>(pool.worker_cpu_ns(w));
    if (cpu > 0) {
      capacity += static_cast<double>(pool.processed_by(w)) / cpu * 1e3;
    }
  }
  return capacity;
}

}  // namespace
}  // namespace adn

int main() {
  using namespace adn;
  std::printf(
      "Figure 5 reproduction: RPC rate (closed loop, %d concurrent) and\n"
      "latency (unloaded, %d concurrent); %llu measured RPCs per cell.\n\n",
      kRateConcurrency, kLatencyConcurrency,
      static_cast<unsigned long long>(kMeasured));

  std::printf("%-10s %-16s %12s %14s %12s\n", "chain", "system",
              "rate (krps)", "latency (us)", "p99 (us)");
  std::printf("%.*s\n", 70,
              "----------------------------------------------------------------------");

  struct Cell {
    double rate, lat, p99;
  };
  for (const std::string element : {"Logging", "ACL", "Fault"}) {
    Cell envoy{}, adn_cell{}, hand{};
    {
      auto rate_run = RunEnvoy(element, kRateConcurrency);
      auto lat_run = RunEnvoy(element, kLatencyConcurrency);
      envoy = {rate_run.stats.throughput_krps, lat_run.stats.mean_latency_us,
               lat_run.stats.p99_latency_us};
    }
    {
      auto rate_run = RunAdn(element, kRateConcurrency);
      auto lat_run = RunAdn(element, kLatencyConcurrency);
      adn_cell = {rate_run.stats.throughput_krps,
                  lat_run.stats.mean_latency_us, lat_run.stats.p99_latency_us};
    }
    {
      auto rate_run = RunHandCoded(element, kRateConcurrency);
      auto lat_run = RunHandCoded(element, kLatencyConcurrency);
      hand = {rate_run.stats.throughput_krps, lat_run.stats.mean_latency_us,
              lat_run.stats.p99_latency_us};
    }
    std::printf("%-10s %-16s %12.1f %14.1f %12.1f\n", element.c_str(),
                "gRPC+Envoy", envoy.rate, envoy.lat, envoy.p99);
    std::printf("%-10s %-16s %12.1f %14.1f %12.1f\n", "",
                "ADN+mRPC", adn_cell.rate, adn_cell.lat, adn_cell.p99);
    std::printf("%-10s %-16s %12.1f %14.1f %12.1f\n", "",
                "hand-coded mRPC", hand.rate, hand.lat, hand.p99);
    // Each ratio under its own column, oriented so >1x means ADN is better:
    // rate ADN/Envoy, latency and p99 Envoy/ADN.
    std::printf("%-10s %-16s %11.1fx %13.1fx %11.1fx   (ADN vs Envoy)\n\n",
                "", "", adn_cell.rate / envoy.rate, envoy.lat / adn_cell.lat,
                envoy.p99 / adn_cell.p99);
  }
  std::printf(
      "Paper targets: ADN rate 5-6x Envoy; ADN latency 17-20x lower; "
      "hand-coded within 3-12%% of ADN.\n");

  const double cap1 = PoolCapacityMrps(1);
  const double cap4 = PoolCapacityMrps(4);
  std::printf(
      "\nEnginePool (real threads, full Logging->ACL->Fault chain, capacity "
      "= msgs per worker-CPU-sec):\n");
  std::printf("%-10s %-16s %12.0f krps (capacity)\n", "fig5", "1 worker",
              cap1 * 1e3);
  std::printf("%-10s %-16s %12.0f krps (capacity)   %.1fx\n", "", "4 workers",
              cap4 * 1e3, cap1 > 0 ? cap4 / cap1 : 0.0);
  std::printf(
      "See bench_scaling --threads / BENCH_threads.json for the full "
      "scaling curve.\n");
  return 0;
}
