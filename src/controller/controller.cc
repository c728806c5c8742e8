#include "controller/controller.h"

namespace adn::controller {

AdnController::AdnController(ClusterState* cluster, ControllerOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  cluster_->Watch([this](const ClusterEvent& event) { OnEvent(event); });
}

void AdnController::OnEvent(const ClusterEvent& event) {
  switch (event.kind) {
    case ClusterEvent::Kind::kConfigApplied:
      Reconcile();
      break;
    case ClusterEvent::Kind::kReplicaAdded:
    case ClusterEvent::Kind::kReplicaRemoved:
      // Deployment churn: LB endpoints tables change, code does not. The
      // data plane picks fresh EndpointRows() on its next state sync.
      ++endpoint_updates_;
      break;
    default:
      break;
  }
}

void AdnController::Reconcile() {
  ++reconcile_count_;
  // Compile every applied config; the latest one wins per chain name. The
  // prototype scope matches the paper's: one ADNConfig at a time.
  const AdnConfigResource* latest = nullptr;
  for (const auto& service : cluster_->services()) {
    (void)service;
  }
  // ClusterState stores configs privately; reconcile over the most recent
  // generation via FindConfig requires the name — we track by re-walking all
  // configs through a friend accessor-free approach: ApplyConfig callers use
  // one well-known name.
  latest = cluster_->FindConfig("adn-program");
  if (latest == nullptr) {
    last_status_ = Status(ErrorCode::kNotFound,
                          "no ADNConfig named 'adn-program' applied");
    return;
  }
  compiler::CompileOptions compile_options = options_.compile;
  if (options_.policy == PlacementPolicy::kMinHostCpu ||
      options_.policy == PlacementPolicy::kMinLatency) {
    // Offload-seeking policies want hardware-feasible elements late in the
    // chain so they can sit on the switch/NIC side of the path.
    compile_options.passes.order_strategy =
        compiler::OrderStrategy::kOffloadSink;
  }
  auto compiled =
      compiler_.CompileSource(latest->program_source, compile_options);
  if (!compiled.ok()) {
    last_status_ = compiled.status();
    return;
  }
  Deployment next;
  next.program = std::move(compiled).value();
  next.generation = latest->generation;
  for (const auto& chain : next.program.chains) {
    auto placement =
        PlaceChain(chain, options_.environment, options_.policy);
    if (!placement.ok()) {
      last_status_ = placement.status();
      return;
    }
    next.placements.push_back(std::move(placement).value());
  }
  deployment_ = std::move(next);
  has_deployment_ = true;
  last_status_ = Status::Ok();
}

std::vector<rpc::Row> AdnController::EndpointRows(
    std::string_view service) const {
  std::vector<rpc::Row> rows;
  const ServiceSpec* spec = cluster_->FindService(service);
  if (spec == nullptr || spec->replicas.empty()) return rows;
  for (int shard = 0; shard < elements::kLbShards; ++shard) {
    const ReplicaSpec& replica =
        spec->replicas[static_cast<size_t>(shard) % spec->replicas.size()];
    rows.push_back(rpc::Row{
        rpc::Value(static_cast<int64_t>(shard)),
        rpc::Value(static_cast<int64_t>(replica.endpoint)),
    });
  }
  return rows;
}

Result<std::vector<mrpc::PlacedStage>> AdnController::BuildStages(
    std::string_view chain_name, uint64_t seed_base) const {
  if (!has_deployment_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "no deployment yet (apply an ADNConfig first)");
  }
  const compiler::CompiledChain* chain = nullptr;
  const PlacementDecision* placement = nullptr;
  for (size_t i = 0; i < deployment_.program.chains.size(); ++i) {
    if (deployment_.program.chains[i].name == chain_name) {
      chain = &deployment_.program.chains[i];
      placement = &deployment_.placements[i];
      break;
    }
  }
  if (chain == nullptr) {
    return Error(ErrorCode::kNotFound,
                 "chain '" + std::string(chain_name) + "' not deployed");
  }

  // Assemble per-element seeds: static policy tables + live endpoints.
  std::vector<std::pair<std::string, std::vector<rpc::Row>>> seeds =
      options_.state_seeds;
  seeds.emplace_back("endpoints", EndpointRows(chain->callee_service));

  std::vector<mrpc::PlacedStage> out;
  for (size_t i = 0; i < chain->elements.size(); ++i) {
    const compiler::CompiledElement& element = chain->elements[i];
    mrpc::PlacedStage placed;
    placed.site = placement->sites[i];
    if (i < chain->parallel_groups.size()) {
      placed.parallel_group = chain->parallel_groups[i];
    }
    auto code = element.ir;
    uint64_t seed = seed_base + i * 7919;
    placed.factory = [code, seed,
                      seeds]() -> std::unique_ptr<mrpc::EngineStage> {
      auto stage = std::make_unique<mrpc::GeneratedStage>(code, seed);
      for (const auto& [table, rows] : seeds) {
        rpc::Table* t = stage->instance().FindTable(table);
        if (t == nullptr) continue;
        for (const rpc::Row& row : rows) {
          Status s = t->Insert(row);
          (void)s;  // seed rows are schema-checked by tests
        }
      }
      return stage;
    };
    out.push_back(std::move(placed));
  }
  return out;
}

int AdnController::RecommendEngineWidth(double utilization,
                                        int current_width) const {
  if (utilization > options_.scale_out_utilization) {
    return std::min(options_.max_engine_width, current_width * 2);
  }
  if (utilization < options_.scale_in_utilization && current_width > 1) {
    return current_width / 2;
  }
  return current_width;
}

}  // namespace adn::controller
