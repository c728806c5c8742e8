#include "mrpc/engine.h"

#include <algorithm>

#include "compiler/chain_compile.h"

namespace adn::mrpc {

namespace {
// Interned once per process: the root span name every chain scope opens.
obs::NameId RpcRootNameId() {
  static const obs::NameId id = obs::InternName("rpc");
  return id;
}
}  // namespace

GeneratedStage::GeneratedStage(std::shared_ptr<const ir::ElementIr> code,
                               uint64_t seed)
    : instance_(std::move(code), seed) {
  auto program = compiler::CompileElementProgram(instance_.code());
  if (!program.ok()) {
    compile_error_ = program.status().ToString();
    return;
  }
  program_ = std::move(program).value();
  executor_.emplace(program_, std::vector<ir::ElementInstance*>{&instance_});
}

ir::ProcessResult GeneratedStage::Reject() {
  instance_.NoteProcessed();
  instance_.NoteDropped();
  ir::ProcessResult r;
  r.outcome = ir::ProcessOutcome::kDropAbort;
  r.abort_message = compile_error_;
  return r;
}

double GeneratedStage::CostNs(const sim::CostModel& model,
                              size_t payload_bytes) const {
  if (instance_.code().IsCache()) {
    // Expected per-message cache work under the planner's hit-rate prior.
    // Simulated tiers charge this; bench_cache measures the real thing.
    return static_cast<double>(model.cache_lookup_ns) +
           (1.0 - model.cache_default_hit_rate) *
               static_cast<double>(model.cache_fill_ns);
  }
  if (instance_.code().IsFilter()) {
    // The operator's charge from lowering's FilterOpSpecs table.
    return instance_.code().filter_op->cost_ops * model.adn_op_ns;
  }
  if (program_ == nullptr) return 0;  // Reject aborts before any work
  const ir::ChainProgram::ElementSeg& seg = program_->elements[0];
  return model.CompiledElementCostNs(seg.instr_count, seg.per_byte_cost_ns,
                                     payload_bytes);
}

void EngineChain::EnsureCounters() {
  if (rpcs_counter_ != nullptr) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string label = "processor=\"" + trace_processor_ + "\"";
  rpcs_counter_ = &reg.GetCounter("adn_chain_rpcs_total", label);
  drops_counter_ = &reg.GetCounter("adn_chain_drops_total", label);
}

ir::ProcessResult EngineChain::Process(rpc::Message& message,
                                       int64_t now_ns) {
  ++processed_;
  const bool timing = obs::Enabled();
  std::optional<obs::RpcTraceScope> scope;
  if (timing) {
    EnsureCounters();
    rpcs_counter_->Inc();
    scope.emplace(message.id(), trace_tier_, trace_processor_id(),
                  RpcRootNameId());
  }
  for (const auto& stage : stages_) {
    if (!stage->AppliesTo(message.kind())) continue;
    ir::ProcessResult r = stage->Process(message, now_ns);
    if (r.outcome != ir::ProcessOutcome::kPass) {
      // kReply ends the chain as a success (the message is now the
      // response); only real drops count or bump the drop counter.
      if (r.outcome != ir::ProcessOutcome::kReply) {
        ++dropped_;
        if (timing) drops_counter_->Inc();
      }
      return r;
    }
  }
  return ir::ProcessResult::Pass();
}

EngineChain::Outcome EngineChain::ProcessWithCost(
    rpc::Message& message, int64_t now_ns, const sim::CostModel& model) {
  ++processed_;
  const bool timing = obs::Enabled();
  std::optional<obs::RpcTraceScope> scope;
  if (timing) {
    EnsureCounters();
    rpcs_counter_->Inc();
    scope.emplace(message.id(), trace_tier_, trace_processor_id(),
                  RpcRootNameId());
  }
  Outcome out;
  out.cost_ns = static_cast<double>(model.mrpc_engine_dispatch_ns);
  out.critical_path_ns = out.cost_ns;
  // Execution is sequential (the effect analysis guarantees the result is
  // identical); cost accounting overlaps stages within a parallel group:
  // CPU adds up, latency takes the group's maximum.
  double group_max = 0;
  int current_group = next_unique_group_ - 1;  // matches nothing
  auto close_group = [&] {
    out.critical_path_ns += group_max;
    group_max = 0;
  };
  for (size_t i = 0; i < stages_.size(); ++i) {
    const auto& stage = stages_[i];
    if (!stage->AppliesTo(message.kind())) continue;
    size_t payload_bytes = 0;
    for (const auto& f : message.fields()) {
      if (f.value.type() == rpc::ValueType::kBytes) {
        payload_bytes = f.value.AsBytes().size();
        break;
      }
    }
    if (groups_[i] != current_group) {
      close_group();
      current_group = groups_[i];
    }
    double stage_cost = stage->CostNs(model, payload_bytes);
    out.cost_ns += stage_cost;
    group_max = std::max(group_max, stage_cost);
    ir::ProcessResult r = stage->Process(message, now_ns);
    if (r.outcome != ir::ProcessOutcome::kPass) {
      if (r.outcome != ir::ProcessOutcome::kReply) {
        ++dropped_;
        if (timing) drops_counter_->Inc();
      }
      out.result = r;
      close_group();
      return out;
    }
  }
  close_group();
  return out;
}

double EngineChain::CostNs(const sim::CostModel& model, rpc::MessageKind kind,
                           size_t payload_bytes) const {
  double total = static_cast<double>(model.mrpc_engine_dispatch_ns);
  for (const auto& stage : stages_) {
    if (!stage->AppliesTo(kind)) continue;
    total += stage->CostNs(model, payload_bytes);
  }
  return total;
}

}  // namespace adn::mrpc
