// mRPC-style engines: the software ADN processors.
//
// An EngineChain is an ordered list of stages executing on one mRPC service
// runtime (or an app-embedded RPC library, a kernel eBPF hook, a SmartNIC —
// the stage interface is placement-agnostic; the site only changes the
// simulated cost scale). Stages see *typed* messages — no protocol parsing —
// which is the property that lets ADN skip the (de)marshalling the general
// stack pays at every hop.
//
// Not thread-safe: an EngineChain and its stages belong to one thread (the
// simulator's event loop, or one EnginePool worker — engine_pool.h spawns
// per-worker chains over per-worker state shards rather than locking one).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/exec.h"
#include "ir/program.h"
#include "obs/intern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/message.h"
#include "sim/cost_model.h"

namespace adn::mrpc {

class EngineStage {
 public:
  virtual ~EngineStage() = default;
  virtual std::string_view name() const = 0;
  // Does this stage run for this message kind (request/response)?
  virtual bool AppliesTo(rpc::MessageKind kind) const = 0;
  // Process in place.
  virtual ir::ProcessResult Process(rpc::Message& message, int64_t now_ns) = 0;
  // Simulated CPU per message on a host core.
  virtual double CostNs(const sim::CostModel& model,
                        size_t payload_bytes) const = 0;
  // Observability identity for the spans this stage's executor writes
  // itself, outside an RpcTraceScope (interned processor name + tier).
  // No-op for stages without a compiled executor.
  virtual void set_trace_identity(obs::Tier /*tier*/,
                                  obs::NameId /*processor_id*/) {}
};

// A compiler-generated stage. The element is lowered to a flat ChainProgram
// at construction and executed by the register-based ChainExecutor; the
// StmtIr tree stays on the ElementInstance as reference semantics only.
// State lives in the ElementInstance, so controller-side seeding, snapshot
// and migration code is tier-agnostic. An element the chain compiler
// declines (a client-library `retry`/`timeout` filter) aborts every message
// with the compile error instead of passing it unexamined.
class GeneratedStage : public EngineStage {
 public:
  explicit GeneratedStage(std::shared_ptr<const ir::ElementIr> code,
                          uint64_t seed);

  std::string_view name() const override { return instance_.name(); }
  bool AppliesTo(rpc::MessageKind kind) const override {
    return instance_.AppliesTo(kind);
  }
  ir::ProcessResult Process(rpc::Message& message, int64_t now_ns) override {
    if (executor_.has_value()) return executor_->Process(message, now_ns);
    return Reject();
  }
  // Process messages[0..n) in place, filling results[0..n) with exactly the
  // outcomes n sequential Process calls would produce, through the
  // executor's ProcessBurst (key prefetch plus batched telemetry).
  void ProcessBurst(rpc::Message* messages, size_t n, int64_t now_ns,
                    ir::ProcessResult* results) {
    if (!executor_.has_value()) {
      for (size_t i = 0; i < n; ++i) results[i] = Reject();
      return;
    }
    executor_->ProcessBurst(messages, n, now_ns, results);
  }
  double CostNs(const sim::CostModel& model,
                size_t payload_bytes) const override;
  void set_trace_identity(obs::Tier tier, obs::NameId processor_id) override {
    if (executor_.has_value()) executor_->set_trace_identity(tier, processor_id);
  }

  // False only when the element did not compile (a client-library filter):
  // every message is then aborted with the compile error.
  bool compiled() const { return executor_.has_value(); }
  const ir::ChainProgram* program() const { return program_.get(); }

  ir::ElementInstance& instance() { return instance_; }
  const ir::ElementInstance& instance() const { return instance_; }

 private:
  ir::ProcessResult Reject();

  ir::ElementInstance instance_;
  std::shared_ptr<const ir::ChainProgram> program_;
  std::optional<ir::ChainExecutor> executor_;  // bound to &instance_
  std::string compile_error_;                  // set when executor_ is empty
};

// An engine chain bound to one processor site.
class EngineChain {
 public:
  // `parallel_group`: stages sharing a group id were proven independent by
  // the compiler's effect analysis (paper §5.2: "if two elements do not
  // operate on the same RPC fields, they can be executed in parallel") and
  // may execute concurrently on the processor's cores. Default: every stage
  // its own group (strictly sequential).
  void AddStage(std::unique_ptr<EngineStage> stage, int parallel_group = -1) {
    if (parallel_group < 0) parallel_group = next_unique_group_--;
    groups_.push_back(parallel_group);
    stage->set_trace_identity(trace_tier_, trace_processor_id());
    stages_.push_back(std::move(stage));
  }

  size_t size() const { return stages_.size(); }
  EngineStage& stage(size_t i) { return *stages_[i]; }
  const EngineStage& stage(size_t i) const { return *stages_[i]; }

  // Swap stage i for another instance of the same element (the migration
  // protocol's resume step: the merged/re-sharded instance replaces the
  // paused one). Group membership is unchanged.
  void ReplaceStage(size_t i, std::unique_ptr<EngineStage> stage) {
    stage->set_trace_identity(trace_tier_, trace_processor_id());
    stages_[i] = std::move(stage);
  }

  // Run all applicable stages; stops at the first drop.
  ir::ProcessResult Process(rpc::Message& message, int64_t now_ns);

  // Process messages[0..n) one by one: results[i] = Process(messages[i]).
  // The pool's burst path is ChainExecutor::ProcessBurst over the whole
  // chain; the sim/mesh tiers stay on scalar Process, since they charge
  // per-message simulated cost (ProcessWithCost) and model per-hop latency.
  void ProcessBurst(rpc::Message* messages, size_t n, int64_t now_ns,
                    ir::ProcessResult* results) {
    for (size_t i = 0; i < n; ++i) results[i] = Process(messages[i], now_ns);
  }

  // Run the chain AND account the simulated CPU actually consumed: stages
  // after a drop cost nothing (this is what makes drop-early reordering
  // measurable). `payload_bytes` is sampled before each stage so payload
  // transforms are charged for the size they actually see.
  struct Outcome {
    ir::ProcessResult result;
    double cost_ns = 0;           // total CPU consumed
    double critical_path_ns = 0;  // latency: parallel groups overlap
  };
  Outcome ProcessWithCost(rpc::Message& message, int64_t now_ns,
                          const sim::CostModel& model);

  // Upper bound: sum of applicable stages' cost + dispatch overhead.
  double CostNs(const sim::CostModel& model, rpc::MessageKind kind,
                size_t payload_bytes) const;

  uint64_t processed() const { return processed_; }
  uint64_t dropped() const { return dropped_; }

  // Observability identity for this chain: the tier and processor name
  // stamped on every span/metric it emits. Defaults to the engine tier; the
  // simulated path re-labels each site's chain (tier=sim, processor=site).
  // The name is interned once here; the hot path only ever touches the id.
  void set_trace_identity(obs::Tier tier, std::string_view processor) {
    trace_tier_ = tier;
    trace_processor_ = std::string(processor);
    trace_processor_id_ = obs::InternName(processor);
    rpcs_counter_ = nullptr;  // re-resolve under the new label
    drops_counter_ = nullptr;
    for (const auto& stage : stages_) {
      stage->set_trace_identity(tier, trace_processor_id_);
    }
  }
  obs::Tier trace_tier() const { return trace_tier_; }
  const std::string& trace_processor() const { return trace_processor_; }
  obs::NameId trace_processor_id() const {
    // Lazily interned so a default-identity chain pays nothing until the
    // first observability-on call.
    if (trace_processor_id_ == 0) {
      trace_processor_id_ = obs::InternName(trace_processor_);
    }
    return trace_processor_id_;
  }

 private:
  // Resolve (once per identity) the chain's adn_chain_*_total counters.
  void EnsureCounters();

  std::vector<std::unique_ptr<EngineStage>> stages_;
  std::vector<int> groups_;
  int next_unique_group_ = -2;  // descending ids never collide with real ones
  uint64_t processed_ = 0;
  uint64_t dropped_ = 0;
  obs::Tier trace_tier_ = obs::Tier::kEngine;
  std::string trace_processor_ = "engine";
  mutable obs::NameId trace_processor_id_ = 0;
  obs::Counter* rpcs_counter_ = nullptr;
  obs::Counter* drops_counter_ = nullptr;
};

}  // namespace adn::mrpc
