#include "controller/migration.h"

namespace adn::controller {

sim::SimTime EstimatePauseNs(size_t state_bytes) {
  // Reconfiguration handshake (quiesce queues, install routes) + copy.
  constexpr sim::SimTime kHandshakeNs = 50'000;  // 50 us
  constexpr double kPerByteNs = 0.25;            // shm/RDMA-class copy
  return kHandshakeNs +
         static_cast<sim::SimTime>(kPerByteNs * static_cast<double>(state_bytes));
}

Result<ScaleOutResult> ScaleOutStage(mrpc::GeneratedStage& source, size_t n,
                                     uint64_t seed_base) {
  ir::ElementInstance& instance = source.instance();
  ScaleOutResult out;
  out.report.source_state_hash = instance.StateContentHash();
  auto code = std::make_shared<const ir::ElementIr>(instance.code());
  std::vector<ir::ElementInstance*> to;
  for (size_t i = 0; i < n; ++i) {
    out.instances.push_back(
        std::make_unique<mrpc::GeneratedStage>(code, seed_base + i));
    to.push_back(&out.instances.back()->instance());
  }
  ADN_RETURN_IF_ERROR(instance.MoveStateTo(to));
  for (const ir::ElementInstance* moved : to) {
    out.report.state_bytes += moved->SnapshotState().size();
    out.report.result_state_hash ^= moved->StateContentHash();
  }
  out.report.pause_ns = EstimatePauseNs(out.report.state_bytes);
  return out;
}

Result<ScaleInResult> ScaleInStages(
    const std::vector<mrpc::GeneratedStage*>& sources, uint64_t seed) {
  if (sources.empty()) {
    return Error(ErrorCode::kInvalidArgument, "no instances to merge");
  }
  auto code =
      std::make_shared<const ir::ElementIr>(sources[0]->instance().code());
  // A move cannot be undone: check every source before the first one moves.
  for (const mrpc::GeneratedStage* source : sources) {
    const ir::ElementIr& source_code = source->instance().code();
    if (source_code.name != code->name) {
      return Error(ErrorCode::kInvalidArgument,
                   "cannot merge instances of different elements ('" +
                       code->name + "' vs '" + source_code.name + "')");
    }
    ADN_RETURN_IF_ERROR(ir::CheckStateCompatible(source_code, *code));
  }
  ScaleInResult out;
  out.instance = std::make_unique<mrpc::GeneratedStage>(code, seed);
  ir::ElementInstance* const to[] = {&out.instance->instance()};
  for (mrpc::GeneratedStage* source : sources) {
    out.report.state_bytes += source->instance().SnapshotState().size();
    out.report.source_state_hash ^= source->instance().StateContentHash();
    ADN_RETURN_IF_ERROR(source->instance().MoveStateTo(to));
  }
  out.report.result_state_hash = out.instance->instance().StateContentHash();
  out.report.pause_ns = EstimatePauseNs(out.report.state_bytes);
  return out;
}

Result<ScaleInResult> MigrateStageWidth(mrpc::GeneratedStage& source,
                                        size_t width, uint64_t seed_base) {
  ADN_ASSIGN_OR_RETURN(ScaleOutResult out,
                       ScaleOutStage(source, width, seed_base));
  if (!out.report.lossless()) {
    return Error(ErrorCode::kInternal, "scale-out lost state rows");
  }
  std::vector<mrpc::GeneratedStage*> sources;
  sources.reserve(out.instances.size());
  for (const auto& instance : out.instances) {
    sources.push_back(instance.get());
  }
  ADN_ASSIGN_OR_RETURN(ScaleInResult merged,
                       ScaleInStages(sources, seed_base + width + 1));
  if (!merged.report.lossless()) {
    return Error(ErrorCode::kInternal, "scale-in lost state rows");
  }
  // The key slots moved without a row being copied: the blackout is the
  // reconfiguration handshake alone.
  merged.report.pause_ns = EstimatePauseNs(0);
  return merged;
}

Result<ScaleInResult> HotUpdateStage(
    mrpc::GeneratedStage& running,
    std::shared_ptr<const ir::ElementIr> new_code, uint64_t seed) {
  // MoveStateTo applies the same schema gate as EnginePool::SwapProgram
  // (ir::CheckStateCompatible) before anything moves.
  ir::ElementInstance& old_instance = running.instance();
  ScaleInResult out;
  out.instance = std::make_unique<mrpc::GeneratedStage>(new_code, seed);
  out.report.state_bytes = old_instance.SnapshotState().size();
  out.report.source_state_hash = old_instance.StateContentHash();
  ir::ElementInstance* const to[] = {&out.instance->instance()};
  ADN_RETURN_IF_ERROR(old_instance.MoveStateTo(to));
  out.report.result_state_hash = out.instance->instance().StateContentHash();
  out.report.pause_ns = EstimatePauseNs(out.report.state_bytes);
  return out;
}

}  // namespace adn::controller
