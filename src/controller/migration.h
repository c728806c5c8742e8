// State migration: scale-out, scale-in and hot update of stateful element
// instances without losing state or messages (paper §5.2: "To migrate or
// scale out a load balancer, the controller can copy over its state and
// start running a new instance; while reducing the number of load balancer
// instances, it can merge their states and kill some instances. ... State
// decoupling also enables us to hot-update element processing logic.").
//
// One move protocol (docs/RECONFIG.md): every operation here moves the
// source instances' rows into fresh instances with
// ir::ElementInstance::MoveStateTo — keyed tables hand their key slots over
// whole, keyless logs copy row by row — so a source is empty afterwards.
// Each operation validates every source before it moves the first one: a
// move cannot be undone, so a rejected operation leaves every source as it
// was. Reports carry the state hashes on both sides (tests assert they are
// equal) and the pause the simulator charges.
#pragma once

#include <memory>
#include <vector>

#include "mrpc/engine.h"
#include "sim/simulator.h"

namespace adn::controller {

struct MigrationReport {
  // Bytes the moved state would take on the wire: the summed
  // SnapshotState() sizes of the instances it moved into (scale-out), out
  // of (scale-in) or through (hot update). Drives the pause model.
  size_t state_bytes = 0;
  sim::SimTime pause_ns = 0;  // data-plane pause while state moves
  uint64_t source_state_hash = 0;
  uint64_t result_state_hash = 0;  // XOR across result instances
  bool lossless() const { return source_state_hash == result_state_hash; }
};

// Pause model: fixed reconfiguration handshake + per-byte copy cost.
sim::SimTime EstimatePauseNs(size_t state_bytes);

// Move one instance's state into `n` fresh instances of the same code:
// key slot k to instance k % n. `source` is empty afterwards.
struct ScaleOutResult {
  std::vector<std::unique_ptr<mrpc::GeneratedStage>> instances;
  MigrationReport report;
};
Result<ScaleOutResult> ScaleOutStage(mrpc::GeneratedStage& source, size_t n,
                                     uint64_t seed_base);

// Move several instances' state into one fresh instance; a key two sources
// hold ends up with the later source's row. Every source is empty
// afterwards — or, when any source is of another element, all are
// untouched.
struct ScaleInResult {
  std::unique_ptr<mrpc::GeneratedStage> instance;
  MigrationReport report;
};
Result<ScaleInResult> ScaleInStages(
    const std::vector<mrpc::GeneratedStage*>& sources, uint64_t seed);

// The autoscaler's width change: move `source`'s state out across `width`
// instances, then back into the one logical instance the simulated chain
// executes. Both legs are hash-checked; the charged pause is the handshake
// floor, EstimatePauseNs(0), since in-process key slots move without
// copying their rows.
Result<ScaleInResult> MigrateStageWidth(mrpc::GeneratedStage& source,
                                        size_t width, uint64_t seed_base);

// Replace the element code, moving the state into the new code's instance.
// Fails, moving nothing, when the new code's state schema is incompatible
// (ir::CheckStateCompatible).
Result<ScaleInResult> HotUpdateStage(
    mrpc::GeneratedStage& running,
    std::shared_ptr<const ir::ElementIr> new_code, uint64_t seed);

}  // namespace adn::controller
