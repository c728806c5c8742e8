// End-to-end simulated ADN data path (the paper's prototype architecture):
//
//   client app -(shm)-> client mRPC service -(TCP)-> kernel [eBPF] -> wire
//     -> [P4 switch] -> [SmartNIC] -> kernel -> server mRPC service
//     -(shm)-> server app
//
// Each bracketed site optionally hosts compiled ADN stages — that is how the
// Figure 2 configurations are expressed: config 1 places stages in the app
// processes, config 2 in kernel/SmartNIC, config 3 on the switch after
// reordering, config 4 widens the engine stations. The wire format between
// machines is the compiler-synthesized minimal header (rpc/wire.h), encoded
// and decoded for real on every crossing.
//
// Threading: this whole path is single-threaded by design — it runs inside
// the discrete-event simulator, so "engine width" is a station parameter
// and the app<->service SpscRing carries a modeled shm_hop_ns cost, not
// real contention. The real-thread realization of the engine tier is
// EnginePool (engine_pool.h): N worker threads, shard-key routing, true
// SPSC handoff. See docs/ARCHITECTURE.md "Threading model".
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "mrpc/engine.h"
#include "rpc/wire.h"
#include "sim/cost_model.h"
#include "sim/stats.h"

namespace adn::mrpc {

enum class Site : uint8_t {
  kClientApp,
  kClientEngine,
  kClientKernel,   // eBPF hook point (tc egress / XDP)
  kSwitch,         // programmable switch on the path
  kServerNic,      // SmartNIC on the receiver
  kServerKernel,
  kServerEngine,
  kServerApp,
};

std::string_view SiteName(Site site);

using StageFactory = std::function<std::unique_ptr<EngineStage>()>;

struct PlacedStage {
  Site site;
  StageFactory factory;
  // Compiler-assigned parallel group (stages sharing an id on the same site
  // may overlap); -1 = strictly sequential.
  int parallel_group = -1;
};

// --- Live telemetry -> control loop (Figure 3 running *inside* the run) ------
//
// With AdnPathConfig::report_interval_ns > 0 the experiment schedules a
// recurring reporting event: every interval it publishes each active site's
// window telemetry into the obs registry (adn_engine_utilization gauges;
// the end-to-end adn_rpc_latency_ns histogram accumulates at completion
// time) and invokes on_report. The callback — the controller side, e.g.
// controller::Autoscaler — returns reconfiguration commands; each is
// applied with the pause-drain-resume migration protocol:
//
//   pause:  the site stops serving; messages arriving in either direction
//           are queued (never dropped), counted by adn_ctrl_queued_msgs_total
//   drain:  the command's `migrate` closure moves the chain's element
//           state for the new instance pool and returns the data-plane
//           pause it charges (controller::EstimatePauseNs)
//   resume: the station continues at new_width and replays the queue in
//           arrival order
//
// The station's width models the instance pool: the simulator charges
// capacity at the station, while the state moves run for real on the
// chain's stages so losslessness is verifiable (hash round-trip).

// One active site's view over the last report window.
struct SiteWindow {
  Site site;
  std::string processor;  // SiteName(site) — the metric `processor` label
  int width = 1;
  double utilization = 0.0;  // busy fraction over the window
  bool paused = false;
};

struct PathReport {
  sim::SimTime window_start = 0;
  sim::SimTime window_end = 0;
  uint64_t issued = 0;     // arrivals this window (admitted + rejected)
  uint64_t completed = 0;  // completions this window (success)
  uint64_t dropped = 0;    // chain drops/aborts this window
  uint64_t rejected = 0;   // open-loop admission rejects this window
  std::vector<SiteWindow> sites;  // active sites only
};

struct ReconfigCommand {
  Site site;
  int new_width = 1;
  // Controller-supplied migration, run at pause start on the site's chain.
  // Returns the data-plane pause in ns; the site resumes (at new_width)
  // when it elapses. May be null (pure width change, minimal pause).
  std::function<sim::SimTime(EngineChain&)> migrate;
};

using ReportCallback =
    std::function<std::vector<ReconfigCommand>(const PathReport&)>;

struct AdnPathConfig {
  std::string label = "ADN+mRPC";
  int concurrency = 128;
  uint64_t measured_requests = 20'000;
  uint64_t warmup_requests = 2'000;
  uint64_t seed = 1;
  sim::CostModel model = sim::CostModel::Default();

  std::function<rpc::Message(uint64_t id, Rng& rng)> make_request;

  // Stages in chain order with their placement sites. Sites must be
  // non-decreasing in path order for request-direction processing.
  std::vector<PlacedStage> stages;

  // Wire header between the two machines (from the compiler's header
  // synthesis). Fields not listed are not carried.
  rpc::HeaderSpec header;

  // Station widths (config 4 scales these out).
  int client_engine_width = 1;
  int server_engine_width = 1;

  // True when the mRPC service runtime is on the path (false = config 1
  // "in-app" deployment where the RPC library does everything).
  bool client_engine_present = true;
  bool server_engine_present = true;

  // --- Live loop (all optional; defaults reproduce the closed-loop run) ----
  // > 0 enables the recurring in-run reporting event (Figure 3 cadence).
  sim::SimTime report_interval_ns = 0;
  // Controller hook invoked at each report; may return reconfigurations.
  ReportCallback on_report;
  // Open-loop arrivals: offered load (RPCs/sec) as a function of sim time.
  // When set, `concurrency` becomes an admission cap — arrivals beyond it
  // are rejected (counted, not simulated) — and the run lasts run_for_ns
  // instead of a fixed request count. Load generation starts at t=0 with no
  // warmup (the live loop is the experiment).
  std::function<double(sim::SimTime)> offered_rps;
  sim::SimTime run_for_ns = 0;
};

// One applied reconfiguration (for result timelines / bench_autoscale).
struct ReconfigEvent {
  sim::SimTime at = 0;  // pause start
  Site site;
  int old_width = 1;
  int new_width = 1;
  sim::SimTime pause_ns = 0;
  uint64_t queued_during_pause = 0;
};

struct AdnPathResult {
  sim::RunStats stats;
  std::vector<std::pair<std::string, double>> stage_cpu_ns;
  double wire_bytes_per_request = 0.0;
  // CPU charged to host cores only (apps + engines + kernels), per RPC —
  // offloaded work (switch, NIC) excluded. Shows Figure 2's offload wins.
  double host_cpu_per_rpc_ns = 0.0;
  // Engine-station utilization over the measurement window — the signal the
  // controller's scaling feedback loop consumes.
  double client_engine_utilization = 0.0;
  double server_engine_utilization = 0.0;
  // --- Live-loop accounting (empty unless report_interval_ns > 0) ----------
  std::vector<ReconfigEvent> reconfigs;
  std::vector<PathReport> reports;  // one per reporting tick, in order
  uint64_t issued = 0;              // open-loop arrivals admitted
  uint64_t rejected = 0;            // open-loop arrivals beyond the cap
  uint64_t queued_during_pause = 0;  // messages held (not lost) across pauses
};

AdnPathResult RunAdnPathExperiment(const AdnPathConfig& config);

}  // namespace adn::mrpc
