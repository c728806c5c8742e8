// The acting half of the Figure-3 loop: turn the telemetry hub's sustained
// scaling advice into live reconfigurations of a running data path.
//
// Autoscaler::OnReport is shaped to be an AdnPathConfig::on_report hook.
// Each report tick it snapshots the obs registry, feeds the windowed series
// (rates + per-window latency quantiles), the telemetry hub (scaling
// advice) and the SLO monitor, then decides per engine site:
//
//   advice sustained for `sustain_windows` consecutive ticks
//     AND the site is past its per-site cooldown
//   -> emit a ReconfigCommand doubling (kScaleOut) or halving (kScaleIn)
//      the instance pool, bounded to [min_width, max_width]
//
// The command's migrate closure runs the *real* migration protocol on the
// chain's stateful stages — ScaleOutStage moves each GeneratedStage's
// state out across the new pool, ScaleInStages moves it back into the one
// logical instance the simulated chain executes (the station width models
// the pool; see adn_path.h) — verifying hash losslessness and charging the
// reconfiguration handshake as the data-plane pause.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "controller/migration.h"
#include "controller/telemetry.h"
#include "mrpc/adn_path.h"
#include "obs/window.h"

namespace adn::controller {

struct AutoscaleOptions {
  TelemetryOptions telemetry;  // advice thresholds + smoothing window
  SloOptions slo;
  int sustain_windows = 2;   // consecutive same-advice ticks before acting
  int cooldown_windows = 2;  // ticks a site rests after a reconfiguration
  int min_width = 1;
  int max_width = 8;
};

// One acted-on decision, for experiment timelines.
struct AutoscaleDecision {
  sim::SimTime at = 0;  // report window end that triggered it
  std::string processor;
  ScalingAdvice advice = ScalingAdvice::kSteady;
  int old_width = 1;
  int new_width = 1;
};

class Autoscaler {
 public:
  explicit Autoscaler(obs::MetricsRegistry* registry,
                      AutoscaleOptions options = {})
      : registry_(registry), options_(options), hub_(options.telemetry),
        slo_(options.slo) {}

  // The on_report hook. Engine sites only (the chain placements the
  // migration protocol covers); kernel/switch/NIC sites are reported on but
  // never reconfigured here.
  std::vector<mrpc::ReconfigCommand> OnReport(const mrpc::PathReport& report);

  const TelemetryHub& hub() const { return hub_; }
  const SloMonitor& slo() const { return slo_; }
  const obs::WindowedSeries& series() const { return series_; }
  const std::vector<AutoscaleDecision>& decisions() const {
    return decisions_;
  }

 private:
  // Round-trip state move of every GeneratedStage on the chain (one
  // MigrateStageWidth call per stage); returns the data-plane blackout and
  // records it under `processor`'s reconfig metrics. Exposed to OnReport's
  // command closures.
  sim::SimTime MigrateChain(mrpc::EngineChain& chain, int new_width,
                            const std::string& processor);

  obs::MetricsRegistry* registry_;
  AutoscaleOptions options_;
  TelemetryHub hub_;
  SloMonitor slo_;
  obs::WindowedSeries series_;
  std::map<std::string, int> out_streak_;
  std::map<std::string, int> in_streak_;
  std::map<std::string, int> cooldown_;
  std::vector<AutoscaleDecision> decisions_;
  uint64_t seed_base_ = 7'000;  // fresh seeds for migrated instances
};

}  // namespace adn::controller
