#include "controller/autoscale.h"

#include <algorithm>
#include <cassert>

namespace adn::controller {

namespace {

bool IsEngineSite(mrpc::Site site) {
  return site == mrpc::Site::kClientEngine ||
         site == mrpc::Site::kServerEngine;
}

}  // namespace

std::vector<mrpc::ReconfigCommand> Autoscaler::OnReport(
    const mrpc::PathReport& report) {
  assert(registry_ != nullptr);
  const obs::MetricsSnapshot snapshot = registry_->Snapshot();
  series_.Ingest(snapshot, report.window_start, report.window_end);
  // The hub consumes the same snapshot stream (its own baselines seed the
  // same way), deriving per-processor reports and scaling advice.
  const Status ingest =
      hub_.IngestSnapshot(snapshot, report.window_start, report.window_end);
  assert(ingest.ok());
  (void)ingest;

  // SLO inputs: the window's end-to-end latency delta plus loss accounting.
  const std::string latency_labels = series_.FirstLabels("adn_rpc_latency_ns");
  const obs::SnapshotHistogram* latency =
      series_.HistogramDelta("adn_rpc_latency_ns", latency_labels);
  const uint64_t attempted =
      report.issued > 0 ? report.issued : report.completed + report.dropped;
  slo_.ObserveWindow(latency ? *latency : obs::SnapshotHistogram{}, attempted,
                     report.dropped + report.rejected);

  std::vector<mrpc::ReconfigCommand> commands;
  for (const mrpc::SiteWindow& site : report.sites) {
    if (!IsEngineSite(site.site) || site.paused) continue;
    int& rest = cooldown_[site.processor];
    if (rest > 0) {
      --rest;
      continue;
    }
    const ScalingAdvice advice = hub_.Advise(site.processor);
    int& out = out_streak_[site.processor];
    int& in = in_streak_[site.processor];
    out = advice == ScalingAdvice::kScaleOut ? out + 1 : 0;
    in = advice == ScalingAdvice::kScaleIn ? in + 1 : 0;

    int new_width = site.width;
    if (out >= options_.sustain_windows) {
      new_width = std::min(options_.max_width, site.width * 2);
    } else if (in >= options_.sustain_windows) {
      new_width = std::max(options_.min_width, site.width / 2);
    }
    if (new_width == site.width) continue;

    out = 0;
    in = 0;
    rest = options_.cooldown_windows;
    decisions_.push_back({report.window_end, site.processor, advice,
                          site.width, new_width});
    mrpc::ReconfigCommand cmd;
    cmd.site = site.site;
    cmd.new_width = new_width;
    cmd.migrate = [this, new_width,
                   processor = site.processor](mrpc::EngineChain& chain) {
      return MigrateChain(chain, new_width, processor);
    };
    commands.push_back(std::move(cmd));
  }
  return commands;
}

sim::SimTime Autoscaler::MigrateChain(mrpc::EngineChain& chain, int new_width,
                                      const std::string& processor) {
  // Even a stateless chain pays the reconfiguration handshake.
  sim::SimTime pause = EstimatePauseNs(0);
  for (size_t i = 0; i < chain.size(); ++i) {
    auto* stage = dynamic_cast<mrpc::GeneratedStage*>(&chain.stage(i));
    if (stage == nullptr) continue;  // not a compiler-generated stage
    // Move the live state out across the new pool, then back into the one
    // logical instance the simulated chain executes. MigrateStageWidth
    // verifies hash losslessness on both legs and charges the handshake
    // blackout, summed across stages since the chain migrates them in order.
    auto merged = MigrateStageWidth(*stage, static_cast<size_t>(new_width),
                                    seed_base_ += 200);
    if (!merged.ok()) continue;
    pause += merged.value().report.pause_ns;
    chain.ReplaceStage(i, std::move(merged.value().instance));
  }
  registry_
      ->GetHistogram("adn_reconfig_blackout_ns",
                     "processor=\"" + processor + "\"")
      .Observe(static_cast<double>(pause));
  return pause;
}

}  // namespace adn::controller
