#include "mrpc/adn_path.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>

#include "sim/simulator.h"
#include "sim/station.h"

namespace adn::mrpc {

namespace {

using sim::CpuStation;
using sim::Link;
using sim::SimTime;
using sim::Simulator;

struct SiteRuntime {
  Site site;
  std::unique_ptr<CpuStation> station;
  EngineChain chain;  // may be empty
  double cost_scale = 1.0;
  bool fixed_pipeline = false;  // switch: fixed latency per message
  bool on_host = true;          // counts toward host CPU
  bool active = true;           // site participates in the path
  // --- Live-loop state ------------------------------------------------------
  // While paused (mid-reconfiguration) arriving messages are parked here in
  // arrival order and replayed at resume — paused, never lost. Work already
  // inside the station keeps draining during the pause.
  bool paused = false;
  std::deque<std::function<void()>> pending;
  uint64_t queued_total = 0;
  SimTime last_busy = 0;  // busy_time() at the previous report tick
};

struct Experiment {
  explicit Experiment(const AdnPathConfig& config)
      : cfg(config),
        rng(config.seed),
        codec(config.header, &methods),
        wire(&sim, "wire", config.model.wire_propagation_ns,
             config.model.wire_bandwidth_gbps) {
    BuildSites();
  }

  const AdnPathConfig& cfg;
  Simulator sim;
  Rng rng;
  rpc::MethodRegistry methods;
  rpc::AdnWireCodec codec;
  Link wire;
  std::array<SiteRuntime, 8> sites;

  uint64_t next_id = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t measured_done = 0;
  int in_flight = 0;
  sim::LatencyRecorder latencies;
  std::vector<std::pair<std::string, double>> stage_cpu;
  double host_cpu_total = 0;
  uint64_t wire_requests = 0;
  SimTime measure_start_time = 0;
  SimTime measure_end_time = 0;
  bool warmed_up = false;

  // --- Live-loop state ------------------------------------------------------
  bool open_loop = false;  // offered_rps drives arrivals instead of MaybeIssue
  uint64_t arrivals = 0;   // open-loop arrivals (admitted + rejected)
  uint64_t rejected = 0;   // open-loop arrivals bounced off the admission cap
  uint64_t queued_total = 0;  // messages parked across all pauses
  SimTime last_report_time = 0;
  uint64_t last_arrivals = 0;
  uint64_t last_completed = 0;
  uint64_t last_dropped = 0;
  uint64_t last_rejected = 0;
  std::vector<PathReport> reports;
  std::vector<ReconfigEvent> reconfigs;
  obs::Histogram* latency_hist = nullptr;

  void BuildSites() {
    auto make = [&](size_t idx, Site site, const char* name, int width,
                    double scale, bool pipeline, bool host, bool active) {
      sites[idx].site = site;
      sites[idx].station = std::make_unique<CpuStation>(&sim, name, width);
      sites[idx].cost_scale = scale;
      sites[idx].fixed_pipeline = pipeline;
      sites[idx].on_host = host;
      sites[idx].active = active;
    };
    const sim::CostModel& m = cfg.model;
    make(0, Site::kClientApp, "client-app", 1, 1.0, false, true, true);
    make(1, Site::kClientEngine, "client-engine", cfg.client_engine_width,
         1.0, false, true, cfg.client_engine_present);
    make(2, Site::kClientKernel, "client-kernel", 2, m.ebpf_op_scale, false,
         true, true);
    make(3, Site::kSwitch, "switch", 64, 1.0, true, false, false);
    make(4, Site::kServerNic, "server-nic", m.smartnic_cores,
         m.smartnic_op_scale, false, false, false);
    make(5, Site::kServerKernel, "server-kernel", 2, m.ebpf_op_scale, false,
         true, true);
    make(6, Site::kServerEngine, "server-engine", cfg.server_engine_width,
         1.0, false, true, cfg.server_engine_present);
    make(7, Site::kServerApp, "server-app", 2, 1.0, false, true, true);

    // Install stages; a site with stages becomes active.
    for (const PlacedStage& placed : cfg.stages) {
      for (auto& site : sites) {
        if (site.site == placed.site) {
          site.chain.AddStage(placed.factory(), placed.parallel_group);
          site.active = true;
          break;
        }
      }
    }
    // Spans/metrics from a site's chain carry the simulated tier and the
    // site name, so one RPC crossing several sites still assembles into one
    // trace (shared trace_id = message id).
    for (auto& site : sites) {
      site.chain.set_trace_identity(obs::Tier::kSim, SiteName(site.site));
    }
  }

  SiteRuntime& SiteAt(size_t idx) { return sites[idx]; }

  void ChargeStage(const std::string& stage, double cost, bool on_host) {
    if (!warmed_up) return;
    for (auto& [name, total] : stage_cpu) {
      if (name == stage) {
        total += cost;
        if (on_host) host_cpu_total += cost;
        return;
      }
    }
    stage_cpu.emplace_back(stage, cost);
    if (on_host) host_cpu_total += cost;
  }

  bool AllIssued() const {
    return next_id >= cfg.warmup_requests + cfg.measured_requests;
  }

  void MaybeIssue() {
    if (open_loop) return;  // arrivals are paced by offered_rps, not slots
    while (!AllIssued() && in_flight < cfg.concurrency) IssueOne();
  }

  // Park `resume` on site `idx`'s pause queue if it is mid-reconfiguration.
  // Returns true when the message was parked (caller must not proceed).
  bool MaybeQueue(size_t idx, std::function<void()> resume) {
    SiteRuntime& site = SiteAt(idx);
    if (!site.paused) return false;
    site.pending.push_back(std::move(resume));
    ++site.queued_total;
    ++queued_total;
    if (obs::Enabled()) {
      obs::MetricsRegistry::Default()
          .GetCounter("adn_ctrl_queued_msgs_total",
                      "processor=\"" + std::string(SiteName(site.site)) + "\"")
          .Inc();
    }
    return true;
  }

  struct Rpc {
    uint64_t id;
    SimTime start;
    rpc::Message message;
    Bytes wire_bytes;  // encoded form while crossing the wire
  };

  // Run the site's chain on the message (mutating it now), returning the
  // simulated CPU actually consumed, honoring the site's platform cost
  // scale. Stages after a drop cost nothing — this is what makes drop-early
  // reordering measurable end to end.
  EngineChain::Outcome RunChain(SiteRuntime& site, rpc::Message& message) {
    EngineChain::Outcome out =
        site.chain.ProcessWithCost(message, sim.now(), cfg.model);
    if (site.fixed_pipeline) {
      // Switch pipelines have a fixed per-message latency regardless of the
      // match-action work performed.
      out.cost_ns = static_cast<double>(cfg.model.p4_pipeline_ns);
      out.critical_path_ns = out.cost_ns;
    } else {
      out.cost_ns *= site.cost_scale;
      out.critical_path_ns *= site.cost_scale;
    }
    // Parallel groups shorten the message's critical path; the CPU beyond
    // it still occupies the station (other cores), without delaying this
    // message.
    if (out.cost_ns > out.critical_path_ns + 1.0) {
      site.station->Submit(
          static_cast<SimTime>(out.cost_ns - out.critical_path_ns), nullptr);
    }
    return out;
  }

  void IssueOne() {
    uint64_t id = next_id++;
    ++in_flight;
    if (!warmed_up && id >= cfg.warmup_requests) {
      warmed_up = true;
      measure_start_time = sim.now();
      for (auto& site : sites) site.station->ResetStats();
    }
    auto rpc = std::make_shared<Rpc>();
    rpc->id = id;
    rpc->start = sim.now();
    rpc->message = cfg.make_request(id, rng);
    rpc->message.set_id(id);
    methods.Intern(rpc->message.method());

    // Client app: build the typed message, run any in-app stages (Figure 2
    // config 1), shm-enqueue toward the service when one is present.
    SiteRuntime& app = SiteAt(0);
    double cost = static_cast<double>(cfg.model.shm_hop_ns);
    bool drop = false;
    bool reply = false;
    if (app.chain.size() > 0) {
      EngineChain::Outcome out = RunChain(app, rpc->message);
      cost += out.cost_ns;
      if (out.result.outcome == ir::ProcessOutcome::kReply) {
        // An in-app cache answered locally; the message is already the
        // response and never leaves the client.
        reply = true;
      } else if (out.result.outcome != ir::ProcessOutcome::kPass) {
        rpc->message = rpc::Message::MakeNetworkError(
            rpc->message, out.result.abort_message);
        drop = true;
      }
    }
    ChargeStage("client-app", cost, true);
    app.station->Submit(static_cast<SimTime>(cost), [this, rpc, drop, reply] {
      if (reply) {
        CompleteRpc(rpc, /*success=*/true);
        return;
      }
      if (drop) {
        CompleteRpc(rpc, /*success=*/false);
        return;
      }
      Forward(rpc, 1);
    });
  }

  // Advance the request through site index `idx` (1..6); site 7 = server app.
  void Forward(std::shared_ptr<Rpc> rpc, size_t idx) {
    if (MaybeQueue(std::min<size_t>(idx, 7),
                   [this, rpc, idx] { Forward(rpc, idx); })) {
      return;
    }
    // First site past the wire (the switch position parses the packet):
    // materialize the message from the minimal wire format. Fields the
    // compiler did not put in the header are genuinely gone.
    if (idx == 3 && !rpc->wire_bytes.empty()) {
      auto decoded = codec.Decode(rpc->wire_bytes);
      assert(decoded.ok());
      rpc->message = std::move(decoded).value();
      rpc->wire_bytes.clear();
    }
    if (idx >= 7) {
      ServerAppHandle(rpc);
      return;
    }
    SiteRuntime& site = SiteAt(idx);
    if (!site.active) {
      StepTransport(rpc, idx);
      return;
    }
    double cost = 0;
    bool drop = false;
    bool silent = false;
    bool reply = false;
    if (site.chain.size() > 0 &&
        rpc->message.kind() != rpc::MessageKind::kError) {
      EngineChain::Outcome out = RunChain(site, rpc->message);
      ChargeStage(std::string(SiteName(site.site)),
                  out.cost_ns - out.critical_path_ns, site.on_host);
      cost = out.critical_path_ns;
      if (out.result.outcome == ir::ProcessOutcome::kDropAbort) {
        rpc->message = rpc::Message::MakeNetworkError(
            rpc->message, out.result.abort_message);
        drop = true;
      } else if (out.result.outcome == ir::ProcessOutcome::kDropSilent) {
        drop = true;
        silent = true;
      } else if (out.result.outcome == ir::ProcessOutcome::kReply) {
        // Cache hit at this site: the request became the response here; it
        // turns around as a success without ever reaching the server. The
        // sites between this one and the client now process it on their
        // response path — the closer to the client the cache sits, the more
        // of the round trip a hit saves.
        reply = true;
      }
    } else if (site.site == Site::kClientEngine ||
               site.site == Site::kServerEngine) {
      cost = static_cast<double>(cfg.model.mrpc_engine_dispatch_ns);
    }
    if (site.site == Site::kServerKernel) {
      // TCP receive + copy of the minimal wire format (the message was
      // materialized at the switch position; the kernel still pays the
      // receive-path costs).
      cost += static_cast<double>(cfg.model.mrpc_tcp_rx_ns +
                                  cfg.model.adn_codec_ns);
    }
    ChargeStage(std::string(SiteName(site.site)), cost, site.on_host);
    site.station->Submit(static_cast<SimTime>(cost),
                         [this, rpc, idx, drop, silent, reply] {
                           if (reply) {
                             Backward(rpc, idx, /*success=*/true);
                             return;
                           }
                           if (drop) {
                             if (silent) {
                               // The message vanishes; a real client would
                               // time out — we settle the slot immediately
                               // to keep the loop closed.
                               CompleteRpc(rpc, /*success=*/false);
                             } else {
                               Backward(rpc, idx, /*success=*/false);
                             }
                             return;
                           }
                           StepTransport(rpc, idx);
                         });
  }

  // Transport edge leaving site `idx` on the request path.
  void StepTransport(std::shared_ptr<Rpc> rpc, size_t idx) {
    const sim::CostModel& m = cfg.model;
    if (SiteAt(idx).site == Site::kClientKernel) {
      // Real wire encode at the last host point before the wire.
      rpc->wire_bytes.clear();
      Status s = codec.Encode(rpc->message, rpc->wire_bytes);
      assert(s.ok());
      (void)s;
      SimTime cost = m.mrpc_tcp_tx_ns + m.adn_codec_ns;
      ChargeStage("client-kernel", static_cast<double>(cost), true);
      SiteAt(2).station->Submit(cost, [this, rpc] {
        ++wire_requests;
        wire.Send(rpc->wire_bytes.size(), [this, rpc] { Forward(rpc, 3); });
      });
      return;
    }
    Forward(rpc, idx + 1);
  }

  void ServerAppHandle(std::shared_ptr<Rpc> rpc) {
    SiteRuntime& app = SiteAt(7);
    double cost = static_cast<double>(cfg.model.app_handler_ns +
                                      cfg.model.shm_hop_ns);
    bool drop = false;
    bool reply = false;
    if (app.chain.size() > 0) {
      EngineChain::Outcome out = RunChain(app, rpc->message);
      cost += out.cost_ns;
      if (out.result.outcome == ir::ProcessOutcome::kReply) {
        // The chain already rewrote the request into the response; skip the
        // application handler.
        reply = true;
      } else if (out.result.outcome != ir::ProcessOutcome::kPass) {
        rpc->message = rpc::Message::MakeNetworkError(
            rpc->message, out.result.abort_message);
        drop = true;
      }
    }
    ChargeStage("server-app", cost, true);
    app.station->Submit(static_cast<SimTime>(cost), [this, rpc, drop, reply] {
      if (drop) {
        Backward(rpc, 7, /*success=*/false);
        return;
      }
      if (!reply) {
        rpc->message = rpc::Message::MakeResponse(
            rpc->message,
            {{"payload", rpc->message.GetFieldOrNull("payload")}});
      }
      Backward(rpc, 7, /*success=*/true);
    });
  }

  // Walk the response (or error) back toward the client app from site idx.
  void Backward(std::shared_ptr<Rpc> rpc, size_t idx, bool success) {
    if (idx == 0) {
      CompleteRpc(rpc, success);
      return;
    }
    size_t next = idx - 1;
    if (idx == 3) {
      // Passing from the switch position back toward the client: wire hop.
      rpc->wire_bytes.clear();
      Status s = codec.Encode(rpc->message, rpc->wire_bytes);
      assert(s.ok());
      (void)s;
      wire.Send(rpc->wire_bytes.size(), [this, rpc, next, success] {
        BackwardArrive(rpc, next, success);
      });
      return;
    }
    BackwardArrive(rpc, next, success);
  }

  void BackwardArrive(std::shared_ptr<Rpc> rpc, size_t idx, bool success) {
    if (MaybeQueue(idx, [this, rpc, idx, success] {
          BackwardArrive(rpc, idx, success);
        })) {
      return;
    }
    SiteRuntime& site = SiteAt(idx);
    if (!site.active) {
      Backward(rpc, idx, success);
      return;
    }
    const sim::CostModel& m = cfg.model;
    double cost = 0;
    bool failed = false;
    switch (site.site) {
      case Site::kClientApp: {
        cost = static_cast<double>(m.shm_hop_ns);
        if (site.chain.size() > 0 &&
            rpc->message.kind() == rpc::MessageKind::kResponse) {
          EngineChain::Outcome out = RunChain(site, rpc->message);
          cost += out.cost_ns;
          if (out.result.outcome != ir::ProcessOutcome::kPass &&
              out.result.outcome != ir::ProcessOutcome::kReply) {
            failed = true;
          }
        }
        ChargeStage("client-app", cost, true);
        site.station->Submit(static_cast<SimTime>(cost),
                             [this, rpc, success, failed] {
                               CompleteRpc(rpc, success && !failed);
                             });
        return;
      }
      case Site::kClientKernel: {
        cost = static_cast<double>(m.mrpc_tcp_rx_ns + m.adn_codec_ns);
        if (!rpc->wire_bytes.empty()) {
          auto decoded = codec.Decode(rpc->wire_bytes);
          assert(decoded.ok());
          rpc->message = std::move(decoded).value();
          rpc->wire_bytes.clear();
        }
        break;
      }
      case Site::kServerKernel: {
        cost = static_cast<double>(m.mrpc_tcp_tx_ns + m.adn_codec_ns);
        break;
      }
      default: {
        if (site.chain.size() > 0 &&
            rpc->message.kind() == rpc::MessageKind::kResponse) {
          EngineChain::Outcome out = RunChain(site, rpc->message);
          cost = out.cost_ns;
          if (out.result.outcome != ir::ProcessOutcome::kPass &&
              out.result.outcome != ir::ProcessOutcome::kReply) {
            rpc->message = rpc::Message::MakeNetworkError(
                rpc->message, out.result.abort_message);
            failed = true;
          }
        } else if (site.site == Site::kClientEngine ||
                   site.site == Site::kServerEngine) {
          cost = static_cast<double>(m.mrpc_engine_dispatch_ns);
        }
        break;
      }
    }
    ChargeStage(std::string(SiteName(site.site)), cost, site.on_host);
    site.station->Submit(static_cast<SimTime>(cost),
                         [this, rpc, idx, success, failed] {
                           Backward(rpc, idx, success && !failed);
                         });
  }

  void CompleteRpc(std::shared_ptr<Rpc> rpc, bool success) {
    --in_flight;
    if (success) {
      ++completed;
    } else {
      ++dropped;
    }
    if (warmed_up) {
      ++measured_done;
      if (success) {
        latencies.Record(sim.now() - rpc->start);
        if (obs::Enabled()) {
          if (latency_hist == nullptr) {
            latency_hist = &obs::MetricsRegistry::Default().GetHistogram(
                "adn_rpc_latency_ns", "tier=\"sim\"");
          }
          latency_hist->Observe(static_cast<double>(sim.now() - rpc->start));
        }
      }
      measure_end_time = sim.now();
    }
    MaybeIssue();
  }

  // --- Live loop ------------------------------------------------------------

  // Open-loop load generation: one arrival event at a time, paced by the
  // instantaneous offered rate. Arrivals beyond the admission cap are
  // rejected (counted) rather than queued — the client gives up, which is
  // what lets an under-provisioned window show up as loss in the timeline.
  void ScheduleNextArrival() {
    double rate = cfg.offered_rps(sim.now());
    SimTime gap = rate > 0
                      ? std::max<SimTime>(1, static_cast<SimTime>(1e9 / rate))
                      : std::max<SimTime>(1, cfg.report_interval_ns > 0
                                                 ? cfg.report_interval_ns / 4
                                                 : 1'000'000);
    SimTime next = sim.now() + gap;
    if (next >= cfg.run_for_ns) return;  // load generation window is over
    sim.At(next, [this] {
      if (cfg.offered_rps(sim.now()) > 0) {
        ++arrivals;
        if (in_flight >= cfg.concurrency) {
          ++rejected;
        } else {
          IssueOne();
        }
      }
      ScheduleNextArrival();
    });
  }

  // The recurring Figure-3 reporting event: publish window telemetry, hand
  // the report to the controller callback, apply whatever it commands.
  void DoReport() {
    SimTime now = sim.now();
    SimTime span = now - last_report_time;
    PathReport report;
    report.window_start = last_report_time;
    report.window_end = now;
    report.issued = arrivals - last_arrivals;
    report.completed = completed - last_completed;
    report.dropped = dropped - last_dropped;
    report.rejected = rejected - last_rejected;
    last_arrivals = arrivals;
    last_completed = completed;
    last_dropped = dropped;
    last_rejected = rejected;
    last_report_time = now;
    for (auto& site : sites) {
      if (!site.active) continue;
      SimTime busy = site.station->busy_time();
      SimTime busy_delta = std::max<SimTime>(0, busy - site.last_busy);
      site.last_busy = busy;
      SiteWindow w;
      w.site = site.site;
      w.processor = std::string(SiteName(site.site));
      w.width = site.station->width();
      w.utilization =
          span > 0 ? std::min(1.0, static_cast<double>(busy_delta) /
                                       (static_cast<double>(span) * w.width))
                   : 0.0;
      w.paused = site.paused;
      if (obs::Enabled()) {
        obs::MetricsRegistry::Default()
            .GetGauge("adn_engine_utilization",
                      "processor=\"" + w.processor + "\"")
            .Set(w.utilization);
      }
      report.sites.push_back(std::move(w));
    }
    reports.push_back(report);
    if (cfg.on_report) {
      for (ReconfigCommand& cmd : cfg.on_report(report)) {
        ApplyReconfig(std::move(cmd));
      }
    }
    // Keep ticking while the run is still producing work; stop once load
    // generation ended and the path drained, so the event does not hold the
    // simulator open forever.
    bool finished = open_loop ? (now + cfg.report_interval_ns >=
                                     cfg.run_for_ns &&
                                 in_flight == 0)
                              : (AllIssued() && in_flight == 0);
    if (!finished) {
      sim.After(cfg.report_interval_ns, [this] { DoReport(); });
    }
  }

  // Pause-drain-resume: pause the site now, run the controller's migration
  // (the real state move — the pause it returns is charged), resume
  // at the new width and replay everything that arrived meanwhile.
  void ApplyReconfig(ReconfigCommand cmd) {
    for (auto& site : sites) {
      if (site.site != cmd.site) continue;
      if (site.paused) return;  // one reconfiguration at a time per site
      int old_width = site.station->width();
      if (cmd.new_width == old_width && !cmd.migrate) return;
      site.paused = true;
      SimTime pause =
          cmd.migrate ? std::max<SimTime>(0, cmd.migrate(site.chain)) : 0;
      const std::string processor(SiteName(site.site));
      if (obs::Enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
        const std::string label = "processor=\"" + processor + "\"";
        reg.GetCounter("adn_ctrl_reconfigs_total", label).Inc();
        reg.GetHistogram("adn_ctrl_pause_ns", label)
            .Observe(static_cast<double>(pause));
      }
      ReconfigEvent event;
      event.at = sim.now();
      event.site = site.site;
      event.old_width = old_width;
      event.new_width = cmd.new_width;
      event.pause_ns = pause;
      size_t event_idx = reconfigs.size();
      reconfigs.push_back(event);
      uint64_t queued_before = site.queued_total;
      SiteRuntime* site_ptr = &site;
      int new_width = cmd.new_width;
      sim.After(pause, [this, site_ptr, event_idx, queued_before, new_width] {
        site_ptr->station->SetWidth(new_width);
        site_ptr->paused = false;
        reconfigs[event_idx].queued_during_pause =
            site_ptr->queued_total - queued_before;
        // Replay in arrival order; a nested pause (possible only via a
        // future report tick, not synchronously here) would re-park them.
        while (!site_ptr->pending.empty() && !site_ptr->paused) {
          auto fn = std::move(site_ptr->pending.front());
          site_ptr->pending.pop_front();
          fn();
        }
      });
      return;
    }
  }

  AdnPathResult Run() {
    open_loop = static_cast<bool>(cfg.offered_rps);
    if (open_loop) {
      assert(cfg.run_for_ns > 0);
      // The live loop *is* the experiment: measure from t=0, no warmup.
      warmed_up = true;
      measure_start_time = 0;
      // First arrival at t=0 if the profile offers load there.
      sim.At(0, [this] {
        if (cfg.offered_rps(sim.now()) > 0) {
          ++arrivals;
          if (in_flight >= cfg.concurrency) {
            ++rejected;
          } else {
            IssueOne();
          }
        }
        ScheduleNextArrival();
      });
    } else {
      MaybeIssue();
    }
    if (cfg.report_interval_ns > 0) {
      sim.After(cfg.report_interval_ns, [this] { DoReport(); });
    }
    sim.Run();

    AdnPathResult result;
    result.stats.label = cfg.label;
    result.stats.completed = completed;
    result.stats.dropped = dropped;
    SimTime span = measure_end_time - measure_start_time;
    result.stats.duration_us = sim::ToMicros(span);
    if (span > 0) {
      result.stats.throughput_krps =
          static_cast<double>(measured_done) /
          (static_cast<double>(span) / sim::kNanosPerSecond) / 1000.0;
    }
    result.stats.mean_latency_us = latencies.MeanMicros();
    result.stats.p50_latency_us = latencies.PercentileMicros(0.50);
    result.stats.p99_latency_us = latencies.PercentileMicros(0.99);
    double denom = std::max<double>(1.0, static_cast<double>(measured_done));
    for (auto& [stage, total] : stage_cpu) {
      result.stage_cpu_ns.emplace_back(stage, total / denom);
    }
    result.host_cpu_per_rpc_ns = host_cpu_total / denom;
    result.stats.host_cpu_per_rpc_ns = result.host_cpu_per_rpc_ns;
    result.wire_bytes_per_request =
        wire_requests > 0 ? static_cast<double>(wire.bytes_sent()) /
                                static_cast<double>(wire_requests)
                          : 0.0;
    if (span > 0) {
      result.client_engine_utilization =
          SiteAt(1).station->Utilization(span);
      result.server_engine_utilization =
          SiteAt(6).station->Utilization(span);
    }
    if (obs::Enabled()) {
      // Figure-3 feedback input: per-processor utilization gauges the
      // controller's TelemetryHub reads via IngestSnapshot.
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      for (auto& site : sites) {
        if (!site.active || span <= 0) continue;
        reg.GetGauge("adn_engine_utilization",
                     "processor=\"" + std::string(SiteName(site.site)) + "\"")
            .Set(site.station->Utilization(span));
      }
    }
    result.reconfigs = std::move(reconfigs);
    result.reports = std::move(reports);
    result.issued = open_loop ? arrivals - rejected : next_id;
    result.rejected = rejected;
    result.queued_during_pause = queued_total;
    return result;
  }
};

}  // namespace

std::string_view SiteName(Site site) {
  switch (site) {
    case Site::kClientApp: return "client-app";
    case Site::kClientEngine: return "client-engine";
    case Site::kClientKernel: return "client-kernel";
    case Site::kSwitch: return "switch";
    case Site::kServerNic: return "server-nic";
    case Site::kServerKernel: return "server-kernel";
    case Site::kServerEngine: return "server-engine";
    case Site::kServerApp: return "server-app";
  }
  return "?";
}

AdnPathResult RunAdnPathExperiment(const AdnPathConfig& config) {
  Experiment experiment(config);
  return experiment.Run();
}

}  // namespace adn::mrpc
