#include "stack/mesh_path.h"

#include <cassert>

namespace adn::stack {

namespace {

using sim::CpuStation;
using sim::Link;
using sim::SimTime;
using sim::Simulator;

// Per-connection HPACK state: the encoder lives at the sender, the decoder
// at the receiver; they stay in sync because they see the same header
// sequence.
struct ConnCodecs {
  HpackCodec encoder;
  HpackCodec decoder;
};

struct Experiment {
  explicit Experiment(const MeshConfig& config)
      : cfg(config),
        rng(config.seed),
        proto_schema(config.request_schema),
        client_app(&sim, "client-app", 1),
        client_kernel(&sim, "client-kernel", 2),
        client_sidecar_cpu(&sim, "client-sidecar", config.model.envoy_workers),
        server_kernel(&sim, "server-kernel", 2),
        server_sidecar_cpu(&sim, "server-sidecar", config.model.envoy_workers),
        server_app(&sim, "server-app", 2),
        wire(&sim, "wire", config.model.wire_propagation_ns,
             config.model.wire_bandwidth_gbps),
        client_sidecar("client-sidecar", config.seed * 7919 + 1),
        server_sidecar("server-sidecar", config.seed * 104729 + 2) {
    for (const auto& factory : cfg.client_filters) {
      client_sidecar.AddFilter(factory());
    }
    for (const auto& factory : cfg.filters) {
      server_sidecar.AddFilter(factory());
    }
    if (cfg.adn_chain.has_value()) {
      auto filter = std::make_unique<AdnChainFilter>(
          cfg.adn_chain->program, cfg.adn_chain->elements,
          cfg.request_schema, cfg.adn_chain->seed);
      if (cfg.adn_chain->seed_state) cfg.adn_chain->seed_state(*filter);
      server_sidecar.AddFilter(std::move(filter));
    }
  }

  const MeshConfig& cfg;
  Simulator sim;
  Rng rng;
  ProtoSchema proto_schema;

  CpuStation client_app;
  CpuStation client_kernel;
  CpuStation client_sidecar_cpu;
  CpuStation server_kernel;
  CpuStation server_sidecar_cpu;
  CpuStation server_app;
  Link wire;

  EnvoySidecar client_sidecar;
  EnvoySidecar server_sidecar;

  // Connections: app->scA, scA->scB, scB->server (x2 directions).
  ConnCodecs app_to_sca, sca_to_scb, scb_to_server;
  ConnCodecs server_to_scb, scb_to_sca, sca_to_app;

  // Workload bookkeeping.
  uint64_t next_id = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t measured_done = 0;
  int in_flight = 0;
  sim::LatencyRecorder latencies;
  std::vector<std::pair<std::string, double>> stage_cpu;
  uint64_t wire_requests = 0;
  SimTime measure_start_time = 0;
  SimTime measure_end_time = 0;
  bool warmed_up = false;

  void ChargeStage(const std::string& stage, SimTime cost) {
    for (auto& [name, total] : stage_cpu) {
      if (name == stage) {
        total += static_cast<double>(cost);
        return;
      }
    }
    stage_cpu.emplace_back(stage, static_cast<double>(cost));
  }

  SimTime Charge(CpuStation& station, const std::string& stage, SimTime cost,
                 std::function<void()> done) {
    ChargeStage(stage, cost);
    return station.Submit(cost, std::move(done));
  }

  bool AllIssued() const {
    return next_id >= cfg.warmup_requests + cfg.measured_requests;
  }

  int WindowLimit() const {
    return std::min(cfg.concurrency, cfg.model.grpc_channel_window);
  }

  void MaybeIssue() {
    while (!AllIssued() && in_flight < WindowLimit()) {
      IssueOne();
    }
  }

  void IssueOne() {
    uint64_t id = next_id++;
    ++in_flight;
    if (!warmed_up && id >= cfg.warmup_requests) {
      warmed_up = true;
      measure_start_time = sim.now();
      ResetStationStats();
    }
    SimTime start = sim.now();

    rpc::Message request = cfg.make_request(id, rng);
    request.set_id(id);

    // --- Stage 1: client app serializes (real proto + HTTP/2 encode) ------
    auto proto = ProtoEncode(request, proto_schema);
    assert(proto.ok());
    GrpcHttp2Message h2;
    HeaderList custom;
    for (const auto& [field, header] : cfg.field_headers) {
      const rpc::Value* v = request.FindField(field);
      if (v != nullptr && !v->is_null()) {
        custom.emplace_back(header, v->type() == rpc::ValueType::kText
                                        ? v->AsText()
                                        : v->ToDisplayString());
      }
    }
    h2.headers = MakeGrpcRequestHeaders("service-b", "/" + request.method(),
                                        custom);
    h2.grpc_payload = std::move(proto).value();
    h2.stream_id = static_cast<uint32_t>(2 * id + 1);
    h2.end_stream = true;
    Bytes wire_bytes = EncodeGrpcMessage(h2, app_to_sca.encoder);

    SimTime serialize_cost =
        cfg.model.grpc_serialize_ns +
        static_cast<SimTime>(cfg.model.grpc_per_byte_ns *
                             static_cast<double>(wire_bytes.size()));
    auto payload = std::make_shared<Bytes>(std::move(wire_bytes));
    Charge(client_app, "client-grpc-serialize", serialize_cost,
           [this, payload, start] { ClientKernelOut(payload, start); });
  }

  void ResetStationStats() {
    client_app.ResetStats();
    client_kernel.ResetStats();
    client_sidecar_cpu.ResetStats();
    server_kernel.ResetStats();
    server_sidecar_cpu.ResetStats();
    server_app.ResetStats();
    stage_cpu.clear();
  }

  // --- Stage 2: kernel + iptables redirect into the sidecar ----------------
  void ClientKernelOut(std::shared_ptr<Bytes> wire_bytes, SimTime start) {
    SimTime cost =
        cfg.model.kernel_crossing_ns + cfg.model.iptables_redirect_ns;
    Charge(client_kernel, "client-kernel", cost, [this, wire_bytes, start] {
      ClientSidecarRequest(wire_bytes, start);
    });
  }

  // --- Stage 3: client sidecar: parse, filters, re-encode ------------------
  void ClientSidecarRequest(std::shared_ptr<Bytes> wire_bytes, SimTime start) {
    SimTime cost = client_sidecar.MessageCostNs(cfg.model, wire_bytes->size(),
                                                /*is_request=*/true);
    Charge(client_sidecar_cpu, "client-sidecar", cost,
           [this, wire_bytes, start] {
             auto out = client_sidecar.ProcessWire(
                 *wire_bytes, /*is_request=*/true, app_to_sca.decoder,
                 sca_to_scb.encoder);
             assert(out.ok());
             if (out->aborted) {
               // Error response generated at the proxy, straight back.
               SimTime cost_back = cfg.model.kernel_crossing_ns;
               Charge(client_kernel, "client-kernel", cost_back,
                      [this, start] { Complete(start, /*success=*/false); });
               return;
             }
             auto fwd = std::make_shared<Bytes>(std::move(out->wire));
             SimTime k = cfg.model.kernel_crossing_ns;
             Charge(client_kernel, "client-kernel", k, [this, fwd, start] {
               ++wire_requests;
               wire.Send(fwd->size(), [this, fwd, start] {
                 ServerKernelIn(fwd, start);
               });
             });
           });
  }

  // --- Stage 4: server-side kernel + sidecar -------------------------------
  void ServerKernelIn(std::shared_ptr<Bytes> wire_bytes, SimTime start) {
    SimTime cost =
        cfg.model.kernel_crossing_ns + cfg.model.iptables_redirect_ns;
    Charge(server_kernel, "server-kernel", cost, [this, wire_bytes, start] {
      SimTime c = server_sidecar.MessageCostNs(cfg.model, wire_bytes->size(),
                                               /*is_request=*/true);
      Charge(server_sidecar_cpu, "server-sidecar", c,
             [this, wire_bytes, start] {
               auto out = server_sidecar.ProcessWire(
                   *wire_bytes, /*is_request=*/true, sca_to_scb.decoder,
                   scb_to_server.encoder);
               assert(out.ok());
               if (out->aborted) {
                 // Abort travels back over the wire as a small error reply.
                 wire.Send(64, [this, start] {
                   SimTime k = cfg.model.kernel_crossing_ns;
                   Charge(client_kernel, "client-kernel", k, [this, start] {
                     Complete(start, /*success=*/false);
                   });
                 });
                 return;
               }
               auto fwd = std::make_shared<Bytes>(std::move(out->wire));
               SimTime k = cfg.model.kernel_crossing_ns;
               Charge(server_kernel, "server-kernel", k,
                      [this, fwd, start] { ServerApp(fwd, start); });
             });
    });
  }

  // --- Stage 5: server app: deserialize, handle, respond -------------------
  void ServerApp(std::shared_ptr<Bytes> wire_bytes, SimTime start) {
    SimTime cost =
        cfg.model.grpc_deserialize_ns + cfg.model.app_handler_ns +
        cfg.model.grpc_serialize_ns +
        static_cast<SimTime>(cfg.model.grpc_per_byte_ns *
                             static_cast<double>(wire_bytes->size()));
    Charge(server_app, "server-app", cost, [this, wire_bytes, start] {
      // Real parse + echo + re-encode.
      auto parsed =
          ParseGrpcMessage(*wire_bytes, scb_to_server.decoder);
      assert(parsed.ok());
      auto decoded = ProtoDecode(parsed->grpc_payload, proto_schema);
      assert(decoded.ok());
      // Echo response: same payload back.
      GrpcHttp2Message resp;
      resp.headers = MakeGrpcResponseHeaders(0, {});
      auto proto = ProtoEncode(decoded.value(), proto_schema);
      assert(proto.ok());
      resp.grpc_payload = std::move(proto).value();
      resp.stream_id = parsed->stream_id;
      resp.end_stream = true;
      auto back =
          std::make_shared<Bytes>(EncodeGrpcMessage(resp, server_to_scb.encoder));
      SimTime k = cfg.model.kernel_crossing_ns +
                  cfg.model.iptables_redirect_ns;
      Charge(server_kernel, "server-kernel", k,
             [this, back, start] { ServerSidecarResponse(back, start); });
    });
  }

  // --- Stage 6: response path back through both sidecars -------------------
  void ServerSidecarResponse(std::shared_ptr<Bytes> wire_bytes,
                             SimTime start) {
    SimTime cost = server_sidecar.MessageCostNs(cfg.model, wire_bytes->size(),
                                                /*is_request=*/false);
    Charge(server_sidecar_cpu, "server-sidecar", cost,
           [this, wire_bytes, start] {
             auto out = server_sidecar.ProcessWire(
                 *wire_bytes, /*is_request=*/false, server_to_scb.decoder,
                 scb_to_sca.encoder);
             assert(out.ok() && !out->aborted);
             auto fwd = std::make_shared<Bytes>(std::move(out->wire));
             SimTime k = cfg.model.kernel_crossing_ns;
             Charge(server_kernel, "server-kernel", k, [this, fwd, start] {
               wire.Send(fwd->size(),
                         [this, fwd, start] { ClientSidecarResponse(fwd, start); });
             });
           });
  }

  void ClientSidecarResponse(std::shared_ptr<Bytes> wire_bytes,
                             SimTime start) {
    SimTime k_in =
        cfg.model.kernel_crossing_ns + cfg.model.iptables_redirect_ns;
    Charge(client_kernel, "client-kernel", k_in, [this, wire_bytes, start] {
      SimTime cost = client_sidecar.MessageCostNs(
          cfg.model, wire_bytes->size(), /*is_request=*/false);
      Charge(client_sidecar_cpu, "client-sidecar", cost,
             [this, wire_bytes, start] {
               auto out = client_sidecar.ProcessWire(
                   *wire_bytes, /*is_request=*/false, scb_to_sca.decoder,
                   sca_to_app.encoder);
               assert(out.ok() && !out->aborted);
               auto fwd = std::make_shared<Bytes>(std::move(out->wire));
               SimTime k = cfg.model.kernel_crossing_ns;
               Charge(client_kernel, "client-kernel", k, [this, fwd, start] {
                 // Client app deserializes the response.
                 SimTime cost2 =
                     cfg.model.grpc_deserialize_ns +
                     static_cast<SimTime>(
                         cfg.model.grpc_per_byte_ns *
                         static_cast<double>(fwd->size()));
                 Charge(client_app, "client-grpc-deserialize", cost2,
                        [this, fwd, start] {
                          auto parsed =
                              ParseGrpcMessage(*fwd, sca_to_app.decoder);
                          assert(parsed.ok());
                          Complete(start, /*success=*/true);
                        });
               });
             });
    });
  }

  void Complete(SimTime start, bool success) {
    --in_flight;
    if (success) {
      ++completed;
    } else {
      ++dropped;
    }
    if (warmed_up) {
      ++measured_done;
      if (success) latencies.Record(sim.now() - start);
      measure_end_time = sim.now();
    }
    MaybeIssue();
  }

  MeshResult Run() {
    MaybeIssue();
    sim.Run();

    MeshResult result;
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
    double host_cpu = 0;
    for (const auto& [stage, per_rpc] : result.stage_cpu_ns) {
      host_cpu += per_rpc;
    }
    result.stats.host_cpu_per_rpc_ns = host_cpu;
    result.wire_bytes_per_request =
        wire_requests > 0 ? static_cast<double>(wire.bytes_sent()) /
                                static_cast<double>(wire_requests)
                          : 0.0;
    result.client_sidecar_log = client_sidecar.access_log();
    return result;
  }
};

}  // namespace

MeshResult RunMeshExperiment(const MeshConfig& config) {
  Experiment experiment(config);
  return experiment.Run();
}

}  // namespace adn::stack
