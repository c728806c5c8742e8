// adntrace — Chrome-trace / Perfetto exporter for the ADN event rings.
//
// Usage:
//   adntrace [--rpcs N] [--sample N] [--workers N] [--reconfig] [--out FILE]
//
// Drives the Figure-5 chain (Logging, Acl, Fault) through a multi-worker
// EnginePool with the obs plane fully on — metrics AND sampled tracing —
// which exercises the burst-mode telemetry path end to end: workers run
// the burst executor, span/burst records land in each worker's SPSC
// event ring (obs/event_ring.h), and this tool drains the rings and writes
// Chrome-trace ("Trace Event Format") JSON, loadable in chrome://tracing
// or https://ui.perfetto.dev.
//
// Each span becomes a complete ("ph":"X") event on its processor's thread
// row; burst markers become "burst" events with args.lanes; with
// --reconfig the tool also runs one live slot migration plus a DSL
// hot-swap mid-traffic, so the reconfig.* instant events (docs/RECONFIG.md
// "Emitted events") line up against the data-plane spans on the timeline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/engine_pool.h"
#include "obs/event_ring.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: adntrace [--rpcs N] [--sample N] [--workers N] [--reconfig] "
      "[--out FILE]\n"
      "  --rpcs     RPCs to drive through the fig5 pool (default 2000)\n"
      "  --sample   trace 1 in N RPCs (default 100)\n"
      "  --workers  pool workers / event rings (default 2)\n"
      "  --reconfig run a live slot migration + program hot-swap mid-run\n"
      "             so reconfig.* instant events appear on the timeline\n"
      "  --out      write the Chrome-trace JSON here (default stdout)\n");
  return 2;
}

std::string User(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%03llu",
                static_cast<unsigned long long>(i % 64));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adn;

  uint64_t rpcs = 2000;
  uint64_t sample_every = 100;
  int workers = 2;
  bool reconfig = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--rpcs" && i + 1 < argc) {
      rpcs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--sample" && i + 1 < argc) {
      sample_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (arg == "--reconfig") {
      reconfig = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (workers < 1) return Usage();

  obs::SetEnabled(true);
  obs::Tracer::Default().SetTracingEnabled(true);
  obs::Tracer::Default().SetSampleEvery(sample_every);

  auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) {
    std::fprintf(stderr, "lower: %s\n", lowered.status().ToString().c_str());
    return 1;
  }
  std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
      lowered->FindElement("Logging"), lowered->FindElement("Acl"),
      lowered->FindElement("Fault")};

  mrpc::EnginePool::Config config;
  config.workers = workers;
  config.shard_key_field = "username";
  config.processor = "adntrace";
  mrpc::EnginePool pool(elements, {}, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (uint64_t i = 0; i < 64; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
  }
  if (Status s = pool.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  auto drive = [&](uint64_t base, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t id = base + i;
      pool.Submit(rpc::Message::MakeRequest(
          id, "Obj.Put",
          {{"username", rpc::Value(User(id * 2654435761ULL))},
           {"payload", rpc::Value(Bytes(64, static_cast<uint8_t>(id)))}}));
    }
  };

  drive(0, rpcs / 2);
  pool.Drain();

  if (reconfig) {
    // A live slot migration (needs a second worker to move the slot to) ...
    if (workers >= 2) {
      if (Status s = pool.BeginSlotMigration(/*slot=*/0, /*to_worker=*/1);
          !s.ok()) {
        std::fprintf(stderr, "migrate: %s\n", s.ToString().c_str());
        return 1;
      }
      uint64_t base = rpcs;
      while (pool.PumpMigration() != mrpc::EnginePool::MigrationPhase::kDone) {
        drive(base, 16);  // keep traffic flowing through the cutover
        base += 16;
      }
    } else {
      std::fprintf(stderr, "--reconfig migration skipped: 1 worker\n");
    }
    // ... and a DSL hot-swap (same source recompiled -> new version).
    auto reparsed = dsl::ParseProgram(elements::Fig5ProgramSource());
    auto relowered = compiler::LowerProgram(*reparsed);
    std::vector<std::shared_ptr<const ir::ElementIr>> swapped = {
        relowered->FindElement("Logging"), relowered->FindElement("Acl"),
        relowered->FindElement("Fault")};
    if (Status s = pool.SwapProgram(swapped); !s.ok()) {
      std::fprintf(stderr, "swap: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  drive(rpcs, rpcs - rpcs / 2);
  pool.Drain();
  pool.Stop();

  // Ring health before the drain consumes them (depth collapses to 0 after).
  std::fprintf(stderr, "event rings:\n");
  for (const auto& rs : obs::EventRingRegistry::Default().Stats()) {
    std::fprintf(stderr, "  %-16s depth %zu/%zu  emitted %llu  dropped %llu\n",
                 std::string(rs.label.empty() ? "(unlabeled)" : rs.label)
                     .c_str(),
                 rs.depth, rs.capacity,
                 static_cast<unsigned long long>(rs.emitted),
                 static_cast<unsigned long long>(rs.dropped));
  }

  const std::string json = obs::ExportChromeTraceJson();
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu bytes) — load in chrome://tracing\n",
                 out_path.c_str(), json.size());
  }
  return 0;
}
