// Telemetry-on gate for the burst/zero-alloc hot path (E17).
//
// The burst-mode telemetry contract (docs/OBSERVABILITY.md "Burst-mode
// telemetry") promises observability is *always on*: enabling metrics plus
// sampled tracing must not push the data plane off the burst executor
// (prefetch per chunk, telemetry batched per chunk, sampled lanes' spans
// written straight to the event ring), must cost <= 10% over obs-off, and
// must not allocate on the steady-state arena path. This bench measures all
// three on the fig5 chain with a 1-worker EnginePool (methodology of
// bench_burst / bench_alloc):
//
//  - obs-off burst:   the uninstrumented baseline (denominator for the
//                     overhead fraction).
//  - obs-on burst:    metrics + tracing at 1-in-kSampleEvery, default burst.
//                     This is `compiled_ns_per_msg`, gated by CI against
//                     bench/baselines/obs_baseline.json.
//  - obs-on scalar:   burst_size=1 with the same telemetry. burst_speedup =
//                     scalar / burst proves telemetry did not collapse the
//                     burst win (tools/check_perf.py --min-speedup).
//  - obs-on arena:    bench_alloc's arena-backed submit path with telemetry
//                     on; the measured window must allocate NOTHING
//                     (tools/check_perf.py --max-allocs 0). Span records are
//                     fixed-size PODs pushed into per-worker SPSC event
//                     rings, metric deltas are batched counter/histogram
//                     adds — none of it touches the heap.
//
// Event rings are drained (Tracer::Clear) between reps while the pool is
// parked, so no rep's emit cost is silently discounted by a full ring
// dropping events; TotalDropped is checked to be 0 after the timed phases.
//
// Writes BENCH_obs.json (schema in EXPERIMENTS.md). Links adn_alloc_hooks
// so the alloc phase counts real heap traffic.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/arena.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/engine_pool.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/intern.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

constexpr int kUsers = 1024;
constexpr uint64_t kRepMessages = 100'000;
constexpr int kReps = 5;
constexpr uint64_t kSampleEvery = 100;
// The measured alloc rep inserts as many log rows as the warm rep did, so
// its INSERTs fit in the cell capacity the cleared log_tab kept.
constexpr uint64_t kAllocRepMessages = 50'000;

std::string User(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%04llu",
                static_cast<unsigned long long>(i % kUsers));
  return buf;
}

std::vector<rpc::Message> Stream(size_t n) {
  std::vector<rpc::Message> stream;
  stream.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Bytes payload(64, static_cast<uint8_t>(i));
    std::vector<rpc::Field> fields = {
        {"username", rpc::Value(User(i * 2654435761ULL))},
        {"payload", rpc::Value(std::move(payload))}};
    stream.push_back(
        rpc::Message::MakeRequest(i + 1, "Obj.Put", std::move(fields)));
  }
  return stream;
}

void SetObs(bool on) {
  obs::SetEnabled(on);
  obs::Tracer::Default().SetTracingEnabled(on);
  if (on) obs::Tracer::Default().SetSampleEvery(kSampleEvery);
}

// Best-of-reps 1-worker executor ns/msg (bench_burst methodology: log_tab
// cleared and event rings drained between reps while the pool is parked).
double Measure(const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
               const std::vector<rpc::Message>& stream, size_t burst,
               bool obs_on) {
  SetObs(obs_on);
  mrpc::EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.processor = "bench-obs";
  config.measure_exec = true;
  config.burst_size = burst;
  mrpc::EnginePool pool(elements, {}, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (uint64_t i = 0; i < kUsers; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
  }
  if (!pool.Start().ok()) return -1;
  double best = 1e18;
  int64_t prev_exec = 0;
  uint64_t prev_done = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    pool.WorkerInstance(0, 0).FindTable("log_tab")->Clear();
    obs::Tracer::Default().Clear();  // drain rings: no mid-rep eviction
    for (uint64_t i = 0; i < kRepMessages; ++i) {
      pool.Submit(stream[i % stream.size()]);
    }
    pool.Drain();
    const int64_t exec = pool.worker_exec_ns(0);
    const uint64_t done = pool.processed_by(0);
    best = std::min(best, static_cast<double>(exec - prev_exec) /
                              static_cast<double>(done - prev_done));
    prev_exec = exec;
    prev_done = done;
  }
  pool.Stop();
  return best;
}

// Allocations per message over one obs-on rep on the arena submit path
// (bench_alloc methodology; counter is process-global so the window covers
// producer, worker, and every telemetry emission in between).
double MeasureAllocs(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements) {
  SetObs(true);
  mrpc::EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.processor = "bench-obs";
  config.measure_exec = true;
  mrpc::EnginePool pool(elements, {}, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (uint64_t i = 0; i < kUsers; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
  }
  if (!pool.Start().ok()) return -1;

  const rpc::FieldId username_fid = rpc::InternFieldName("username");
  const rpc::FieldId payload_fid = rpc::InternFieldName("payload");
  common::ArenaPool arena_pool(1024);  // small slabs: see bench_alloc
  uint8_t payload[64];
  auto submit = [&](uint64_t i) {
    rpc::Message m = rpc::Message::WithArena(arena_pool);
    m.set_id(i + 1);
    m.set_method("Obj.Put");
    std::memset(payload, static_cast<uint8_t>(i), sizeof payload);
    m.SetText(username_fid, User(i * 2654435761ULL));
    m.SetBytes(payload_fid, payload);
    pool.Submit(std::move(m));
  };

  // Warm rep: arena pool reaches steady size, table cells grown, counters
  // and the worker's event ring registered, interner populated.
  for (uint64_t i = 0; i < kAllocRepMessages; ++i) submit(i);
  pool.Drain();
  pool.WorkerInstance(0, 0).FindTable("log_tab")->Clear();
  obs::Tracer::Default().Clear();

  const uint64_t allocs0 = common::alloc_stats::TotalAllocs();
  for (uint64_t i = 0; i < kAllocRepMessages; ++i) submit(i);
  pool.Drain();
  const uint64_t allocs1 = common::alloc_stats::TotalAllocs();
  pool.Stop();
  return static_cast<double>(allocs1 - allocs0) /
         static_cast<double>(kAllocRepMessages);
}

int Run() {
  if (!common::alloc_stats::Counting()) {
    std::fprintf(stderr,
                 "bench_obs: alloc hooks not linked — counts would read 0 "
                 "vacuously\n");
    return 1;
  }

  auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) {
    std::fprintf(stderr, "lowering failed\n");
    return 1;
  }
  std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
      lowered->FindElement("Logging"), lowered->FindElement("Acl"),
      lowered->FindElement("Fault")};

  const std::vector<rpc::Message> stream = Stream(256);
  const size_t default_burst = mrpc::EnginePool::Config{}.burst_size;

  std::printf(
      "Telemetry-on burst gate: fig5 chain, 1-worker EnginePool, best of "
      "%d x %lluk\nmessages, tracing 1-in-%llu. burst=1 is the scalar "
      "path.\n\n",
      kReps, static_cast<unsigned long long>(kRepMessages / 1000),
      static_cast<unsigned long long>(kSampleEvery));

  // Warmup (also validates the pipeline end to end).
  (void)Measure(elements, stream, default_burst, false);

  const double off_ns =
      Measure(elements, stream, default_burst, false);
  const double on_ns = Measure(elements, stream, default_burst, true);
  const double scalar_on_ns = Measure(elements, stream, 1, true);
  if (off_ns <= 0 || on_ns <= 0 || scalar_on_ns <= 0) return 1;

  const uint64_t ring_dropped = obs::EventRingRegistry::Default().TotalDropped();
  const double obs_overhead = on_ns / off_ns - 1.0;
  const double speedup = scalar_on_ns / on_ns;

  const double allocs_per_msg = MeasureAllocs(elements);
  if (allocs_per_msg < 0) return 1;
  SetObs(false);

  std::printf("%-28s %12s %14s\n", "phase", "ns/msg", "1-core Mrps");
  std::printf("%.*s\n", 56,
              "--------------------------------------------------------");
  std::printf("%-28s %12.1f %14.2f\n", "obs-off burst", off_ns, 1e3 / off_ns);
  std::printf("%-28s %12.1f %14.2f\n", "obs-on burst", on_ns, 1e3 / on_ns);
  std::printf("%-28s %12.1f %14.2f\n", "obs-on scalar", scalar_on_ns,
              1e3 / scalar_on_ns);
  std::printf(
      "\nTelemetry overhead on the burst path: %+.1f%%  (gate: <= 10%%)\n"
      "Burst speedup with telemetry on:      %.2fx   (gate: >= 1.6x)\n"
      "Allocations/msg, arena path, obs on:  %.4f   (gate: 0)\n"
      "Events dropped by full rings:         %llu\n",
      obs_overhead * 100, speedup, allocs_per_msg,
      static_cast<unsigned long long>(ring_dropped));
  if (ring_dropped != 0) {
    std::fprintf(stderr,
                 "bench_obs: WARNING — %llu events evicted during timed "
                 "phases; emit cost under-measured\n",
                 static_cast<unsigned long long>(ring_dropped));
  }

  std::FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"chain\": \"fig5 (Logging -> ACL -> Fault)\",\n"
               "  \"rep_messages\": %llu,\n"
               "  \"reps\": %d,\n"
               "  \"default_burst\": %zu,\n"
               "  \"sample_every\": %llu,\n"
               "  \"obs_off_ns_per_msg\": %.1f,\n"
               "  \"compiled_ns_per_msg\": %.1f,\n"
               "  \"scalar_ns_per_msg\": %.1f,\n"
               "  \"burst_speedup\": %.2f,\n"
               "  \"obs_overhead_frac\": %.4f,\n"
               "  \"allocs_per_msg\": %.4f,\n"
               "  \"events_dropped\": %llu\n"
               "}\n",
               ADN_GIT_SHA, static_cast<unsigned long long>(kRepMessages),
               kReps, default_burst,
               static_cast<unsigned long long>(kSampleEvery), off_ns, on_ns,
               scalar_on_ns, speedup, obs_overhead, allocs_per_msg,
               static_cast<unsigned long long>(ring_dropped));
  std::fclose(f);
  std::printf("\nWrote BENCH_obs.json\n");
  return 0;
}

}  // namespace
}  // namespace adn

int main() { return adn::Run(); }
