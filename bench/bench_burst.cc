// Burst-size sweep for the batched data plane: how much does draining the
// SPSC ring in bursts and running the ChainProgram executor's burst path
// (one key-prefetch pass per chunk, then the scalar loop per message) buy
// over one-message-at-a-time?
//
// Methodology matches the 1-worker gate in bench_scaling --threads so the
// numbers are comparable: fig5 chain (Logging -> ACL -> Fault), 1-worker
// EnginePool with measure_exec, reps of 100k messages with log_tab cleared
// between reps (the unbounded log otherwise dominates with vector growth
// and cache misses as it grows), best rep wins. The only variable is
// Config::burst_size — burst=1 IS the per-message path (a chunk of one lane
// gets no prefetch), so the first row doubles as the pre-burst baseline.
//
// A second pass runs 4 workers at the default burst size and reports pool
// capacity (sum over workers of msgs per CPU-ns) — the fig5 scaling headline.
//
// Writes BENCH_burst.json (schema in EXPERIMENTS.md). `compiled_ns_per_msg`
// is the default-burst 1-worker executor cost so tools/check_perf.py can gate
// it against bench/baselines/burst_baseline.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/program.h"
#include "mrpc/engine_pool.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

constexpr int kUsers = 1024;
constexpr uint64_t kRepMessages = 100'000;
constexpr int kReps = 5;

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

struct SweepRow {
  size_t burst = 0;
  double ns_per_msg = 0;  // best-of-kReps 1-worker executor cost
  double mrps = 0;        // 1e3 / ns_per_msg: single-core capacity
};

// Best-of-reps 1-worker executor ns/msg at one burst size (gate methodology:
// log_tab cleared between reps while the pool is drained and parked).
double MeasureBurst(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<rpc::Message>& stream, size_t burst) {
  mrpc::EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.processor = "bench-burst";
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

// 4-worker capacity (Mrps) at one burst size: sum over workers of processed
// messages per CPU-ns — the throughput with a core per worker.
double MeasureCapacity(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<rpc::Message>& stream, size_t burst, int workers,
    uint64_t messages) {
  mrpc::EnginePool::Config config;
  config.workers = workers;
  config.shard_key_field = "username";
  config.processor = "bench-burst-cap";
  config.measure_exec = true;
  config.burst_size = burst;
  mrpc::EnginePool pool(elements, {}, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (uint64_t i = 0; i < kUsers; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
  }
  if (!pool.Start().ok()) return -1;
  for (uint64_t i = 0; i < messages; ++i) {
    pool.Submit(stream[i % stream.size()]);
  }
  pool.Drain();
  pool.Stop();
  double mrps = 0;
  for (int w = 0; w < workers; ++w) {
    const double cpu = static_cast<double>(pool.worker_cpu_ns(w));
    const double done = static_cast<double>(pool.processed_by(w));
    if (cpu > 0) mrps += done / cpu * 1e3;
  }
  return mrps;
}

int Run() {
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
      "Burst-size sweep: fig5 chain, 1-worker EnginePool, best of %d x %lluk\n"
      "messages (log_tab cleared per rep). burst=1 is the scalar path.\n\n",
      kReps, static_cast<unsigned long long>(kRepMessages / 1000));

  // Warmup (also validates the pipeline end to end).
  (void)MeasureBurst(elements, stream, 1);

  std::printf("%-8s %12s %14s %10s\n", "burst", "ns/msg", "1-core Mrps",
              "vs scalar");
  std::printf("%.*s\n", 48,
              "------------------------------------------------");
  std::vector<SweepRow> rows;
  double scalar_ns = 0;
  for (size_t burst : {size_t{1}, size_t{4}, size_t{8}, size_t{16},
                       size_t{32}, size_t{64}}) {
    SweepRow r;
    r.burst = burst;
    r.ns_per_msg = MeasureBurst(elements, stream, burst);
    if (r.ns_per_msg <= 0) return 1;
    r.mrps = 1e3 / r.ns_per_msg;
    if (burst == 1) scalar_ns = r.ns_per_msg;
    std::printf("%-8zu %12.1f %14.2f %9.2fx%s\n", burst, r.ns_per_msg, r.mrps,
                scalar_ns / r.ns_per_msg,
                burst == default_burst ? "  <- default" : "");
    rows.push_back(r);
  }

  double default_ns = 0;
  for (const SweepRow& r : rows) {
    if (r.burst == default_burst) default_ns = r.ns_per_msg;
  }
  const double speedup = scalar_ns / default_ns;

  constexpr int kCapWorkers = 4;
  constexpr uint64_t kCapMessages = 400'000;
  const double cap_mrps = MeasureCapacity(elements, stream, default_burst,
                                          kCapWorkers, kCapMessages);

  std::printf(
      "\nDefault burst %zu: %.1f ns/msg, %.2fx over scalar.\n"
      "%d-worker capacity at default burst: %.2f Mrps (sum over workers of\n"
      "msgs per CPU-ns; hardware_concurrency=%u so wall clock cannot show\n"
      "the scaling on this host).\n",
      default_burst, default_ns, speedup, kCapWorkers, cap_mrps,
      std::thread::hardware_concurrency());

  std::FILE* f = std::fopen("BENCH_burst.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"chain\": \"fig5 (Logging -> ACL -> Fault)\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"rep_messages\": %llu,\n"
               "  \"reps\": %d,\n"
               "  \"default_burst\": %zu,\n"
               "  \"compiled_ns_per_msg\": %.1f,\n"
               "  \"scalar_ns_per_msg\": %.1f,\n"
               "  \"burst_speedup\": %.2f,\n"
               "  \"capacity_mrps_4w\": %.3f,\n"
               "  \"rows\": [",
               ADN_GIT_SHA, std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(kRepMessages), kReps,
               default_burst, default_ns, scalar_ns, speedup, cap_mrps);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"burst\": %zu, \"ns_per_msg\": %.1f, "
                 "\"mrps\": %.3f}",
                 i == 0 ? "" : ",", rows[i].burst, rows[i].ns_per_msg,
                 rows[i].mrps);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote BENCH_burst.json\n");
  return 0;
}

}  // namespace
}  // namespace adn

int main() { return adn::Run(); }
