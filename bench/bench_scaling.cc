// E7 — scaling without disruption (paper §5.2): the controller's feedback
// loop widens/narrows the engine pool as offered load ramps, and state
// migration (split/merge of the stateful LB's tables) is lossless with a
// bounded pause.
//
// Part 1: throughput steps — run the fig2 chain at increasing engine widths
// chosen by AdnController::RecommendEngineWidth from measured utilization.
// Part 2: migration audit — split/merge a populated LB + quota element and
// report state bytes, pause time, and hash equality (zero lost rows).
// Part 3 (`--threads`): real-thread scaling of the EnginePool — N worker
// threads, shard-key routing, per-worker table shards — writing
// BENCH_threads.json (schema in EXPERIMENTS.md). On a single-core host wall
// clock cannot show thread scaling, so the pool reports *capacity*: each
// worker's CLOCK_THREAD_CPUTIME_ID cost per message (workers park when idle,
// so CPU time ~= busy time), summed as the throughput the pool would sustain
// with one core per worker.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/lower.h"
#include "controller/migration.h"
#include "core/network.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/engine_pool.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

std::vector<std::pair<std::string, std::vector<rpc::Row>>> Seeds() {
  std::vector<rpc::Row> rows;
  for (const char* user : {"alice", "bob", "carol", "dave"}) {
    rows.push_back({rpc::Value(std::string(user)), rpc::Value("W")});
  }
  return {{"ac_tab", std::move(rows)}};
}

struct Phase {
  int offered_concurrency;
  int width;
  double rate_krps;
  double utilization_proxy;  // rate achieved / rate capacity estimate
};

// --- Part 3: real-thread EnginePool scaling (`--threads`) --------------------

constexpr int kThreadUsers = 1024;  // spread shard-key routing across workers

std::string ThreadUser(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%04llu",
                static_cast<unsigned long long>(i % kThreadUsers));
  return buf;
}

std::vector<rpc::Message> ThreadStream(size_t n) {
  std::vector<rpc::Message> stream;
  stream.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Bytes payload(64, static_cast<uint8_t>(i));
    std::vector<rpc::Field> fields = {
        {"username", rpc::Value(ThreadUser(i * 2654435761ULL))},
        {"payload", rpc::Value(std::move(payload))}};
    stream.push_back(
        rpc::Message::MakeRequest(i + 1, "Obj.Put", std::move(fields)));
  }
  return stream;
}

struct PoolRunResult {
  int workers = 0;
  double wall_ns_per_msg = 0;
  double cpu_ns_per_msg = 0;     // total worker CPU / messages
  double exec_ns_per_msg = 0;    // chain executor only (no ring transport)
  double capacity_mrps = 0;      // sum_w processed_w / cpu_ns_w, in Mmsg/s
  std::vector<double> per_worker_cpu_ns_per_msg;
  uint64_t processed = 0;
  uint64_t dropped = 0;
};

PoolRunResult RunPool(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<rpc::Message>& stream, int workers, uint64_t messages) {
  mrpc::EnginePool::Config config;
  config.workers = workers;
  config.shard_key_field = "username";
  config.processor = "bench-threads";
  config.measure_exec = true;
  mrpc::EnginePool pool(elements, {}, config);
  if (ir::ElementInstance* acl = pool.FindTemplateInstance("Acl")) {
    rpc::Table* tab = acl->FindTable("ac_tab");
    for (uint64_t i = 0; i < kThreadUsers; ++i) {
      (void)tab->Insert({rpc::Value(ThreadUser(i)), rpc::Value("W")});
    }
  }
  if (!pool.Start().ok()) return {};

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < messages; ++i) {
    pool.Submit(stream[i % stream.size()]);
  }
  pool.Drain();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
  pool.Stop();  // finalizes per-worker CPU counters

  PoolRunResult r;
  r.workers = workers;
  r.processed = pool.processed();
  r.dropped = pool.dropped();
  r.wall_ns_per_msg = wall_ns / static_cast<double>(messages);
  double total_cpu = 0;
  double total_exec = 0;
  for (int w = 0; w < workers; ++w) {
    const double cpu = static_cast<double>(pool.worker_cpu_ns(w));
    const double done = static_cast<double>(pool.processed_by(w));
    total_cpu += cpu;
    total_exec += static_cast<double>(pool.worker_exec_ns(w));
    r.per_worker_cpu_ns_per_msg.push_back(done > 0 ? cpu / done : 0.0);
    if (cpu > 0) r.capacity_mrps += done / cpu * 1e3;  // msgs/ns -> Mmsg/s
  }
  r.cpu_ns_per_msg = total_cpu / static_cast<double>(messages);
  r.exec_ns_per_msg = total_exec / static_cast<double>(messages);
  return r;
}

int RunThreadsBench() {
  std::printf(
      "Part 3: EnginePool thread scaling (fig5 chain, %d seeded users,\n"
      "shard-key routing on username; hardware_concurrency=%u).\n\n",
      kThreadUsers, std::thread::hardware_concurrency());

  auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) return 1;
  std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
      lowered->FindElement("Logging"), lowered->FindElement("Acl"),
      lowered->FindElement("Fault")};

  constexpr uint64_t kMessages = 400'000;
  // 256 distinct messages, cycled — the same stream shape the exec-tier
  // baseline (bench_breakdown) uses, so the gated number below compares
  // apples to apples.
  const std::vector<rpc::Message> stream = ThreadStream(256);
  // Warmup run (also validates the pipeline end to end).
  (void)RunPool(elements, stream, 1, 50'000);

  std::printf("%-8s %13s %12s %12s %15s %s\n", "workers", "wall ns/msg",
              "cpu ns/msg", "exec ns/msg", "capacity(Mrps)",
              "per-worker cpu ns/msg");
  std::printf("%.*s\n", 88,
              "----------------------------------------------------------------------------------------");
  std::vector<PoolRunResult> rows;
  for (int workers : {1, 2, 4}) {
    PoolRunResult r = RunPool(elements, stream, workers, kMessages);
    std::string per_worker;
    for (double v : r.per_worker_cpu_ns_per_msg) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.0f", per_worker.empty() ? "" : " ",
                    v);
      per_worker += buf;
    }
    std::printf("%-8d %13.1f %12.1f %12.1f %15.2f %s\n", workers,
                r.wall_ns_per_msg, r.cpu_ns_per_msg, r.exec_ns_per_msg,
                r.capacity_mrps, per_worker.c_str());
    rows.push_back(std::move(r));
  }
  // Gate measurement: the 1-worker compiled-chain cost, measured the way
  // the baseline (bench_breakdown) measures it — reps of 100k messages with
  // log_tab cleared between reps (the unbounded log table otherwise
  // dominates with vector growth + cache misses as it grows), best rep
  // wins. Clearing the worker's table between reps is safe: the pool is
  // drained and the worker parked, and the next Submit's ring handoff
  // orders the clear before the worker touches the table again.
  double compiled_ns_per_msg = 1e18;
  {
    mrpc::EnginePool::Config config;
    config.workers = 1;
    config.shard_key_field = "username";
    config.processor = "bench-threads-gate";
    config.measure_exec = true;
    mrpc::EnginePool pool(elements, {}, config);
    rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
    for (uint64_t i = 0; i < kThreadUsers; ++i) {
      (void)acl->Insert({rpc::Value(ThreadUser(i)), rpc::Value("W")});
    }
    if (!pool.Start().ok()) return 1;
    constexpr uint64_t kRepMessages = 100'000;
    int64_t prev_exec = 0;
    uint64_t prev_done = 0;
    for (int rep = 0; rep < 5; ++rep) {
      pool.WorkerInstance(0, 0).FindTable("log_tab")->Clear();
      for (uint64_t i = 0; i < kRepMessages; ++i) {
        pool.Submit(stream[i % stream.size()]);
      }
      pool.Drain();
      const int64_t exec = pool.worker_exec_ns(0);
      const uint64_t done = pool.processed_by(0);
      const double ns = static_cast<double>(exec - prev_exec) /
                        static_cast<double>(done - prev_done);
      compiled_ns_per_msg = std::min(compiled_ns_per_msg, ns);
      prev_exec = exec;
      prev_done = done;
    }
    pool.Stop();
  }
  std::printf(
      "\n1-worker compiled-chain cost (best of 5 x 100k, log cleared per rep,"
      "\nbaseline methodology): %.1f ns/msg\n",
      compiled_ns_per_msg);

  const double speedup_4w = rows.back().capacity_mrps / rows[0].capacity_mrps;
  std::printf(
      "\nCapacity speedup at 4 workers: %.2fx (capacity = sum over workers of\n"
      "msgs per CPU-ns — the throughput the pool sustains with a core per\n"
      "worker; on this %u-CPU host wall clock cannot show the scaling).\n",
      speedup_4w, std::thread::hardware_concurrency());

  // BENCH_threads.json — schema documented in EXPERIMENTS.md.
  // `compiled_ns_per_msg` is the 1-worker chain-executor cost (transport
  // excluded — the same quantity bench_breakdown reports) so
  // tools/check_perf.py gates it against bench/baselines/exec_baseline.json.
  std::FILE* f = std::fopen("BENCH_threads.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"chain\": \"fig5 (Logging -> ACL -> Fault)\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"messages\": %llu,\n"
               "  \"compiled_ns_per_msg\": %.1f,\n"
               "  \"speedup_4w\": %.2f,\n"
               "  \"rows\": [",
               ADN_GIT_SHA, std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(kMessages),
               compiled_ns_per_msg, speedup_4w);
  for (size_t i = 0; i < rows.size(); ++i) {
    const PoolRunResult& r = rows[i];
    std::fprintf(f,
                 "%s\n    {\"workers\": %d, \"wall_ns_per_msg\": %.1f, "
                 "\"cpu_ns_per_msg\": %.1f, \"exec_ns_per_msg\": %.1f, "
                 "\"capacity_mrps\": %.3f, "
                 "\"processed\": %llu, \"dropped\": %llu, "
                 "\"per_worker_cpu_ns_per_msg\": [",
                 i == 0 ? "" : ",", r.workers, r.wall_ns_per_msg,
                 r.cpu_ns_per_msg, r.exec_ns_per_msg, r.capacity_mrps,
                 static_cast<unsigned long long>(r.processed),
                 static_cast<unsigned long long>(r.dropped));
    for (size_t w = 0; w < r.per_worker_cpu_ns_per_msg.size(); ++w) {
      std::fprintf(f, "%s%.1f", w == 0 ? "" : ", ",
                   r.per_worker_cpu_ns_per_msg[w]);
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote BENCH_threads.json\n");
  return 0;
}

}  // namespace
}  // namespace adn

int main(int argc, char** argv) {
  using namespace adn;
  if (argc > 1 && std::strcmp(argv[1], "--threads") == 0) {
    return RunThreadsBench();
  }
  std::printf(
      "Scaling without disruption (E7).\n\n"
      "Part 1: controller feedback loop widens the engine pool as load "
      "ramps.\n\n");

  core::NetworkOptions options;
  options.state_seeds = Seeds();
  auto network = core::Network::Create(elements::Fig2ProgramSource(), options);
  if (!network.ok()) {
    std::fprintf(stderr, "deploy failed\n");
    return 1;
  }
  controller::ClusterState scratch;
  controller::AdnController advisor(&scratch, {});

  std::printf("%-8s %-14s %-8s %12s %12s %s\n", "phase", "offered(conc)",
              "width", "rate(krps)", "util", "decision");
  std::printf("%.*s\n", 75,
              "---------------------------------------------------------------------------");

  int width = 1;
  const int kOffered[] = {8, 32, 128, 256, 256, 4, 2};
  for (size_t phase = 0; phase < std::size(kOffered); ++phase) {
    core::WorkloadOptions workload;
    workload.concurrency = kOffered[phase];
    workload.measured_requests = 10'000;
    workload.warmup_requests = 1'000;
    workload.make_request = core::MakeDefaultRequestFactory(1024);
    workload.client_engine_width = width;
    workload.server_engine_width = width;
    auto run = (*network)->RunWorkload("fig2", workload);
    if (!run.ok()) {
      std::fprintf(stderr, "phase %zu failed\n", phase);
      return 1;
    }
    // The feedback signal the paper's controller consumes: engine
    // utilization reported by the data plane.
    double utilization = std::max(run->client_engine_utilization,
                                  run->server_engine_utilization);
    int next = advisor.RecommendEngineWidth(utilization, width);
    std::printf("%-8zu %-14d %-8d %12.1f %11.0f%% %s\n", phase,
                kOffered[phase], width, run->stats.throughput_krps,
                utilization * 100.0,
                next > width   ? "scale OUT"
                : next < width ? "scale IN"
                               : "steady");
    width = next;
  }

  std::printf(
      "\nPart 2: state migration audit for the stateful LB (endpoints "
      "table).\n\n");
  auto parsed = dsl::ParseProgram(std::string(elements::EndpointsTableSql()) +
                                  std::string(elements::HashLbSql()));
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) return 1;

  std::printf("%-12s %-10s %14s %12s %10s\n", "rows", "shards",
              "state bytes", "pause (us)", "lossless");
  std::printf("%.*s\n", 64,
              "----------------------------------------------------------------");
  for (int rows : {16, 256, 4096, 65536}) {
    for (size_t shards : {2u, 4u}) {
      // The move empties the source, so each run seeds its own.
      mrpc::GeneratedStage source(lowered->elements[0], 1);
      for (int i = 0; i < rows; ++i) {
        (void)source.instance().FindTable("endpoints")->Insert(
            {rpc::Value(i), rpc::Value(100 + i % 7)});
      }
      const uint64_t seeded_hash = source.instance().StateContentHash();
      auto out = controller::ScaleOutStage(source, shards, 50);
      if (!out.ok()) return 1;
      // Move back and verify.
      std::vector<mrpc::GeneratedStage*> instances;
      for (const auto& i : out->instances) instances.push_back(i.get());
      auto merged = controller::ScaleInStages(instances, 99);
      if (!merged.ok()) return 1;
      bool lossless =
          out->report.lossless() && merged->report.lossless() &&
          merged->instance->instance().StateContentHash() == seeded_hash;
      std::printf("%-12d %-10zu %14zu %12.1f %10s\n", rows, shards,
                  out->report.state_bytes,
                  static_cast<double>(out->report.pause_ns) / 1000.0,
                  lossless ? "yes" : "NO!");
    }
  }
  std::printf(
      "\nExpected shape: pause grows linearly with state size (50 us floor),"
      "\nand every move out and back round-trips the exact table contents.\n");
  return 0;
}
