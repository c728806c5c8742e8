// adnbench: end-to-end benchmark of the real-thread data plane.
//
//   adnbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//   adnbench --selftest
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1,
// normally the adnbench_traced binary) it prints the per-layer metrics. The
// last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "obs/event_ring.h"
#include "replay.h"

namespace perfbench {
namespace {

constexpr int kMeasuredSetups = 15;
constexpr size_t kMinReps = 3;
constexpr size_t kReplayMessages = 160'000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

template <typename F>
std::vector<double> Collect(const std::vector<RepResult>& reps, RepMode mode,
                            F f) {
  std::vector<double> out;
  for (const RepResult& r : reps) {
    if (r.mode == mode) out.push_back(f(r));
  }
  return out;
}

template <typename F>
double Sum(const std::vector<RepResult>& reps, RepMode mode, F f) {
  double total = 0;
  for (double v : Collect(reps, mode, f)) total += v;
  return total;
}

double Throughput(const RepResult& r) {
  return static_cast<double>(r.rpcs) / r.wall_s / 1e6;
}

struct RunOutput {
  bool ok = false;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::string summary;
};

// Set-up several times, each on a fresh harness; the last one serves the
// run. An unmeasured first set-up finishes process-wide lazy work (field
// and name interning).
std::unique_ptr<Harness> SetUp(const WorkloadSpec& spec, const Options& opt,
                               std::vector<SetupTimes>* times) {
  std::unique_ptr<Harness> h;
  for (int k = 0; k <= kMeasuredSetups; ++k) {
    h.reset();
    h = std::make_unique<Harness>(spec, opt);
    SetupTimes t;
    if (!h->Setup(&t)) return nullptr;
    if (k > 0) times->push_back(t);
  }
  return h;
}

void AddPerLayer(Harness& h, const std::vector<RepResult>& reps,
                 const std::vector<SetupTimes>& setups, std::vector<Metric>* m) {
  using R = const RepResult&;
  const RepMode P = RepMode::kPlain, T = RepMode::kTraced, O = RepMode::kObs;
  mrpc::EnginePool& pool = h.pool();
  auto add = [m](std::string name, double value, std::string unit) {
    m->push_back({std::move(name), value, std::move(unit)});
  };

  // rpc: message construction on the producer.
  const double t_rpcs = Sum(reps, T, [](R r) { return double(r.rpcs); });
  const double t_msgs = Sum(reps, T, [](R r) { return double(r.messages); });
  const double t_resp = Sum(reps, T, [](R r) { return double(r.responses); });
  add("rpc.build_ns", Ratio(Sum(reps, T, [](R r) { return r.build_ns; }), t_rpcs),
      "ns");
  add("rpc.response_build_ns",
      Ratio(Sum(reps, T, [](R r) { return r.response_build_ns; }), t_resp), "ns");
  add("rpc.allocs_per_msg",
      Ratio(Sum(reps, P, [](R r) { return double(r.allocs); }),
            Sum(reps, P, [](R r) { return double(r.messages); })),
      "count");

  // mrpc: route + ring handoff + workers.
  const double submit_ns =
      Ratio(Sum(reps, T, [](R r) { return r.submit_ns; }), t_msgs);
  add("mrpc.submit_ns", submit_ns, "ns");
  add("mrpc.submit_p99_ns", Median(Collect(reps, T, [](R r) { return r.submit_p99_ns; })),
      "ns");
  const double busy_s = Sum(reps, T, [](R r) { return r.producer_busy_s; });
  add("mrpc.producer_busy_frac",
      Ratio(busy_s, Sum(reps, T, [](R r) { return r.wall_s; })), "frac");
  double cpu_ns = 0, exec_ns = 0, max_done = 0;
  const double processed = static_cast<double>(pool.processed());
  for (int w = 0; w < h.workers(); ++w) {
    cpu_ns += static_cast<double>(pool.worker_cpu_ns(w));
    exec_ns += static_cast<double>(pool.worker_exec_ns(w));
    max_done = std::max(max_done, static_cast<double>(pool.processed_by(w)));
  }
  const double worker_cpu_per_msg = Ratio(cpu_ns, processed);
  const double exec_per_msg = Ratio(exec_ns, processed);
  add("mrpc.worker_cpu_ns_per_msg", worker_cpu_per_msg, "ns");
  add("mrpc.exec_share", Ratio(exec_ns, cpu_ns), "frac");
  const double plain_p50_us = Median(Collect(reps, P, [](R r) { return r.p50_us; }));
  add("mrpc.handoff_us", plain_p50_us - submit_ns / 1e3 - exec_per_msg / 1e3, "us");
  add("mrpc.ctx_switches_per_kmsg",
      Ratio(Sum(reps, P, [](R r) { return double(r.ctx_switches); }),
            Sum(reps, P, [](R r) { return double(r.rpcs); }) / 1e3),
      "count");
  add("mrpc.worker_skew", Ratio(max_done, processed / h.workers()), "ratio");

  // mrpc reconfiguration (quota_migrate).
  const auto& migs = h.migrations();
  auto mig = [&](double MigrationSample::*field) {
    std::vector<double> v;
    for (const MigrationSample& s : migs) v.push_back(s.*field);
    return Median(v);
  };
  add("mrpc.migration.count", static_cast<double>(migs.size()), "count");
  add("mrpc.migration.blackout_us", mig(&MigrationSample::blackout_us), "us");
  add("mrpc.migration.held_msgs", mig(&MigrationSample::held_msgs), "count");
  add("mrpc.migration.delta_rows", mig(&MigrationSample::delta_rows), "count");
  add("mrpc.migration.bulk_kb", mig(&MigrationSample::bulk_kb), "KiB");
  add("mrpc.migration.cycle_ms", mig(&MigrationSample::cycle_ms), "ms");
  add("mrpc.swap_us", Median(h.swap_us()), "us");

  // ir: executor inside the pool, then the one-thread replay.
  add("ir.exec_ns_per_msg", exec_per_msg, "ns");
  const ReplayResult replay = Replay(h, kReplayMessages);
  add("ir.burst_ns_per_msg", replay.burst_ns_per_msg, "ns");
  add("ir.scalar_ns_per_msg", replay.scalar_ns_per_msg, "ns");
  for (const char* element :
       {"Logging", "Acl", "Fault", "Quota", "RespCache", "HashLb", "Compress"}) {
    double ns = 0;
    for (const auto& [name, value] : replay.stage_ns) {
      if (name == element) ns = value;
    }
    add(std::string("ir.stage.") + element + "_ns", ns, "ns");
  }
  add("ir.stage.sum_ns", replay.stage_sum_ns, "ns");
  double hits = 0, misses = 0;
  if (h.spec().chain == Chain::kCached) {
    for (int w = 0; w < h.workers(); ++w) {
      hits += static_cast<double>(pool.WorkerInstance(w, 0).cache_hits());
      misses += static_cast<double>(pool.WorkerInstance(w, 0).cache_misses());
    }
  }
  add("ir.cache.hit_rate", Ratio(hits, hits + misses), "frac");
  add("ir.cache.hits", hits, "count");
  add("ir.cache.misses", misses, "count");
  add("ir.cache.hit_ns", replay.cache_hit_ns, "ns");
  add("ir.cache.miss_ns", replay.cache_miss_ns, "ns");
  add("ir.drop_frac",
      Ratio(static_cast<double>(h.tally().drops),
            static_cast<double>(h.tally().attempted)),
      "frac");

  // obs: telemetry on vs off, same pool.
  const double plain_thr = Median(Collect(reps, P, Throughput));
  add("obs.overhead_frac", 1 - Ratio(Median(Collect(reps, O, Throughput)), plain_thr),
      "frac");
  add("obs.events_dropped",
      static_cast<double>(adn::obs::EventRingRegistry::Default().TotalDropped()),
      "count");

  // Set-up spans.
  auto setup = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  add("dsl.parse_ms", setup(&SetupTimes::parse_ms), "ms");
  add("compiler.lower_ms", setup(&SetupTimes::lower_ms), "ms");
  add("compiler.chain_compile_ms", setup(&SetupTimes::chain_compile_ms), "ms");
  add("rpc.seed_ms", setup(&SetupTimes::seed_ms), "ms");
  add("mrpc.start_ms", setup(&SetupTimes::start_ms), "ms");

  // Which side bounds throughput: the producer's build + submit per RPC, or
  // the workers' CPU per RPC shared across the workers.
  const double msgs_per_rpc = Ratio(t_msgs, t_rpcs);
  const double producer_ns = Ratio(busy_s * 1e9, t_rpcs);
  const double worker_ns = worker_cpu_per_msg * msgs_per_rpc / h.workers();
  const double wall_ns = Ratio(1e3, plain_thr);
  add("bench.producer_ns_per_rpc", producer_ns, "ns");
  add("bench.worker_ns_per_rpc", worker_ns, "ns");
  add("bench.wall_ns_per_rpc", wall_ns, "ns");
  add("bench.producer_bound", producer_ns > worker_ns ? 1 : 0, "bool");
  add("bench.bottleneck_explained_frac",
      Ratio(std::max(producer_ns, worker_ns), wall_ns), "frac");
  add("bench.latency_samples", Sum(reps, P, [](R r) { return double(r.rpcs); }),
      "count");
  add("bench.gen_lag_p99_us",
      Median(Collect(reps, P, [](R r) { return r.gen_lag_p99_us; })), "us");
  add("trace.overhead_frac", 1 - Ratio(Median(Collect(reps, T, Throughput)), plain_thr),
      "frac");
}

RunOutput RunWorkload(const WorkloadSpec& spec, const Options& opt) {
  RunOutput out;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Harness> h = SetUp(spec, opt, &setups);
  if (h == nullptr) return out;

  (void)h->RunRep(RepMode::kPlain);  // warm-up: arenas, spare rows, caches
  std::vector<RepResult> reps;
  const RepMode cycle[] = {RepMode::kPlain, RepMode::kTraced, RepMode::kObs};
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  while (NowNs() - start < budget_ns || reps.size() < kMinReps) {
    const RepMode mode = opt.traced ? cycle[reps.size() % 3] : RepMode::kPlain;
    reps.push_back(h->RunRep(mode));
  }
  h->Stop();

  const CheckTally& tally = h->tally();
  out.ok = true;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.correct = tally.failed == 0 && tally.BinomialOk();
  out.notes = tally.notes;
  if (!tally.BinomialOk()) {
    out.notes.push_back("fault aborts outside the 5% binomial bound (" +
                        std::to_string(tally.faults) + " of " +
                        std::to_string(tally.fault_trials) + ")");
  }

  if (!opt.traced) {
    using R = const RepResult&;
    const RepMode P = RepMode::kPlain;
    std::vector<double> setup_s;
    for (const SetupTimes& s : setups) setup_s.push_back(s.total_s());
    out.metrics = {
        {"throughput_mrps", Median(Collect(reps, P, Throughput)), "Mrps"},
        {"latency_p50_us", Median(Collect(reps, P, [](R r) { return r.p50_us; })),
         "us"},
        {"latency_p99_us", Median(Collect(reps, P, [](R r) { return r.p99_us; })),
         "us"},
        {"cpu_ns_per_msg",
         Median(Collect(reps, P,
                        [](R r) { return r.cpu_s * 1e9 / double(r.rpcs); })),
         "ns"},
        {"ok_frac",
         1 - Ratio(static_cast<double>(tally.failed),
                   static_cast<double>(tally.attempted)),
         "frac"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    out.summary = "medians over " + std::to_string(reps.size()) +
                  " reps; latency from " +
                  std::to_string(reps.size() * spec.rep_rpcs) + " samples";
  } else {
    AddPerLayer(*h, reps, setups, &out.metrics);
  }
  return out;
}

void PrintResult(const WorkloadSpec& spec, const Options& opt,
                 const RunOutput& out) {
  std::printf("workload %.*s  seed %llu  %s run\n",
              static_cast<int>(spec.name.size()), spec.name.data(),
              static_cast<unsigned long long>(opt.seed),
              opt.traced ? "traced" : "untraced");
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!out.summary.empty()) std::printf("  %s\n", out.summary.c_str());
  std::printf("  attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct ? "yes" : "no");
  for (const std::string& note : out.notes) {
    std::printf("  check failed: %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

// Each output check must fire on the fault made for it, and stay quiet on
// the unmodified workloads.
int SelfTest() {
  struct Case {
    const char* workload;
    Mutation mutation;
    int workers;
    bool expect_failure;
    const char* what;
  };
  const Case cases[] = {
      {"fig5_closed", Mutation::kNone, 0, false, "fig5 closed loop is clean"},
      {"fig5_open", Mutation::kNone, 0, false, "fig5 open loop is clean"},
      {"cache_zipf", Mutation::kNone, 0, false, "cached chain is clean"},
      {"quota_migrate", Mutation::kNone, 0, false, "quota + migration is clean"},
      {"cache_zipf", Mutation::kNone, 2, true,
       "cached chain at 2 workers: HashLb aborts"},
      {"fig5_closed", Mutation::kGrantAbsentUsers, 0, true,
       "absent users must be denied"},
      {"fig5_closed", Mutation::kFaultHalf, 0, true, "5% fault binomial bound"},
      {"fig5_closed", Mutation::kLoseCompletion, 0, true,
       "every RPC completes"},
      {"fig5_closed", Mutation::kDoubleCompletion, 0, true,
       "no RPC completes twice"},
      {"fig5_closed", Mutation::kExtraLogRow, 0, true,
       "log_tab rows equal Logging passes"},
      {"cache_zipf", Mutation::kWrongReply, 0, true,
       "cache replies carry their own object"},
      {"quota_migrate", Mutation::kQuotaLeak, 0, true,
       "quota decrement equals admitted requests"},
  };
  int bad = 0;
  for (const Case& c : cases) {
    Options opt;
    opt.seed = 7;
    opt.mutation = c.mutation;
    opt.workers_override = c.workers;
    Harness h(*FindWorkload(c.workload), opt);
    SetupTimes times;
    bool failed = true;
    if (h.Setup(&times)) {
      for (int rep = 0; rep < 2; ++rep) (void)h.RunRep(RepMode::kPlain);
      h.Stop();
      failed = h.tally().failed > 0 || !h.tally().BinomialOk();
    }
    const bool pass = failed == c.expect_failure;
    bad += pass ? 0 : 1;
    std::printf("%s  %-14s %s (failed %llu of %llu)\n", pass ? "ok  " : "FAIL",
                c.workload, c.what,
                static_cast<unsigned long long>(h.tally().failed),
                static_cast<unsigned long long>(h.tally().attempted));
  }
  std::printf("selftest: %s\n", bad == 0 ? "all checks fire" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: adnbench --workload <name> --seed <n> --seconds <s> "
               "[--trace 0|1]\n       adnbench --selftest\nworkloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  const WorkloadSpec* spec = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      spec = FindWorkload(value);
      if (spec == nullptr) return Usage();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.traced = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (spec == nullptr || !(opt.seconds > 0)) return Usage();
  const RunOutput out = RunWorkload(*spec, opt);
  if (!out.ok) {
    std::fprintf(stderr, "adnbench: set-up failed\n");
    return 1;
  }
  PrintResult(*spec, opt, out);
  return 0;
}
