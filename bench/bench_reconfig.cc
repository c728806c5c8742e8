// E16: reconfiguration blackout. How long does the data plane stop serving
// a key while its shard moves between EnginePool workers?
//
// Two cutover implementations, measured on the same host in the same run
// (so their ratio is immune to runner speed):
//
//  - live      BeginSlotMigration/PumpMigration (docs/RECONFIG.md): the
//              producer holds the moving slot's messages while the source
//              finishes the slot's earlier ones and hands the slot's table
//              shards out; the route then flips and the held messages
//              follow the shards to the destination. Only that slot blacks
//              out. The pool measures this window itself
//              (LiveMigrationStats::blackout_ns).
//  - pause     the classic drain-the-world protocol the live path replaces:
//              stop submitting, Drain() every ring, then copy the FULL
//              state of every element (snapshot + restore; re-sharding is
//              a copy plus bookkeeping). Blackout = drain + copy, for
//              every key, measured wall-clock.
//
// A third section times DSL hot-reload: SwapProgram under load, blackout =
// call to SwapComplete() (the window in which some worker may still run old
// code; messages themselves keep flowing — the swap never drops).
//
// Each worker-side control op is timed too (p50/p99 per op): detach and
// adopt of every live migration from LiveMigrationStats::op_ns, exact; the
// swap
// op from the adn_reconfig_op_ns histogram (telemetry on for the swap
// section only), so its quantiles are bucket-interpolated.
//
// Chain: Logging -> Acl -> Quota (append log, read-only keyed table, keyed
// table mutated per message — the three state shapes the protocol carries).
// Writes BENCH_reconfig.json; tools/check_perf.py gates
// `blackout_improvement` (pause p99 / live p99) >= 10x and live p99 against
// bench/baselines/reconfig_baseline.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/exec.h"
#include "ir/program.h"
#include "mrpc/engine_pool.h"
#include "obs/metrics.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

constexpr int kUsers = 40'000;       // quota + acl rows: the migrated state
constexpr int kRounds = 15;          // blackout samples per protocol
constexpr int kSwaps = 8;            // hot-reload samples
constexpr uint64_t kWarmup = 20'000;

using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point from) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              from)
      .count();
}

std::string User(int i) { return "user" + std::to_string(i); }

rpc::Message MakeReq(uint64_t id, int user) {
  Bytes payload(64, 0xAB);
  return rpc::Message::MakeRequest(
      id, "Obj.Put",
      {{"username", rpc::Value(User(user))},
       {"payload", rpc::Value(std::move(payload))}});
}

// Logging + Acl(+variant) + Quota over the shared state tables.
std::string ChainSource(const std::string& acl_body) {
  return std::string(elements::AclTableSql()) +
         std::string(elements::LogTableSql()) +
         std::string(elements::QuotaTableSql()) +
         std::string(elements::LoggingSql()) + acl_body +
         std::string(elements::QuotaSql());
}

std::vector<std::shared_ptr<const ir::ElementIr>> Elements(
    const compiler::ProgramIr& lowered) {
  return {lowered.FindElement("Logging"), lowered.FindElement("Acl"),
          lowered.FindElement("Quota")};
}

double Quantile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  return static_cast<double>(samples[idx]);
}

int Run() {
  auto parsed_a = dsl::ParseProgram(ChainSource(std::string(elements::AclSql())));
  auto lowered_a = compiler::LowerProgram(*parsed_a);
  // Same schema, different code object: ON DROP message differs, so the
  // swap is always state-compatible and behaviorally identical.
  auto parsed_b = dsl::ParseProgram(ChainSource(R"(
ELEMENT Acl ON REQUEST {
  INPUT (username TEXT, payload BYTES);
  ON DROP ABORT 'permission denied (v2)';
  SELECT * FROM input JOIN ac_tab ON input.username = ac_tab.username
    WHERE ac_tab.permission = 'W';
}
)"));
  auto lowered_b = compiler::LowerProgram(*parsed_b);
  if (!lowered_a.ok() || !lowered_b.ok()) {
    std::fprintf(stderr, "lowering failed\n");
    return 1;
  }

  mrpc::EnginePool::Config config;
  config.workers = 2;
  config.shard_key_field = "username";
  config.processor = "bench-reconfig";
  // Small rings bound the control-op barrier: each migration phase waits at
  // most one ring backlog, so the blackout reflects the protocol, not queue
  // depth.
  config.ring_capacity = 256;
  mrpc::EnginePool pool(Elements(*lowered_a), {}, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  rpc::Table* quota = pool.FindTemplateInstance("Quota")->FindTable("quota");
  for (int i = 0; i < kUsers; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
    (void)quota->Insert(
        {rpc::Value(User(i)), rpc::Value(static_cast<int64_t>(1'000'000))});
  }
  if (!pool.Start().ok() || !pool.whole_chain_compiled()) {
    std::fprintf(stderr, "pool start failed (whole-chain tier required)\n");
    return 1;
  }

  uint64_t id = 0;
  // Sustained-but-sustainable load: cap the in-flight backlog so the rings
  // stay shallow, and back off with a sleep (not a yield-spin) so workers
  // get the core. A saturating producer would make every control barrier
  // (and every Drain) cost a full ring plus scheduler noise, measuring the
  // host's core count instead of the protocol.
  auto submit = [&] {
    while (id - pool.processed() > 64) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    ++id;
    pool.Submit(MakeReq(id, static_cast<int>(id % kUsers)));
  };
  auto clear_logs = [&] {  // drained-pool only; the unbounded log otherwise
    for (int w = 0; w < pool.workers(); ++w) {  // dominates the state copy
      pool.WorkerInstance(w, 0).FindTable("log_tab")->Clear();
    }
  };
  for (uint64_t i = 0; i < kWarmup; ++i) submit();
  pool.Drain();
  clear_logs();

  std::printf("Reconfiguration blackout: %d users, 2 workers, %d rounds each\n"
              "(chain Logging -> Acl -> Quota; see docs/RECONFIG.md)\n\n",
              kUsers, kRounds);

  // --- live slot migration under sustained load ---------------------------
  std::vector<int64_t> live_ns;
  using Op = mrpc::EnginePool::ReconfigOp;
  std::array<std::vector<int64_t>, mrpc::EnginePool::kReconfigOps> op_ns;
  uint64_t moved_rows = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int slot =
        (round * 7 + 1) % static_cast<int>(mrpc::EnginePool::kRouteSlots);
    const int to = (pool.WorkerOfSlot(slot) + 1) % pool.workers();
    if (!pool.BeginSlotMigration(slot, to).ok()) return 1;
    while (pool.MigrationActive()) {
      // Pump on every pass, never after a sleep: the pump is what sees an
      // op finish and flips the route, so time spent sleeping here would be
      // reported as blackout. During the hold the moving slot's messages
      // sit in the producer's hold buffer and count against the backlog,
      // which only the pump's flush can clear. Then a burst of traffic,
      // backing off (a yield, not a sleep) only while the backlog is full.
      pool.PumpMigration();
      if (id - pool.processed() > 64) {
        std::this_thread::yield();
        continue;
      }
      for (int i = 0; i < 32 && id - pool.processed() <= 64; ++i) {
        ++id;
        pool.Submit(MakeReq(id, static_cast<int>(id % kUsers)));
      }
    }
    live_ns.push_back(pool.migration_stats().blackout_ns);
    for (size_t op = 0; op < mrpc::EnginePool::kReconfigOps; ++op) {
      if (op != static_cast<size_t>(Op::kSwap)) {
        op_ns[op].push_back(pool.migration_stats().op_ns[op]);
      }
    }
    moved_rows += pool.migration_stats().moved_rows;
    for (int i = 0; i < 2'000; ++i) submit();  // steady traffic between rounds
  }
  pool.Drain();
  clear_logs();

  // --- pause-drain baseline: drain the world, copy all state --------------
  std::vector<int64_t> pause_ns;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 2'000; ++i) submit();
    const Clock::time_point t0 = Clock::now();
    pool.Drain();  // nothing serves from here...
    for (size_t e = 0; e < 3; ++e) {
      // Cost-equivalent full re-shard: snapshot every worker's state and
      // restore/merge it into a fresh instance (scratch, so the live pool's
      // state — and the live rounds above — stay untouched).
      ir::ElementInstance scratch(Elements(*lowered_a)[e], 999);
      for (int w = 0; w < pool.workers(); ++w) {
        const Bytes snapshot = pool.WorkerInstance(w, e).SnapshotState();
        if (!scratch.MergeState(snapshot).ok()) return 1;
      }
    }
    pause_ns.push_back(ElapsedNs(t0));  // ...until here
    clear_logs();
  }

  // --- DSL hot-reload: SwapProgram under load ------------------------------
  std::vector<int64_t> swap_ns;
  obs::MetricsRegistry::Default().Reset();
  obs::SetEnabled(true);
  for (int round = 0; round < kSwaps; ++round) {
    const auto& next = (round % 2 == 0) ? *lowered_b : *lowered_a;
    for (int i = 0; i < 500; ++i) submit();
    const Clock::time_point t0 = Clock::now();
    if (!pool.SwapProgram(Elements(next)).ok()) return 1;
    while (!pool.SwapComplete()) {  // traffic flows during the swap
      for (int i = 0; i < 32; ++i) submit();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    swap_ns.push_back(ElapsedNs(t0));
  }
  pool.Drain();
  obs::SetEnabled(false);
  const uint64_t processed = pool.processed();
  const uint64_t dropped = pool.dropped();
  pool.Stop();
  const obs::Histogram& swap_op = obs::MetricsRegistry::Default().GetHistogram(
      "adn_reconfig_op_ns", "processor=\"bench-reconfig\",op=\"swap\"");

  const double live_p50 = Quantile(live_ns, 0.50);
  const double live_p99 = Quantile(live_ns, 0.99);
  const double pause_p50 = Quantile(pause_ns, 0.50);
  const double pause_p99 = Quantile(pause_ns, 0.99);
  const double swap_p50 = Quantile(swap_ns, 0.50);
  const double swap_p99 = Quantile(swap_ns, 0.99);
  const double improvement = live_p99 > 0 ? pause_p99 / live_p99 : 0;

  std::printf("%-28s %12s %12s\n", "protocol", "p50 us", "p99 us");
  std::printf("%.*s\n", 54, "-----------------------------------------------------");
  std::printf("%-28s %12.1f %12.1f\n", "live slot migration",
              live_p50 / 1e3, live_p99 / 1e3);
  std::printf("%-28s %12.1f %12.1f\n", "pause-drain (full state)",
              pause_p50 / 1e3, pause_p99 / 1e3);
  std::printf("%-28s %12.1f %12.1f\n", "program hot-swap",
              swap_p50 / 1e3, swap_p99 / 1e3);
  std::printf("\n%-28s %12s %12s\n", "control op (worker)", "p50 us",
              "p99 us");
  std::printf("%.*s\n", 54, "-----------------------------------------------------");
  std::array<double, mrpc::EnginePool::kReconfigOps> op_p50{};
  std::array<double, mrpc::EnginePool::kReconfigOps> op_p99{};
  for (size_t op = 0; op < mrpc::EnginePool::kReconfigOps; ++op) {
    if (op == static_cast<size_t>(Op::kSwap)) {
      op_p50[op] = swap_op.Quantile(0.50);
      op_p99[op] = swap_op.Quantile(0.99);
    } else {
      op_p50[op] = Quantile(op_ns[op], 0.50);
      op_p99[op] = Quantile(op_ns[op], 0.99);
    }
    std::printf("%-28s %12.1f %12.1f\n",
                std::string(mrpc::EnginePool::ReconfigOpName(
                                static_cast<Op>(op)))
                    .c_str(),
                op_p50[op] / 1e3, op_p99[op] / 1e3);
  }
  std::printf("\nblackout improvement (pause p99 / live p99): %.1fx\n"
              "rows handed over across %d migrations: %llu\n"
              "processed %llu, dropped %llu\n",
              improvement, kRounds,
              static_cast<unsigned long long>(moved_rows),
              static_cast<unsigned long long>(processed),
              static_cast<unsigned long long>(dropped));

  std::string op_keys;  // "op_<name>_p50_ns"/"op_<name>_p99_ns" per op
  for (size_t op = 0; op < mrpc::EnginePool::kReconfigOps; ++op) {
    const std::string name(
        mrpc::EnginePool::ReconfigOpName(static_cast<Op>(op)));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  \"op_%s_p50_ns\": %.0f,\n  \"op_%s_p99_ns\": %.0f,\n",
                  name.c_str(), op_p50[op], name.c_str(), op_p99[op]);
    op_keys += line;
  }
  std::FILE* f = std::fopen("BENCH_reconfig.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"chain\": \"Logging -> Acl -> Quota\",\n"
               "  \"users\": %d,\n"
               "  \"workers\": 2,\n"
               "  \"rounds\": %d,\n"
               "  \"live_blackout_p50_ns\": %.0f,\n"
               "  \"live_blackout_p99_ns\": %.0f,\n"
               "  \"pause_drain_blackout_p50_ns\": %.0f,\n"
               "  \"pause_drain_blackout_p99_ns\": %.0f,\n"
               "  \"blackout_improvement\": %.2f,\n"
               "  \"swap_blackout_p50_ns\": %.0f,\n"
               "  \"swap_blackout_p99_ns\": %.0f,\n"
               "%s"
               "  \"moved_rows\": %llu,\n"
               "  \"processed\": %llu,\n"
               "  \"dropped\": %llu\n"
               "}\n",
               ADN_GIT_SHA, kUsers, kRounds, live_p50, live_p99, pause_p50,
               pause_p99, improvement, swap_p50, swap_p99, op_keys.c_str(),
               static_cast<unsigned long long>(moved_rows),
               static_cast<unsigned long long>(processed),
               static_cast<unsigned long long>(dropped));
  std::fclose(f);
  std::printf("\nwrote BENCH_reconfig.json\n");
  return dropped == 0 ? 0 : 1;
}

}  // namespace
}  // namespace adn

int main() { return adn::Run(); }
