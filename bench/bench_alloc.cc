// Allocations-per-message gate for the zero-allocation data plane (E15).
//
// Links adn_alloc_hooks (counting operator-new replacement, alloc_stats.h),
// so every heap allocation in the process is observable. Two phases over the
// same fig5 chain on a 1-worker EnginePool at the default burst size:
//
//  - legacy: pre-built heap messages, Submit() by lvalue (deep copy per
//    message) — the pre-arena data plane. Expected >= 3 allocs/msg (field
//    buffer + payload Bytes on the copy, plus the log INSERT row before the
//    spare-row pool warms).
//  - arena:  each message is built with Message::WithArena(pool) (field
//    buffer and TEXT/BYTES payloads bump-allocated in a leased arena) and
//    moved down the ring. With the arena pool, the table spare-row pool and
//    the interner warmed by a throwaway rep, the steady-state window should
//    allocate NOTHING: allocs_per_msg == 0 is the CI gate
//    (tools/check_perf.py --max-allocs).
//
// Methodology matches bench_burst: log_tab cleared between reps while the
// pool is drained (Clear() also stocks the spare-row pool the measured rep
// draws from), measured window = one rep of kRepMessages.
//
// Writes BENCH_alloc.json (schema in EXPERIMENTS.md).
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
#include "rpc/intern.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

constexpr int kUsers = 1024;
// Must stay under the table spare-row cap (65536) so every measured-rep
// INSERT can reuse a row recycled by the inter-rep Clear().
constexpr uint64_t kRepMessages = 50'000;

std::string User(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%04llu",
                static_cast<unsigned long long>(i % kUsers));
  return buf;
}

struct PhaseResult {
  double allocs_per_msg = 0;
  double ns_per_msg = 0;
};

struct Harness {
  std::unique_ptr<mrpc::EnginePool> pool;

  explicit Harness(
      const std::vector<std::shared_ptr<const ir::ElementIr>>& elements) {
    mrpc::EnginePool::Config config;
    config.workers = 1;
    config.shard_key_field = "username";
    config.processor = "bench-alloc";
    config.measure_exec = true;
    pool = std::make_unique<mrpc::EnginePool>(elements, std::vector<int>{},
                                              config);
    rpc::Table* acl = pool->FindTemplateInstance("Acl")->FindTable("ac_tab");
    for (uint64_t i = 0; i < kUsers; ++i) {
      (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
    }
  }

  bool Start() { return pool->Start().ok(); }
  void ClearLog() {
    pool->WorkerInstance(0, 0).FindTable("log_tab")->Clear();
  }
};

// One rep: submit kRepMessages via `submit(i)`, drain, return stats over the
// window. The alloc counter is process-global, so the window captures both
// the producer side (message construction + ring push) and the worker side
// (chain execution + table writes).
template <typename SubmitFn>
PhaseResult MeasureRep(Harness& h, SubmitFn&& submit) {
  const int64_t exec0 = h.pool->worker_exec_ns(0);
  const uint64_t done0 = h.pool->processed_by(0);
  const uint64_t allocs0 = common::alloc_stats::TotalAllocs();
  for (uint64_t i = 0; i < kRepMessages; ++i) submit(i);
  h.pool->Drain();
  const uint64_t allocs1 = common::alloc_stats::TotalAllocs();
  PhaseResult r;
  r.allocs_per_msg = static_cast<double>(allocs1 - allocs0) /
                     static_cast<double>(kRepMessages);
  r.ns_per_msg =
      static_cast<double>(h.pool->worker_exec_ns(0) - exec0) /
      static_cast<double>(h.pool->processed_by(0) - done0);
  return r;
}

int Run() {
  if (!common::alloc_stats::Counting()) {
    std::fprintf(stderr,
                 "bench_alloc: alloc hooks not linked — counts would read 0 "
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

  // --- Phase 1: legacy heap messages, copy per Submit ----------------------
  std::vector<rpc::Message> stream;
  stream.reserve(256);
  for (uint64_t i = 0; i < 256; ++i) {
    Bytes payload(64, static_cast<uint8_t>(i));
    std::vector<rpc::Field> fields = {
        {"username", rpc::Value(User(i * 2654435761ULL))},
        {"payload", rpc::Value(std::move(payload))}};
    stream.push_back(
        rpc::Message::MakeRequest(i + 1, "Obj.Put", std::move(fields)));
  }

  PhaseResult legacy;
  {
    Harness h(elements);
    if (!h.Start()) return 1;
    auto submit = [&](uint64_t i) {
      h.pool->Submit(stream[i % stream.size()]);  // lvalue: deep copy
    };
    (void)MeasureRep(h, submit);  // warm: spares, ring, interner, counters
    h.ClearLog();
    legacy = MeasureRep(h, submit);
    h.pool->Stop();
  }

  // --- Phase 2: arena-backed messages, moved down the ring -----------------
  const rpc::FieldId username_fid = rpc::InternFieldName("username");
  const rpc::FieldId payload_fid = rpc::InternFieldName("payload");
  // Small slabs: a fig5 message needs ~300B (field buffer + 64B payload +
  // username), and the ring keeps ~1k messages in flight — 64KB default
  // slabs would cycle ~67MB of cold cache through the data plane.
  common::ArenaPool arena_pool(1024);
  PhaseResult arena;
  {
    Harness h(elements);
    if (!h.Start()) return 1;
    uint8_t payload[64];
    auto submit = [&](uint64_t i) {
      rpc::Message m = rpc::Message::WithArena(arena_pool);
      m.set_id(i + 1);
      m.set_method("Obj.Put");
      std::memset(payload, static_cast<uint8_t>(i), sizeof payload);
      m.SetText(username_fid, User(i * 2654435761ULL));
      m.SetBytes(payload_fid, payload);
      h.pool->Submit(std::move(m));
    };
    (void)MeasureRep(h, submit);  // warm: arena pool reaches steady size
    h.ClearLog();
    arena = MeasureRep(h, submit);
    h.pool->Stop();
  }

  std::printf(
      "Allocations per message, fig5 chain, 1-worker EnginePool "
      "(window = %lluk msgs):\n\n",
      static_cast<unsigned long long>(kRepMessages / 1000));
  std::printf("%-28s %14s %12s\n", "phase", "allocs/msg", "ns/msg");
  std::printf("%.*s\n", 56,
              "--------------------------------------------------------");
  std::printf("%-28s %14.4f %12.1f\n", "legacy (copy per Submit)",
              legacy.allocs_per_msg, legacy.ns_per_msg);
  std::printf("%-28s %14.4f %12.1f\n", "arena (zero-alloc path)",
              arena.allocs_per_msg, arena.ns_per_msg);
  std::printf(
      "\nArena pool: %zu arenas created, %zu leases served from the free "
      "list.\n",
      arena_pool.created(), arena_pool.reused());

  std::FILE* f = std::fopen("BENCH_alloc.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"chain\": \"fig5 (Logging -> ACL -> Fault)\",\n"
               "  \"rep_messages\": %llu,\n"
               "  \"legacy_allocs_per_msg\": %.4f,\n"
               "  \"legacy_ns_per_msg\": %.1f,\n"
               "  \"allocs_per_msg\": %.4f,\n"
               "  \"ns_per_msg\": %.1f,\n"
               "  \"arenas_created\": %zu,\n"
               "  \"arenas_reused\": %zu\n"
               "}\n",
               ADN_GIT_SHA, static_cast<unsigned long long>(kRepMessages),
               legacy.allocs_per_msg, legacy.ns_per_msg, arena.allocs_per_msg,
               arena.ns_per_msg, arena_pool.created(), arena_pool.reused());
  std::fclose(f);
  std::printf("\nWrote BENCH_alloc.json\n");
  return 0;
}

}  // namespace
}  // namespace adn

int main() { return adn::Run(); }
