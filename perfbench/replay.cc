#include "replay.h"

#include <array>
#include <functional>
#include <memory>

#include "compiler/chain_compile.h"
#include "mrpc/engine.h"
#include "rpc/table.h"

namespace perfbench {

namespace {

constexpr size_t kBurst = 32;             // EnginePool's default burst_size
constexpr size_t kMaxLogRows = 1 << 16;   // log_tab cleared beyond this
constexpr size_t kBurstsPerBlock = 256;   // scalar/burst interleave unit

// Bursts of the workload's own requests (built untimed), and the server
// responses that answer the cache misses among them.
class Feed {
 public:
  explicit Feed(const Harness& h) : h_(h), keys_(h) {}

  void Requests() {
    for (size_t i = 0; i < kBurst; ++i) {
      key[i] = keys_.Next();
      msgs[i] = h_.BuildRequest(arena_, next_id_++, key[i]);
    }
  }
  // Lanes [0, n) become the responses to the requests they held.
  void Responses(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      msgs[i] = h_.BuildResponse(arena_, msgs[i].id(), key[i]);
    }
  }
  // Keep the lanes whose result passed, in order; returns how many.
  size_t KeepPassed(size_t n, const ir::ProcessResult* results) {
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (results[i].outcome != ir::ProcessOutcome::kPass) continue;
      if (kept != i) {
        std::swap(msgs[kept], msgs[i]);
        std::swap(key[kept], key[i]);
      }
      ++kept;
    }
    return kept;
  }

  std::array<rpc::Message, kBurst> msgs;
  std::array<uint32_t, kBurst> key{};

 private:
  const Harness& h_;
  Harness::KeyStream keys_;
  common::ArenaPool arena_{4096};
  uint64_t next_id_ = 1;
};

void ClearLogIfLarge(ir::ElementInstance& instance) {
  rpc::Table* log = instance.FindTable("log_tab");
  if (log != nullptr && log->RowCount() > kMaxLogRows) log->Clear();
}

std::vector<std::unique_ptr<mrpc::GeneratedStage>> FreshStages(
    const Harness& h) {
  std::vector<std::unique_ptr<mrpc::GeneratedStage>> stages;
  uint64_t seed = h.options().seed;
  for (const auto& element : h.elements()) {
    auto stage = std::make_unique<mrpc::GeneratedStage>(element, ++seed);
    h.SeedInstance(stage->instance());
    stages.push_back(std::move(stage));
  }
  return stages;
}

// Whole chain, scalar vs burst, interleaved in blocks on the same state.
// Compiled chains run one ChainExecutor (the pool's whole-chain tier); the
// cached chain, which does not compile whole, runs the per-element
// EngineChain the pool falls back to.
void MeasureWholeChain(const Harness& h, size_t messages, ReplayResult* out) {
  std::vector<std::unique_ptr<ir::ElementInstance>> instances;
  std::unique_ptr<ir::ChainExecutor> executor;
  mrpc::EngineChain engine_chain;
  std::vector<ir::ElementInstance*> logs;
  auto program = compiler::CompileChainProgram(h.elements(), {});
  if (program.ok()) {
    std::vector<ir::ElementInstance*> raw;
    uint64_t seed = h.options().seed;
    for (const auto& element : h.elements()) {
      instances.push_back(std::make_unique<ir::ElementInstance>(element, ++seed));
      h.SeedInstance(*instances.back());
      raw.push_back(instances.back().get());
    }
    logs = raw;
    executor = std::make_unique<ir::ChainExecutor>(std::move(program).value(),
                                                   std::move(raw));
  } else {
    for (auto& stage : FreshStages(h)) {
      logs.push_back(&stage->instance());
      engine_chain.AddStage(std::move(stage));
    }
  }
  auto run = [&](rpc::Message* m, size_t n, ir::ProcessResult* r, bool burst) {
    if (executor != nullptr) {
      if (burst) {
        executor->ProcessBurst(m, n, 0, r);
      } else {
        for (size_t i = 0; i < n; ++i) r[i] = executor->Process(m[i], 0);
      }
    } else if (burst) {
      engine_chain.ProcessBurst(m, n, 0, r);
    } else {
      for (size_t i = 0; i < n; ++i) r[i] = engine_chain.Process(m[i], 0);
    }
  };

  const bool cached = h.spec().chain == Chain::kCached;
  Feed feed(h);
  std::array<ir::ProcessResult, kBurst> results;
  double ns[2] = {0, 0};
  double msgs[2] = {0, 0};
  const size_t bursts = messages / kBurst;
  const size_t warm = bursts / 5;
  for (size_t b = 0; b < warm + bursts; ++b) {
    const bool burst = (b / kBurstsPerBlock) % 2 == 1;
    feed.Requests();
    int64_t t0 = NowNs();
    run(feed.msgs.data(), kBurst, results.data(), burst);
    int64_t spent = NowNs() - t0;
    size_t count = kBurst;
    if (cached) {
      const size_t misses = feed.KeepPassed(kBurst, results.data());
      feed.Responses(misses);
      t0 = NowNs();
      run(feed.msgs.data(), misses, results.data(), burst);
      spent += NowNs() - t0;
      count += misses;
    }
    if (b >= warm) {
      ns[burst] += static_cast<double>(spent);
      msgs[burst] += static_cast<double>(count);
    }
    for (ir::ElementInstance* inst : logs) ClearLogIfLarge(*inst);
  }
  out->scalar_ns_per_msg = msgs[0] > 0 ? ns[0] / msgs[0] : 0;
  out->burst_ns_per_msg = msgs[1] > 0 ? ns[1] / msgs[1] : 0;
}

// Stage-major replay: each element's stage runs EngineStage::ProcessBurst
// over the burst's live lanes and is timed on its own. RespCache is timed
// per message so its time splits into hits and misses.
void MeasureStages(const Harness& h, size_t messages, ReplayResult* out) {
  auto stages = FreshStages(h);
  std::vector<double> stage_ns(stages.size(), 0);
  double hit_ns = 0, miss_ns = 0, hits = 0, misses = 0, total_msgs = 0;
  Feed feed(h);
  std::array<ir::ProcessResult, kBurst> results;
  bool measuring = false;

  auto run_stages = [&](size_t live, rpc::MessageKind kind) {
    for (size_t s = 0; s < stages.size() && live > 0; ++s) {
      mrpc::GeneratedStage& stage = *stages[s];
      if (!stage.AppliesTo(kind)) continue;
      double spent = 0;
      if (stage.instance().code().IsCache()) {
        for (size_t i = 0; i < live; ++i) {
          const int64_t t0 = NowNs();
          results[i] = stage.Process(feed.msgs[i], 0);
          const double dt = static_cast<double>(NowNs() - t0);
          spent += dt;
          if (!measuring) continue;
          if (kind == rpc::MessageKind::kRequest &&
              results[i].outcome == ir::ProcessOutcome::kReply) {
            hit_ns += dt;
            hits += 1;
          } else {
            miss_ns += dt;
            if (kind == rpc::MessageKind::kRequest) misses += 1;
          }
        }
      } else {
        const int64_t t0 = NowNs();
        stage.ProcessBurst(feed.msgs.data(), live, 0, results.data());
        spent = static_cast<double>(NowNs() - t0);
      }
      if (measuring) stage_ns[s] += spent;
      live = feed.KeepPassed(live, results.data());
    }
    return live;
  };

  const bool cached = h.spec().chain == Chain::kCached;
  const size_t bursts = messages / kBurst;
  const size_t warm = bursts / 5;
  for (size_t b = 0; b < warm + bursts; ++b) {
    measuring = b >= warm;
    feed.Requests();
    size_t count = kBurst;
    const size_t passed = run_stages(kBurst, rpc::MessageKind::kRequest);
    if (cached) {
      feed.Responses(passed);
      run_stages(passed, rpc::MessageKind::kResponse);
      count += passed;
    }
    if (measuring) total_msgs += static_cast<double>(count);
    for (auto& stage : stages) ClearLogIfLarge(stage->instance());
  }
  out->stage_sum_ns = 0;
  for (size_t s = 0; s < stages.size(); ++s) {
    const double per_msg = total_msgs > 0 ? stage_ns[s] / total_msgs : 0;
    out->stage_ns.emplace_back(std::string(stages[s]->name()), per_msg);
    out->stage_sum_ns += per_msg;
  }
  out->cache_hit_ns = hits > 0 ? hit_ns / hits : 0;
  out->cache_miss_ns = misses > 0 ? miss_ns / misses : 0;
}

}  // namespace

ReplayResult Replay(const Harness& harness, size_t messages) {
  ReplayResult out;
  MeasureWholeChain(harness, messages, &out);
  MeasureStages(harness, messages, &out);
  return out;
}

}  // namespace perfbench
