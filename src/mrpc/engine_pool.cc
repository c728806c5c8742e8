#include "mrpc/engine_pool.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>

#include "compiler/chain_compile.h"
#include "ir/state_delta.h"
#include "obs/trace.h"
#include "rpc/table.h"

namespace adn::mrpc {

namespace {

// Thread CPU time (what this worker actually burned, preemption excluded) —
// the honest per-core cost basis for pool capacity on shared/overcommitted
// hosts where wall clock cannot attribute time to threads.
int64_t ThreadCpuNs() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Emit a reconfiguration state-machine transition (or program swap) as an
// instant event into the calling thread's ring. Names are the docs/RECONFIG.md
// "Emitted events" contract. Reconfigs are rare, so interning here is fine.
void EmitReconfigEvent(obs::EventKind kind, std::string_view name,
                       std::string_view processor, uint64_t arg) {
  if (!obs::Enabled() || !obs::Tracer::Default().tracing_enabled()) return;
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.name_id = obs::InternName(name);
  ev.processor_id = obs::InternName(processor);
  ev.start_ns = obs::NowNs();
  ev.end_ns = ev.start_ns;
  ev.arg = arg;
  ev.tier = static_cast<uint8_t>(obs::Tier::kEngine);
  obs::EmitEvent(ev);
}

}  // namespace

// --- EnginePool ---------------------------------------------------------------

std::string_view EnginePool::ReconfigOpName(ReconfigOp op) {
  static constexpr std::array<std::string_view, kReconfigOps> kNames = {
      "detach", "adopt", "swap"};
  return kNames[static_cast<size_t>(op)];
}

EnginePool::EnginePool(
    std::vector<std::shared_ptr<const ir::ElementIr>> elements,
    std::vector<int> /*parallel_groups*/, Config config)
    : elements_(std::move(elements)), config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (!config_.shard_key_field.empty()) {
    shard_key_fid_ = rpc::InternFieldName(config_.shard_key_field);
    has_shard_key_ = true;
  }
  template_instances_.reserve(elements_.size());
  for (size_t i = 0; i < elements_.size(); ++i) {
    template_instances_.push_back(std::make_unique<ir::ElementInstance>(
        elements_[i], config_.seed + i + 1));
  }
  auto chain = compiler::CompileChainProgram(elements_, {});
  if (chain.ok()) {
    whole_chain_program_ = std::move(chain).value();
    program_version_.store(whole_chain_program_->version,
                           std::memory_order_relaxed);
  } else {
    compile_status_ = chain.status();
  }
  // Initial routing: slots dealt round-robin across workers. Start() shards
  // tables with the same (slot % workers) assignment, so routing and state
  // agree from the first message.
  for (size_t s = 0; s < kRouteSlots; ++s) {
    route_[s] = static_cast<int32_t>(s % static_cast<size_t>(config_.workers));
  }
}

EnginePool::~EnginePool() { Stop(); }

ir::ElementInstance* EnginePool::TemplateInstance(size_t element) {
  if (element >= template_instances_.size()) return nullptr;
  return template_instances_[element].get();
}

ir::ElementInstance* EnginePool::FindTemplateInstance(std::string_view name) {
  for (auto& inst : template_instances_) {
    if (inst->name() == name) return inst.get();
  }
  return nullptr;
}

Status EnginePool::Start() {
  if (started_) {
    return Status(ErrorCode::kInvalidArgument, "EnginePool already started");
  }
  ADN_RETURN_IF_ERROR(compile_status_);
  const int n = config_.workers;
  // Shard the template state by (key hash % kRouteSlots) % workers, so
  // table placement matches the route_ slot table for ANY worker count —
  // the invariant live migration preserves one slot at a time.
  std::vector<std::vector<Bytes>> shards(elements_.size());
  for (size_t e = 0; e < elements_.size(); ++e) {
    auto split = template_instances_[e]->SplitState(static_cast<size_t>(n));
    if (!split.ok()) return split.status();
    shards[e] = std::move(split).value();
  }

  workers_.reserve(static_cast<size_t>(n));
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (int w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>(config_.ring_capacity);
    worker->trace_processor =
        config_.processor + "-w" + std::to_string(w);
    const std::string label =
        "processor=\"" + worker->trace_processor + "\"";
    worker->rpcs_counter = &reg.GetCounter("adn_chain_rpcs_total", label);
    worker->drops_counter = &reg.GetCounter("adn_chain_drops_total", label);
    worker->trace_processor_id = obs::InternName(worker->trace_processor);
    worker->instances.reserve(elements_.size());
    for (size_t e = 0; e < elements_.size(); ++e) {
      auto inst = std::make_unique<ir::ElementInstance>(
          elements_[e],
          config_.seed * 1'000'003 + static_cast<uint64_t>(w) * 131 + e);
      ADN_RETURN_IF_ERROR(inst->RestoreState(shards[e][w]));
      worker->instances.push_back(std::move(inst));
    }
    std::vector<ir::ElementInstance*> raw;
    for (auto& inst : worker->instances) raw.push_back(inst.get());
    worker->chain_exec = std::make_unique<ir::ChainExecutor>(
        whole_chain_program_, std::move(raw));
    worker->chain_exec->set_trace_identity(obs::Tier::kEngine,
                                           worker->trace_processor_id);
    workers_.push_back(std::move(worker));
  }
  stop_.store(false, std::memory_order_release);
  started_ = true;
  for (int w = 0; w < n; ++w) {
    workers_[static_cast<size_t>(w)]->thread =
        std::thread([this, w] { WorkerLoop(w); });
  }
  return Status::Ok();
}

int EnginePool::SlotOfKey(const rpc::Value& key) {
  return static_cast<int>(rpc::HashSingleKey(key) %
                          static_cast<uint64_t>(kRouteSlots));
}

int EnginePool::SlotOfMessage(const rpc::Message& message) const {
  if (has_shard_key_) {
    if (const rpc::Value* v = message.FindField(shard_key_fid_)) {
      return SlotOfKey(*v);
    }
  }
  // Connection/RPC-id fallback for messages without the shard key.
  return SlotOfKey(rpc::Value(static_cast<int64_t>(message.id())));
}

int EnginePool::WorkerOfSlot(int slot) const {
  return static_cast<int>(route_[static_cast<size_t>(slot)]);
}

int EnginePool::WorkerOfKey(const rpc::Value& key) const {
  return WorkerOfSlot(SlotOfKey(key));
}

int EnginePool::WorkerOfMessage(const rpc::Message& message) const {
  return WorkerOfSlot(SlotOfMessage(message));
}

int EnginePool::Submit(rpc::Message message) {
  if (mig_ != nullptr && mig_->holding) {
    // Hold window: the moving slot's messages wait producer-side (in order)
    // until its shards are on their way to the destination; everything
    // else flows. This — not a pool-wide pause — is the whole blackout.
    const int slot = SlotOfMessage(message);
    if (slot == mig_->slot) {
      mig_->held.push_back(std::move(message));
      PumpMigration();
      return mig_->to;
    }
  }
  const int w = WorkerOfMessage(message);
  Worker& worker = *workers_[static_cast<size_t>(w)];
  while (!worker.ring.TryPush(std::move(message))) {
    // Backpressure: the SPSC contract means only this thread pushes, so
    // yielding until the worker frees a slot is safe (and on an
    // oversubscribed host it donates the timeslice to the worker).
    std::this_thread::yield();
  }
  // The push's tail store is only a release: without a full fence the load
  // of `sleeping` below may be ordered before it. The worker could then
  // check an empty ring, park, and sleep out its timed wait on a non-empty
  // one. The fence pairs with the one the worker issues before that check.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.cv.notify_one();
  }
  return w;
}

void EnginePool::Drain() {
  if (!started_) return;
  for (auto& worker : workers_) {
    while (worker->done.load(std::memory_order_acquire) <
           worker->ring.enqueued()) {
      std::this_thread::yield();
    }
  }
}

void EnginePool::Stop() {
  if (!started_ || stopped_) return;
  Drain();
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_one();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  stopped_ = true;
}

void EnginePool::WorkerLoop(int index) {
  Worker& w = *workers_[static_cast<size_t>(index)];
  // Register + label this worker's event ring up front so tools can show
  // per-worker ring depth even before the first emit.
  obs::EventRingRegistry::Default().SetThisThreadLabel(w.trace_processor);
  const int64_t cpu_start = ThreadCpuNs();
  int64_t exec_acc = 0;
  // One unified burst drain for both the measuring and non-measuring modes:
  // TryPopBurst moves up to burst_size messages per head/tail round trip
  // into a fixed worker-local array (no per-batch heap traffic), then the
  // executor's ProcessBurst runs it: key prefetch, the scalar loop per
  // message, and batched telemetry (histograms and sampled spans, written
  // to this worker's event ring). The pool's obs counters batch to one
  // Inc per burst below.
  //
  // measure_exec wraps only the ProcessBurst call in a
  // CLOCK_THREAD_CPUTIME_ID window: thread CPU time excludes preemption
  // (wall clocks lie on oversubscribed hosts) and the burst amortizes the
  // two clock syscalls to ~nothing per message. Dequeue, on_done, message
  // destruction, and parking stay outside the window, so exec_ns measures
  // the same thing bench_breakdown's timed loop does.
  const size_t burst_max =
      std::clamp<size_t>(config_.burst_size, 1, ir::ChainExecutor::kMaxBurstLanes);
  std::array<rpc::Message, ir::ChainExecutor::kMaxBurstLanes> burst;
  std::array<ir::ProcessResult, ir::ChainExecutor::kMaxBurstLanes> results;
  int spins = 0;
  for (;;) {
    // Reconfiguration mailbox: one flag load per burst when idle. A pending
    // op whose barrier is ahead clamps the burst so no pop crosses it — the
    // "ops run at burst boundaries" guarantee. The ring's tail is read
    // BEFORE the flag and the pop goes no further than it: the producer
    // sets the flag before it pushes anything that must run after the op,
    // so every message this tail covers was pushed either inside the
    // barrier of an op the mailbox check below sees, or before that op was
    // posted. Otherwise an op posted after the flag load, or while
    // RunPendingControl runs an earlier op, would not clamp this pop, and
    // the messages pushed behind it would run ahead of it.
    size_t burst_limit = std::min(burst_max, w.ring.size());
    if (w.ctrl_pending.load(std::memory_order_acquire)) {
      burst_limit = std::min(burst_limit, RunPendingControl(w, burst_max));
    }
    const size_t got = w.ring.TryPopBurst(burst.data(), burst_limit);
    if (got > 0) {
      spins = 0;
      const int64_t now_ns = config_.clock ? config_.clock() : 0;
      if (config_.measure_exec) {
        const int64_t exec_start = ThreadCpuNs();
        w.chain_exec->ProcessBurst(burst.data(), got, now_ns, results.data());
        exec_acc += ThreadCpuNs() - exec_start;
        // Publish exec before done: after Drain() observes done == enqueued,
        // worker_exec_ns() is exact for everything processed so far.
        w.exec_ns.store(exec_acc, std::memory_order_release);
      } else {
        w.chain_exec->ProcessBurst(burst.data(), got, now_ns, results.data());
      }
      uint64_t drops = 0;
      for (size_t i = 0; i < got; ++i) {
        // kReply lanes completed successfully (cache short-circuit).
        if (results[i].outcome != ir::ProcessOutcome::kPass &&
            results[i].outcome != ir::ProcessOutcome::kReply) {
          ++drops;
        }
        if (config_.on_done) config_.on_done(index, burst[i], results[i]);
      }
      if (drops > 0) w.dropped.fetch_add(drops, std::memory_order_relaxed);
      if (obs::Enabled()) {
        w.rpcs_counter->Inc(got);
        if (drops > 0) w.drops_counter->Inc(drops);
      }
      w.done.fetch_add(got, std::memory_order_release);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    // A short pre-park spin bridges back-to-back bursts; keep it SMALL.
    // Submit() notifies a sleeping worker, so parking promptly costs one
    // futex wake (~µs) — while a long yield loop on a host with fewer cores
    // than threads ping-pongs timeslices between spinning workers (tens of
    // thousands of context switches per second) and starves the control
    // ops whose latency is the live-migration blackout window.
    if (++spins < 4) {
      std::this_thread::yield();
      continue;
    }
    // Park so idle workers burn no CPU (keeps worker_cpu_ns ≈ busy time).
    // seq_cst on the sleeping flag pairs with the producer's seq_cst load
    // after its push (and after a control post); the timed wait is a
    // belt-and-braces fallback.
    std::unique_lock<std::mutex> lock(w.mu);
    w.sleeping.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (w.ring.empty() && !stop_.load(std::memory_order_acquire) &&
        !w.ctrl_pending.load(std::memory_order_seq_cst)) {
      w.cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    w.sleeping.store(false, std::memory_order_relaxed);
    spins = 0;
  }
  // Drain any control ops posted after the last mailbox check; the ring is
  // empty here, so every barrier has been reached.
  if (w.ctrl_pending.load(std::memory_order_acquire)) {
    RunPendingControl(w, burst_max);
  }
  w.cpu_ns.store(ThreadCpuNs() - cpu_start, std::memory_order_release);
  w.exec_ns.store(exec_acc, std::memory_order_release);
}

void EnginePool::PostControl(int worker, ReconfigOp op_kind,
                             std::function<void()> fn) {
  Worker& w = *workers_[static_cast<size_t>(worker)];
  ControlOp op;
  // Barrier: everything submitted so far must be done before fn runs. The
  // ring is FIFO, so this equals "every message ahead of this post".
  op.after_submitted = w.ring.enqueued();
  op.op = op_kind;
  op.fn = std::move(fn);
  // Every op but a swap is a step of the migration in flight.
  if (op_kind != ReconfigOp::kSwap) op.step = &mig_->step(op_kind);
  {
    std::lock_guard<std::mutex> lock(w.ctrl_mu);
    w.ctrl_ops.push_back(std::move(op));
  }
  w.ctrl_pending.store(true, std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(w.mu);
    w.cv.notify_one();
  }
}

size_t EnginePool::RunPendingControl(Worker& w, size_t burst_max) {
  const uint64_t done = w.done.load(std::memory_order_relaxed);
  std::vector<ControlOp> ready;
  uint64_t next_barrier = 0;
  bool have_barrier = false;
  {
    std::lock_guard<std::mutex> lock(w.ctrl_mu);
    while (!w.ctrl_ops.empty() && w.ctrl_ops.front().after_submitted <= done) {
      ready.push_back(std::move(w.ctrl_ops.front()));
      w.ctrl_ops.pop_front();
    }
    if (w.ctrl_ops.empty()) {
      w.ctrl_pending.store(false, std::memory_order_release);
    } else {
      have_barrier = true;
      next_barrier = w.ctrl_ops.front().after_submitted;
    }
  }
  for (ControlOp& op : ready) {
    const auto start = std::chrono::steady_clock::now();
    op.fn();
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    if (obs::Enabled()) {
      obs::MetricsRegistry::Default()
          .GetHistogram("adn_reconfig_op_ns",
                        "processor=\"" + config_.processor + "\",op=\"" +
                            std::string(ReconfigOpName(op.op)) + "\"")
          .Observe(static_cast<double>(ns));
    }
    if (op.step != nullptr) {
      op.step->ns = ns;
      op.step->done.store(true, std::memory_order_release);
    }
  }
  if (!have_barrier) return burst_max;
  // next_barrier > done (a reached barrier was popped above), so the clamp
  // is never zero: progress toward the barrier is always possible.
  return static_cast<size_t>(
      std::min<uint64_t>(burst_max, next_barrier - done));
}

uint64_t EnginePool::processed() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->done.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t EnginePool::dropped() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->dropped.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t EnginePool::processed_by(int worker) const {
  return workers_[static_cast<size_t>(worker)]->done.load(
      std::memory_order_acquire);
}

int64_t EnginePool::worker_cpu_ns(int worker) const {
  return workers_[static_cast<size_t>(worker)]->cpu_ns.load(
      std::memory_order_acquire);
}

int64_t EnginePool::worker_exec_ns(int worker) const {
  return workers_[static_cast<size_t>(worker)]->exec_ns.load(
      std::memory_order_acquire);
}

ir::ElementInstance& EnginePool::WorkerInstance(int worker, size_t element) {
  return *workers_[static_cast<size_t>(worker)]->instances[element];
}

Result<std::unique_ptr<ir::ElementInstance>> EnginePool::MergedInstance(
    size_t element) const {
  auto merged = std::make_unique<ir::ElementInstance>(elements_[element],
                                                      config_.seed);
  for (const auto& worker : workers_) {
    const Bytes snapshot = worker->instances[element]->SnapshotState();
    ADN_RETURN_IF_ERROR(merged->MergeState(snapshot));
  }
  return merged;
}

uint64_t EnginePool::MergedStateHash(size_t element) const {
  uint64_t h = 0;
  for (const auto& worker : workers_) {
    h ^= worker->instances[element]->StateContentHash();
  }
  return h;
}

// --- Live reconfiguration (docs/RECONFIG.md) ----------------------------------

Status EnginePool::BeginSlotMigration(int slot, int to_worker) {
  if (!started_ || stopped_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "BeginSlotMigration: pool is not running");
  }
  if (slot < 0 || static_cast<size_t>(slot) >= kRouteSlots) {
    return Status(ErrorCode::kInvalidArgument,
                  "BeginSlotMigration: slot out of range");
  }
  if (to_worker < 0 || to_worker >= config_.workers) {
    return Status(ErrorCode::kInvalidArgument,
                  "BeginSlotMigration: destination worker out of range");
  }
  if (mig_ != nullptr && mig_->phase != MigrationPhase::kIdle &&
      mig_->phase != MigrationPhase::kDone) {
    return Status(ErrorCode::kFailedPrecondition,
                  "BeginSlotMigration: a migration is already in flight");
  }
  const int from = WorkerOfSlot(slot);
  if (from == to_worker) {
    return Status(ErrorCode::kInvalidArgument,
                  "BeginSlotMigration: slot already lives on that worker");
  }
  auto mig = std::make_unique<LiveMigration>();
  mig->phase = MigrationPhase::kDetach;
  mig->slot = slot;
  mig->from = from;
  mig->to = to_worker;
  mig->stats.slot = slot;
  mig->stats.from = from;
  mig->stats.to = to_worker;
  // From here the slot's messages wait producer-side: the source's last
  // message of the slot is already in its ring, ahead of the detach.
  mig->holding = true;
  mig->hold_start = std::chrono::steady_clock::now();
  LiveMigration* m = mig.get();
  mig_ = std::move(mig);
  EmitReconfigEvent(obs::EventKind::kReconfig, obs::kEventReconfigDetach,
                    config_.processor, static_cast<uint64_t>(slot));
  // Source worker, once it has run every message submitted before the
  // hold: hand the slot's shards out. No row is touched.
  PostControl(from, ReconfigOp::kDetach, [this, m] {
    Worker& src = *workers_[static_cast<size_t>(m->from)];
    m->shards.reserve(src.instances.size());
    for (auto& inst : src.instances) {
      m->shards.push_back(inst->TakeKeySlot(static_cast<size_t>(m->slot)));
    }
  });
  return Status::Ok();
}

EnginePool::MigrationPhase EnginePool::PumpMigration() {
  if (mig_ == nullptr) return MigrationPhase::kIdle;
  LiveMigration* m = mig_.get();
  switch (m->phase) {
    case MigrationPhase::kIdle:
    case MigrationPhase::kDone:
      break;
    case MigrationPhase::kDetach: {
      if (!m->step(ReconfigOp::kDetach).done.load(
              std::memory_order_acquire)) {
        break;
      }
      for (const std::vector<rpc::TableShard>& tables : m->shards) {
        for (const rpc::TableShard& shard : tables) {
          m->stats.moved_rows += shard.RowCount();
        }
      }
      // The destination takes the shards in ahead of the flipped traffic:
      // the op's barrier is the destination's submitted count NOW, so it
      // runs before any message flushed or routed after this point.
      PostControl(m->to, ReconfigOp::kAdopt, [this, m] {
        Worker& dst = *workers_[static_cast<size_t>(m->to)];
        for (size_t e = 0; e < dst.instances.size(); ++e) {
          dst.instances[e]->AdoptKeySlot(static_cast<size_t>(m->slot),
                                         std::move(m->shards[e]));
        }
      });
      // Atomic flip + flush: the slot now routes to the destination and the
      // held messages re-enter in their original order, behind the adopt.
      route_[static_cast<size_t>(m->slot)] = static_cast<int32_t>(m->to);
      m->holding = false;
      m->stats.held_messages = static_cast<uint64_t>(m->held.size());
      std::vector<rpc::Message> held = std::move(m->held);
      m->held.clear();
      for (rpc::Message& msg : held) Submit(std::move(msg));
      m->stats.blackout_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - m->hold_start)
              .count();
      m->phase = MigrationPhase::kAdopt;
      EmitReconfigEvent(obs::EventKind::kReconfig, obs::kEventReconfigCutover,
                        config_.processor,
                        static_cast<uint64_t>(m->stats.blackout_ns));
      break;
    }
    case MigrationPhase::kAdopt: {
      if (!m->step(ReconfigOp::kAdopt).done.load(std::memory_order_acquire)) {
        break;
      }
      for (size_t op = 0; op < kReconfigOps; ++op) {
        m->stats.op_ns[op] = m->steps[op].ns;
      }
      if (obs::Enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
        const std::string label = "processor=\"" + config_.processor + "\"";
        reg.GetHistogram("adn_reconfig_blackout_ns", label)
            .Observe(static_cast<double>(m->stats.blackout_ns));
      }
      m->phase = MigrationPhase::kDone;
      break;
    }
  }
  return m->phase;
}

bool EnginePool::MigrationActive() const {
  return mig_ != nullptr && mig_->phase != MigrationPhase::kIdle &&
         mig_->phase != MigrationPhase::kDone;
}

const EnginePool::LiveMigrationStats& EnginePool::migration_stats() const {
  static const LiveMigrationStats kNone;
  return mig_ != nullptr ? mig_->stats : kNone;
}

Status EnginePool::SwapProgram(
    std::vector<std::shared_ptr<const ir::ElementIr>> new_elements) {
  if (!started_ || stopped_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: pool is not running");
  }
  if (swap_pending_.load(std::memory_order_acquire) != 0) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: a swap is already in flight");
  }
  if (new_elements.size() != elements_.size()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: new chain has a different element count; "
                  "drain and redeploy instead");
  }
  // State compatibility first (same tables, same schemas per element), then
  // compile — an incompatible or non-compiling chain leaves the running
  // program untouched.
  for (size_t e = 0; e < new_elements.size(); ++e) {
    ADN_RETURN_IF_ERROR(
        ir::CheckStateCompatible(*elements_[e], *new_elements[e]));
  }
  auto chain = compiler::CompileChainProgram(new_elements, {});
  if (!chain.ok()) {
    return Status(chain.error().code(),
                  "SwapProgram: new chain does not compile: " +
                      chain.error().message());
  }
  std::shared_ptr<const ir::ChainProgram> program = std::move(chain).value();
  swap_pending_.store(config_.workers, std::memory_order_release);
  for (int w = 0; w < config_.workers; ++w) {
    // Each worker swaps between bursts, after draining what was already in
    // its ring: code pointer replaced in place (live tables kept), executor
    // rebuilt over the new program.
    PostControl(w, ReconfigOp::kSwap, [this, w, program, new_elements] {
      Worker& wk = *workers_[static_cast<size_t>(w)];
      for (size_t e = 0; e < new_elements.size(); ++e) {
        (void)wk.instances[e]->ReplaceCode(new_elements[e]);  // pre-validated
      }
      std::vector<ir::ElementInstance*> raw;
      raw.reserve(wk.instances.size());
      for (auto& inst : wk.instances) raw.push_back(inst.get());
      wk.chain_exec =
          std::make_unique<ir::ChainExecutor>(program, std::move(raw));
      wk.chain_exec->set_trace_identity(obs::Tier::kEngine,
                                        wk.trace_processor_id);
      swap_pending_.fetch_sub(1, std::memory_order_release);
    });
  }
  // Producer-side bookkeeping so MergedInstance/TemplateInstance and any
  // later Start-style rebuild see the new chain.
  for (size_t e = 0; e < new_elements.size(); ++e) {
    (void)template_instances_[e]->ReplaceCode(new_elements[e]);
  }
  elements_ = new_elements;
  whole_chain_program_ = program;
  program_version_.store(program->version, std::memory_order_release);
  EmitReconfigEvent(obs::EventKind::kSwap, obs::kEventReconfigSwapProgram,
                    config_.processor, program->version);
  return Status::Ok();
}

bool EnginePool::SwapComplete() const {
  return swap_pending_.load(std::memory_order_acquire) == 0;
}

uint64_t EnginePool::program_version() const {
  return program_version_.load(std::memory_order_acquire);
}

}  // namespace adn::mrpc
