// EnginePool: the multi-worker mRPC engine runtime (mRPC, NSDI '23 is a
// multi-core shared-memory runtime; this is that shape for the ADN engine
// tier).
//
// An EnginePool owns N worker threads. Each worker runs the chain's compiled
// ChainProgram against its OWN ElementInstances, whose tables hold the key
// slots Start() moved into them. A single producer thread routes every RPC
// through a fixed table of kRouteSlots key slots: the shard-key field
// hashes (HashSingleKey) into a slot, and the slot maps to a worker.
// Start() moves the template's tables with the SAME two-level function
// ((key hash % kRouteSlots) % workers, ElementInstance::MoveStateTo), so
// the worker that receives a message is exactly the worker whose tables
// hold that key's rows — and the slot indirection is what makes live
// migration possible: handing one slot's table shards to another worker and
// flipping one route_ entry re-homes that key range without touching the
// rest (docs/RECONFIG.md).
// Messages are handed over on a true SPSC ring (ring.h); RPCs without the
// shard-key field fall back to a hash of the RPC/connection id.
//
// State stays per-worker and unsynchronized (shared-nothing); anything
// cross-worker is merge-on-read: processed()/dropped() sum worker counters,
// and MergedStateHash() XORs the shard hashes (ElementInstance::
// StateContentHash is XOR-decomposable, so the merged hash equals the
// unsharded hash exactly when the shards partition the rows — the PR 4
// migration invariant, now continuously checkable on a live pool).
//
// One execution tier: every worker runs the whole chain as one compiled
// ChainProgram (SQL elements as register code, caches and filters as one
// kBuiltin each, their state in ordinary tables placed like any other).
// A chain that does not compile whole — one with a client-library
// retry/timeout filter — is rejected by Start(). The
// compiler's parallel groups (paper §5.2) run back-to-back on the worker:
// pool parallelism comes from sharding across workers, with zero
// per-message synchronization. A fork-join mode that ran a group's members
// on helper threads was removed; its last measurements are in
// EXPERIMENTS.md E7.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "ir/exec.h"
#include "ir/program.h"
#include "mrpc/ring.h"
#include "obs/intern.h"
#include "obs/metrics.h"
#include "rpc/intern.h"
#include "rpc/message.h"
#include "rpc/table.h"

namespace adn::mrpc {

class EnginePool {
 public:
  // Keys hash into this many fixed route slots — the key slots every keyed
  // table keeps one storage shard per — and a slot maps to one worker
  // (route_). Live migration moves ownership of one slot at a time.
  static constexpr size_t kRouteSlots = rpc::kKeySlots;

  // The worker-side control ops of a reconfiguration. Each is timed on the
  // worker into adn_reconfig_op_ns{processor,op=ReconfigOpName(op)}.
  enum class ReconfigOp : uint8_t {
    kDetach,  // source: hand the slot's table shards out (TakeKeySlot)
    kAdopt,   // destination: take them in (AdoptKeySlot)
    kSwap,    // every worker: program hot-reload
  };
  static constexpr size_t kReconfigOps = 3;
  static std::string_view ReconfigOpName(ReconfigOp op);

  // Producer-driven live-migration state machine (docs/RECONFIG.md):
  //   kIdle -> kDetach (producer holds the slot's traffic; the source, once
  //   it has run every message submitted before the hold, hands the slot's
  //   shards out) -> kAdopt (destination takes them in; the route flips and
  //   the held messages are flushed behind the adopt) -> kDone.
  enum class MigrationPhase : uint8_t {
    kIdle,
    kDetach,
    kAdopt,
    kDone,
  };

  struct LiveMigrationStats {
    int slot = -1;
    int from = -1;
    int to = -1;
    // The hand-off moves storage, not bytes: bulk_bytes and the delta
    // counts read 0. They stay because perfbench reports them
    // (mrpc.migration.bulk_kb, mrpc.migration.delta_rows).
    size_t bulk_bytes = 0;
    uint64_t delta_upserts = 0;
    uint64_t delta_deletes = 0;
    uint64_t moved_rows = 0;     // keyed rows whose shards changed worker
    uint64_t held_messages = 0;  // producer-held during the hold window
    int64_t blackout_ns = 0;     // hold window: Begin to the flip (steady)
    // Worker wall time of each of this migration's control ops, indexed by
    // ReconfigOp (kSwap stays 0).
    std::array<int64_t, kReconfigOps> op_ns{};
  };

  struct Config {
    int workers = 1;
    // Message field whose value routes the RPC (the shard key — normally
    // the primary key of the chain's hottest table). Empty or absent on a
    // message: route by hash of the RPC/connection id instead.
    std::string shard_key_field;
    size_t ring_capacity = 1024;
    // Base seed for per-worker instance RNG/nonce streams.
    uint64_t seed = 1;
    // Observability identity: workers count into
    // adn_chain_rpcs_total/adn_chain_drops_total{processor="<processor>-w<i>"}
    // and stamp their sampled span trees with that name.
    std::string processor = "engine-pool";
    // Worker clock exposed to now(); null = constant 0 (deterministic).
    std::function<int64_t()> clock;
    // Measure chain-execution time per message (steady_clock around the
    // executor, excluding ring transport and dequeue): worker_exec_ns().
    // Costs ~2 clock reads per message; off by default.
    bool measure_exec = false;
    // Messages drained and processed per burst (1 = per-message drain).
    // Each burst pays the ring's acquire/release pair once, one key-prefetch
    // pass and one telemetry flush (ChainExecutor::ProcessBurst). Clamped to
    // [1, ir::ChainExecutor::kMaxBurstLanes]. The default is the measured
    // knee on the fig5 chain — see bench_burst / BENCH_burst.json.
    size_t burst_size = 32;
    // Invoked on the WORKER thread after each message. Must be
    // thread-safe across workers; keep it cheap.
    std::function<void(int worker, const rpc::Message&,
                       const ir::ProcessResult&)>
        on_done;
  };

  // Compiles the chain into one ChainProgram; Start() reports the compile
  // error if it does not compile (a retry/timeout filter). `parallel_groups`
  // is unused — groups run sequentially in a worker — and is kept so
  // existing callers that pass the compiler's group ids still build.
  EnginePool(std::vector<std::shared_ptr<const ir::ElementIr>> elements,
             std::vector<int> parallel_groups, Config config);
  ~EnginePool();

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  // --- Seeding (before Start) ------------------------------------------------
  // Controller-style state seeding happens on the template instances. Start
  // TAKES their rows: it moves whatever the templates hold at that point
  // into the workers, so a template is empty after Start. Seed before
  // Start; read worker state through WorkerInstance afterwards.
  ir::ElementInstance* TemplateInstance(size_t element);
  ir::ElementInstance* FindTemplateInstance(std::string_view name);

  // Move the template state into `workers` instance sets (key slot k to
  // worker k % workers, ElementInstance::MoveStateTo) and spawn the worker
  // threads. Error to call twice, and an error (the compile error, e.g.
  // kUnsupported for a retry filter) when the chain did not compile.
  Status Start();
  bool started() const { return started_; }

  // --- Data plane (single producer) -----------------------------------------
  // Routes and enqueues; spins (with backoff) while the target worker's ring
  // is full. Call from ONE thread. Returns the worker index it routed to.
  int Submit(rpc::Message message);
  // Deterministic routing preview (usable before Start and from tests).
  int WorkerOfKey(const rpc::Value& key) const;
  int WorkerOfMessage(const rpc::Message& message) const;
  static int SlotOfKey(const rpc::Value& key);
  int SlotOfMessage(const rpc::Message& message) const;
  int WorkerOfSlot(int slot) const;

  // --- Live reconfiguration (producer thread; docs/RECONFIG.md) --------------
  // Start moving key slot `slot` from its current owner to `to_worker`.
  // Non-blocking: the moving slot's messages are held producer-side (in
  // order) from here until the flip; every other slot keeps flowing. Drive
  // with PumpMigration() until kDone. One migration in flight at a time.
  Status BeginSlotMigration(int slot, int to_worker);
  // Advance the migration state machine (cheap; call from the submit loop).
  MigrationPhase PumpMigration();
  bool MigrationActive() const;
  // Stats of the last migration that reached kDone (producer thread).
  const LiveMigrationStats& migration_stats() const;

  // DSL hot-reload: recompile-and-swap the running chain without stopping
  // the workers. Requires state-compatible
  // elements (same table names/schemas per element — ir::CheckStateCompatible;
  // incompatible or non-compiling chains are rejected and the running
  // program is untouched). Each worker swaps at a burst boundary, keeping
  // its live tables; poll SwapComplete() for async completion.
  Status SwapProgram(
      std::vector<std::shared_ptr<const ir::ElementIr>> new_elements);
  bool SwapComplete() const;
  // Version of the chain program workers are (or will be, once SwapComplete)
  // running: ChainProgram::version, bumped by every compile.
  uint64_t program_version() const;

  // Blocks until every submitted message has been fully processed.
  void Drain();
  // Drain, then join every worker thread. Idempotent; the destructor calls
  // it.
  void Stop();

  // --- Merge-on-read ---------------------------------------------------------
  int workers() const { return config_.workers; }
  size_t element_count() const { return elements_.size(); }
  uint64_t processed() const;  // summed over workers
  uint64_t dropped() const;
  uint64_t processed_by(int worker) const;
  // CPU nanoseconds worker `w` has consumed (CLOCK_THREAD_CPUTIME_ID),
  // final after Stop(). Idle workers park on a condvar, so this approximates
  // busy time — the per-core cost the pool pays per message.
  int64_t worker_cpu_ns(int worker) const;
  // Nanoseconds worker `w` spent inside the chain executor, by thread-CPU
  // clock (only populated when Config::measure_exec; exact for all processed
  // messages once Drain() returns). The pool-side analogue of
  // bench_breakdown's compiled_ns_per_msg — excludes ring transport.
  int64_t worker_exec_ns(int worker) const;

  // Worker w's live instance of element e (tests; the worker thread owns it
  // while running — read after Drain/Stop).
  ir::ElementInstance& WorkerInstance(int worker, size_t element);

  // XOR of the worker shards' StateContentHash — equals the hash of the
  // equivalent unsharded instance when the shards partition the rows.
  uint64_t MergedStateHash(size_t element) const;

  // True when the chain compiled into one ChainProgram, which is the only
  // way the pool runs: false means Start() will refuse the chain.
  bool whole_chain_compiled() const { return whole_chain_program_ != nullptr; }

 private:

  // Completion of one migration control op: the worker records the op's
  // time, then publishes `done` (release) for the producer's pump.
  struct ControlStep {
    int64_t ns = 0;
    std::atomic<bool> done{false};
  };

  // A reconfiguration step to run on the worker thread, between bursts,
  // only after the worker has finished every message that was submitted
  // before the op was posted (after_submitted). The ring's FIFO plus this
  // barrier is the whole ordering story: a control op can never observe a
  // half-processed burst, and messages submitted after the post can never
  // overtake it.
  struct ControlOp {
    uint64_t after_submitted = 0;
    ReconfigOp op = ReconfigOp::kSwap;
    std::function<void()> fn;
    ControlStep* step = nullptr;  // null for a swap
  };

  struct Worker {
    explicit Worker(size_t ring_capacity) : ring(ring_capacity) {}

    SpscRing<rpc::Message> ring;
    std::vector<std::unique_ptr<ir::ElementInstance>> instances;
    // One executor over the whole chain.
    std::unique_ptr<ir::ChainExecutor> chain_exec;
    std::thread thread;

    // Messages finished; Drain and control barriers compare it with the
    // ring's enqueued() count, which only the producer advances.
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<int64_t> cpu_ns{0};
    std::atomic<int64_t> exec_ns{0};
    std::atomic<bool> sleeping{false};
    std::mutex mu;
    std::condition_variable cv;

    // Control mailbox (reconfiguration only; never on the message path).
    // ctrl_pending is the hot-path gate: one relaxed load per burst when no
    // reconfiguration is in flight.
    std::mutex ctrl_mu;
    std::deque<ControlOp> ctrl_ops;
    std::atomic<bool> ctrl_pending{false};

    obs::Counter* rpcs_counter = nullptr;
    obs::Counter* drops_counter = nullptr;
    std::string trace_processor;
    obs::NameId trace_processor_id = 0;  // interned once in Start
  };

  // In-flight live migration. Producer-owned; the detach step's done flag
  // publishes the shards to the producer (release/acquire), and the ctrl
  // mailbox mutex carries them on to the destination worker.
  struct LiveMigration {
    MigrationPhase phase = MigrationPhase::kIdle;
    int slot = -1;
    int from = -1;
    int to = -1;
    // The slot's shards in transit: per element, one per table.
    std::vector<std::vector<rpc::TableShard>> shards;
    // One per ReconfigOp (kSwap unused).
    std::array<ControlStep, kReconfigOps> steps;
    ControlStep& step(ReconfigOp op) {
      return steps[static_cast<size_t>(op)];
    }
    bool holding = false;                 // producer: slot traffic held?
    std::vector<rpc::Message> held;       // producer-held slot messages
    std::chrono::steady_clock::time_point hold_start;
    LiveMigrationStats stats;
  };

  void WorkerLoop(int index);
  // Post `fn` to run on worker `worker`'s thread once it has drained every
  // message submitted before this call, timed as control op `op`. Every
  // op but kSwap is a step of the migration in flight (mig_): its
  // ControlStep gets the time, then its done flag. Wakes the worker if
  // parked.
  void PostControl(int worker, ReconfigOp op, std::function<void()> fn);
  // Run the control ops whose barrier has been reached; returns how many
  // messages the next burst may pop without crossing the next op's barrier.
  size_t RunPendingControl(Worker& w, size_t burst_max);

  std::vector<std::shared_ptr<const ir::ElementIr>> elements_;
  Config config_;
  // Interned once at construction so the Submit hot path routes by integer
  // field-id compare instead of a name scan. 0-and-false when no shard key.
  rpc::FieldId shard_key_fid_ = 0;
  bool has_shard_key_ = false;

  // Seed state (filled before Start, moved into the workers by Start).
  std::vector<std::unique_ptr<ir::ElementInstance>> template_instances_;

  // Shared by every worker's executor; null when the chain did not compile,
  // with the reason in compile_status_.
  std::shared_ptr<const ir::ChainProgram> whole_chain_program_;
  Status compile_status_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  // Slot -> worker routing table. Producer-thread-owned after Start (read by
  // Submit, written only at route flip in PumpMigration).
  std::array<int32_t, kRouteSlots> route_{};
  // Current (or last) live migration; kept alive until the next Begin so
  // worker-side ctrl lambdas holding the raw pointer stay valid.
  std::unique_ptr<LiveMigration> mig_;
  // Workers that have not yet switched to the swapped program; 0 = complete.
  std::atomic<int> swap_pending_{0};
  std::atomic<uint64_t> program_version_{0};
};

}  // namespace adn::mrpc
