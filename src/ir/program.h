// ChainProgram: the compiled execution tier (paper §4 Q2).
//
// The reference semantics of an element live in the StmtIr tree that
// ElementInstance::Process interprets per message — with a recursive
// expression walk, string-compared field lookups and by-name table lookups
// on every access. The paper's performance claim (Figure 5) rests on the
// compiler lowering the whole chain to platform-native code, so this file
// defines what the native software tier executes: one flat, register-based
// instruction stream for an entire optimized chain, with
//
//   - a constant pool (literals materialized once at compile time),
//   - interned field IDs (field-name resolution done once by the compiler,
//     down to the process-global ids of rpc/intern.h — the executor reads
//     message fields by integer compare, never by string scan),
//   - table handles (element index, table index) bound to the deployed
//     ElementInstances at deploy time — by index, so a state restore or
//     move that empties or refills the tables never invalidates the program.
//
// Deliberately NOT in the program: element state. Tables, RNG streams and
// nonce counters stay inside ElementInstance, which is what keeps
// SnapshotState/RestoreState, MoveStateTo and controller migration working
// unchanged whichever tier executes (the program is immutable shared code;
// instances are the movable state).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/element_ir.h"
#include "ir/exec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/message.h"

namespace adn::ir {

// One fixed-width instruction. `a`, `b`, `c` are register/pool operands,
// `d` doubles as a jump target or an argument count, `aux` carries small
// immediates (binary operator, drop kind, message-kind mask).
struct Instr {
  enum class Op : uint8_t {
    kLoadConst,      // r[a] = consts[b]
    kLoadField,      // r[a] = message[field b] (NULL when absent)
    kLoadJoin,       // r[a] = joined_row[b]; error when no row is bound
    kMaterialize,    // pin r[a]: copy a borrowed value into the register
    kCoerceBool,     // r[a] = BOOL(truthy(r[a]))
    kUnary,          // r[a] = aux(UnaryOp) r[b]
    kBinary,         // r[a] = r[b] aux(BinaryOp) r[c]   (not AND/OR)
    kCall,           // r[a] = functions[b](r[c] .. r[c+d-1])
    kJump,           // ip = d
    kJumpIfFalse,    // if !truthy(r[a]) ip = d
    kJumpIfTrue,     // if truthy(r[a]) ip = d
    kLookupPk,       // bind join row: tables[b] PK lookup of r[a]; miss: ip=d
    kLookupScan,     // bind join row: scan tables[b] column c == r[a]; miss: d
    kClearJoin,      // unbind the join row
    kStoreField,     // message[field b] = move(r[a])
    kProject,        // drop every message field not in keep_lists[b]
    kRouteDest,      // steer on __destination (after every SELECT)
    kInsertRow,      // tables[b].Insert({r[a] .. r[a+d-1]})
    kUpdateRows,     // run update_specs[b] (row loop with subprograms)
    kDeleteRows,     // run delete_specs[b]
    kDrop,           // stop: aux!=0 silent else abort, message strings[b]
    kBeginElement,   // enter elements[b]: bump processed/nonce, bind state
    kBuiltin,        // run elements[b]'s built-in body (a cache, a filter
                     // operator); kReply or a drop ends the program, kPass
                     // falls through
    kSkipUnlessKind, // if !(aux & (1 << message kind)) ip = d  (chain mode)
    kReturnPass,     // end of chain: ProcessResult::Pass()
    kReturnValue,    // end of subprogram: value is r[a]
  };

  Op op;
  uint8_t aux = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t d = 0;
};

std::string_view OpName(Instr::Op op);

// Compiled form of one whole chain (or one element when the engine compiles
// stages individually). Immutable and shareable across deployments.
struct ChainProgram {
  // Subprogram entry point meaning "no subprogram" (absent WHERE).
  static constexpr uint32_t kNoSub = 0xFFFFFFFF;

  struct TableRef {
    uint16_t element = 0;    // index into the bound instance vector
    uint16_t table_idx = 0;  // index into that instance's table vector
    std::string name;        // diagnostics only
  };

  struct UpdateSpec {
    uint16_t table = 0;
    uint32_t where_entry = kNoSub;
    // Point-update fast path (ir::PointUpdateKeyExpr): subprogram computing
    // the primary-key value from the message alone. When set, where_entry is
    // kNoSub and ExecUpdate does one index lookup instead of a table scan.
    uint32_t key_entry = kNoSub;
    // column index -> subprogram entry evaluating the new value.
    std::vector<std::pair<uint16_t, uint32_t>> assignments;
    // Point update that assigns no primary-key column: ExecUpdate writes
    // the new cells into the hit row instead of upserting a copy.
    bool in_place = false;
  };

  struct DeleteSpec {
    uint16_t table = 0;
    uint32_t where_entry = kNoSub;
  };

  // Per-element segment metadata: the simulator's cost model keys compiled
  // execution cost off `instr_count` (instructions in the segment, including
  // its subprograms) instead of the interpreter's IR op count.
  struct ElementSeg {
    std::string name;
    dsl::Direction direction = dsl::Direction::kRequest;
    uint32_t entry_ip = 0;
    uint32_t instr_count = 0;
    double per_byte_cost_ns = 0.0;  // summed UDF per-byte costs (compress...)
  };

  std::vector<Instr> code;
  std::vector<rpc::Value> consts;
  std::vector<std::string> strings;      // drop/abort messages
  std::vector<std::string> field_names;  // program-local field-ID table
  // Global interned id (rpc/intern.h) for each program-local field id,
  // resolved by the compiler so executors access message fields with an
  // integer compare instead of a string scan. Parallel to field_names;
  // ChainExecutor re-derives it when a hand-built program leaves it empty.
  std::vector<rpc::FieldId> field_gids;
  std::vector<const FunctionDef*> functions;
  std::vector<TableRef> tables;
  std::vector<std::vector<uint16_t>> keep_lists;  // projection keep sets
  std::vector<UpdateSpec> update_specs;
  std::vector<DeleteSpec> delete_specs;
  std::vector<ElementSeg> elements;
  uint16_t num_registers = 0;
  // Monotonic compile generation (process-wide), stamped by the compiler.
  // Hot-reload swaps are audited by version: a running pool reports the
  // version it executes, and a swap must install a NEWER program (see
  // EnginePool::SwapProgram / docs/RECONFIG.md). 0 = hand-built program.
  uint64_t version = 0;

  uint32_t TotalInstrCount() const;
  // Disassembly for tests/tools (one instruction per line).
  std::string DebugString() const;
};

// Executes a ChainProgram against the tabular state of the deployed
// ElementInstances. The executor owns only transient run state (register
// file, field-index cache); everything durable stays in the instances, so
// snapshot/restore/split/merge and stage migration behave identically under
// either tier.
class ChainExecutor {
 public:
  // `instances[i]` backs the program's element segment i. Pointers are
  // borrowed; the caller keeps them alive across Process calls.
  ChainExecutor(std::shared_ptr<const ChainProgram> program,
                std::vector<ElementInstance*> instances);

  // Run the whole program on `m` in place. Mirrors the interpreter contract:
  // per-element processed/dropped counters and the nonce/RNG streams advance
  // exactly as ElementInstance::Process would. With observability on, one
  // call is a telemetry chunk of one lane (see ProcessBurst).
  ProcessResult Process(rpc::Message& m, int64_t now_ns);

  // Widest chunk ProcessBurst prefetches and batches telemetry over; larger
  // bursts are chunked. A chunk's sampled lanes fit one 64-bit mask.
  static constexpr size_t kMaxBurstLanes = 64;

  // Burst execution: process msgs[0..n) and fill results[0..n) with exactly
  // the outcomes n sequential Process() calls would produce — it runs the
  // same scalar loop, one message after another.
  //
  // Every chunk of up to kMaxBurstLanes messages first runs a two-stage key
  // prefetch (each lane's index home slot, then the hit row's cells) for
  // every keyed join, then executes its lanes in order. With observability
  // on, the chunk batches its telemetry (the "Burst-mode telemetry" contract
  // in docs/OBSERVABILITY.md): each element counts every entering lane (its
  // processed counter) but reads the clock only for the first lane to enter
  // it (and for trace-sampled lanes), then posts one Histogram::ObserveN per
  // element at chunk end; once every element is measured, unsampled lanes
  // run the untimed loop. A lane the tracer samples, with no enclosing RpcTraceScope,
  // writes its own POD root span and one child per element it entered
  // straight to this thread's event ring; a traced chunk of two or more
  // lanes also writes one kBurst marker.
  void ProcessBurst(rpc::Message* msgs, size_t n, int64_t now_ns,
                    ProcessResult* results);

  // Identity stamped on the span events the executor writes itself (lanes
  // with no enclosing RpcTraceScope; a scope supplies its own identity).
  // `processor_id` is an obs::InternName id, interned once at registration.
  void set_trace_identity(obs::Tier tier, obs::NameId processor_id) {
    lane_root_.processor_id = processor_id;
    lane_root_.tier = static_cast<uint8_t>(tier);
  }

  // Number of distinct (key field, table) pairs the burst prefetch covers
  // (fig5: the ACL join). Exposed for tests/benchmarks.
  size_t burst_prefetch_site_count() const { return prefetch_sites_.size(); }

  const ChainProgram& program() const { return *program_; }

 private:
  struct RunState {
    rpc::Message* msg = nullptr;
    rpc::RowRef joined_row;  // data() null when no row is bound
    FunctionContext fn_ctx;
    int cur = -1;  // current element segment (index into instances_)
  };
  // A kLoadField feeding a kLookupPk: the key field and table the burst
  // prefetch warms for every lane.
  struct PrefetchSite {
    uint16_t field_id = 0;
    uint16_t table = 0;
  };
  Result<rpc::Value> RunSub(uint32_t entry, RunState& rs);
  Status ExecUpdate(const ChainProgram::UpdateSpec& spec, RunState& rs);
  Status UpdateInPlace(const ChainProgram::UpdateSpec& spec, rpc::Table& table,
                       rpc::RowRef hit, RunState& rs);
  // Scratch row i of upd_scratch_, created on first use.
  rpc::Row& UpdateScratch(size_t i);
  Status ExecDelete(const ChainProgram::DeleteSpec& spec, RunState& rs);
  rpc::Table* TableAt(uint16_t handle);
  const rpc::Value& FieldOrNull(const rpc::Message& m, uint16_t fid) const {
    return m.GetFieldOrNull(field_gids_[fid]);
  }
  // Take ownership of register r: move when the register owns its value,
  // copy when it borrows (const pool / message field / join column).
  rpc::Value TakeReg(uint16_t r);

  // The scalar loop behind Process and ProcessBurst, compiled once with
  // telemetry and once without. The timed loop runs inside a
  // BeginChunk/EndChunk bracket; `sampled` lanes write their own spans, and
  // a nonzero `clock` is an obs::NowNs() reading the caller took right
  // before the lane, reused as the lane's first timestamp.
  template <bool kTiming>
  ProcessResult Run(rpc::Message& m, int64_t now_ns, bool sampled,
                    int64_t clock);
  // One lane of a telemetry chunk: picks the timed loop only for a lane
  // that needs it (sampled, inside a caller's scope, or possibly the first
  // to enter a still unmeasured element).
  ProcessResult RunLane(rpc::Message& m, int64_t now_ns, bool sampled,
                        int64_t clock);
  // Telemetry chunk bracket over msgs[0..k) (obs on only). BeginChunk
  // latches whether tracing is on, snapshots each element's processed
  // counter and returns the mask of lanes the tracer samples (bit l = lane
  // l); EndChunk posts one ObserveN per entered element and the chunk's
  // trace self-metrics.
  uint64_t BeginChunk(const rpc::Message* msgs, size_t k);
  void EndChunk();
  // Child span of a sampled lane's root, written to this thread's ring.
  void EmitElementSpan(const obs::TraceEvent& root, int seg, int64_t start,
                       int64_t end);

  // Prefetch-site discovery, run at construction.
  void PlanPrefetch();
  // The two-stage key prefetch over msgs[0..k), k <= kMaxBurstLanes.
  void PrefetchKeys(const rpc::Message* msgs, size_t k);

  std::shared_ptr<const ChainProgram> program_;
  std::vector<ElementInstance*> instances_;
  // Borrow-aware register file. Reads always go through slot_[r]; loads set
  // the slot to point at the source in place (no copy), computed results
  // land in regs_[r] with slot_[r] == &regs_[r]. Borrowed pointers never
  // outlive their source: const-pool and join-row borrows are stable for the
  // statement that created them, and the compiler emits kMaterialize to pin
  // message-field borrows before any store/projection can move the field
  // vector. regs_ never resizes after construction, so &regs_[r] is stable.
  std::vector<rpc::Value> regs_;
  std::vector<const rpc::Value*> slot_;
  // Program-local field id -> global interned FieldId (from the program's
  // field_gids, re-interned from field_names when a hand-built program
  // leaves them empty). Field access is then an integer scan of the
  // message's flat field buffer — no string compares on the hot path.
  std::vector<rpc::FieldId> field_gids_;
  // kProject keep set per keep_list, as global ids (allocation-free
  // in-place projection).
  std::vector<std::vector<rpc::FieldId>> keep_gids_;
  rpc::FieldId dest_fid_ = 0;  // interned __destination
  // UPDATE row scratch, reused across calls (rows keep their capacity) so
  // the row loop allocates no row per message.
  std::vector<rpc::Row> upd_scratch_;
  // In-place point UPDATE: the assignments' new values, all evaluated
  // against the old row before any cell is written.
  std::vector<rpc::Value> upd_vals_;
  // Reused across calls/messages so the hot loop never reallocates. Safe to
  // share between the main loop and subprograms: each kCall fills and
  // consumes it within one instruction.
  std::vector<rpc::Value> call_args_;
  // Per-segment adn_element_latency_ns{element=...} instruments, resolved at
  // construction so the hot path never builds a label string. Only touched
  // when obs::Enabled().
  std::vector<obs::Histogram*> elem_hist_;
  // Interned element names (span event name ids) and obs self-metric
  // counters, resolved at construction so telemetry runs without a string
  // or registry lookup.
  std::vector<obs::NameId> elem_name_ids_;
  obs::NameId burst_name_id_ = 0;
  obs::Counter* spans_total_ = nullptr;
  obs::Counter* traces_sampled_ = nullptr;

  // Chunk telemetry (only touched when obs::Enabled()): per element
  // segment, its processed counter at chunk start (the delta is the lanes
  // that entered) and the segment time of the first of them, the one lane
  // the histogram measures (-1 until measured; unmeasured_ counts those).
  std::vector<uint64_t> chunk_processed_;
  std::vector<int64_t> seg_ns_;
  size_t unmeasured_ = 0;
  bool chunk_tracing_ = false;
  obs::TraceContext* chunk_trace_ = nullptr;  // the caller's RpcTraceScope
  uint32_t chunk_sampled_ = 0;  // lanes that wrote their own span tree
  uint64_t chunk_spans_ = 0;    // span events those lanes wrote
  // Root span of the sampled lane in flight. Its name and the executor's
  // trace identity (processor, tier) are set once, at construction and by
  // set_trace_identity; the burst marker reuses the identity.
  obs::TraceEvent lane_root_;

  std::vector<PrefetchSite> prefetch_sites_;
  // Stage-1 key hashes of the burst prefetch, [site * k + lane].
  std::vector<uint64_t> pf_hash_;
};

}  // namespace adn::ir
