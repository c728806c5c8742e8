// Burst (struct-of-arrays) execution tier for ChainProgram.
//
// High-speed packet stacks get their throughput from burst processing: the
// NDN-DPDK RX loop drains its rings in bursts, prefetches the PCCT entries
// every packet in the burst will touch, and only then processes them, so all
// per-packet control overhead is amortized across the burst. This file
// applies the same shape to compiled chain execution. ProcessBurst first
// prefetches every lane's keyed-join rows in two stages (PrefetchKeys, on
// every chain), then, when the analysis below allows it, runs one
// *wavefront* over the instruction stream: the instruction pointer sweeps
// forward once, and at each instruction every live lane (message) that has
// reached it executes together. The opcode switch is therefore dispatched
// once per instruction per burst instead of once per instruction per
// message, and the branch predictor sees a stable opcode stream.
//
// Why a single forward sweep is legal: the compiler emits forward-only
// control flow (every jump target is a later ip; subprograms are inlined and
// jumped over), so per-lane instruction pointers only move forward and the
// global sweep ip = min over lanes never skips work. Lanes that diverge
// (kind guards, ACL misses, drops) simply carry a larger lane ip until the
// sweep catches up — SIMT-style reconvergence without a mask stack.
//
// Exact parity with the scalar tier is the contract (burst ≡ scalar ≡
// interpreter, enforced by tests/test_burst.cc including table state
// hashes). Message-local effects are trivially order-independent across
// lanes; the cross-lane shared state is tables, per-instance RNG streams and
// the nonce/processed/dropped counters. AnalyzeBurst proves at construction
// that executing instruction-major in lane order produces exactly the
// scalar message-major effect order:
//   - each element is entered (kBeginElement) at most once, so its
//     nonce/processed sequence is assigned in lane order = message order;
//   - each table is either read-only or mutated at exactly one site with no
//     lookups, so its row sequence is written in lane order = message order
//     (and every joined-row borrow stays stable for the whole burst);
//   - each element has at most one non-deterministic call site, so RNG
//     draws happen in lane order = message order.
// Programs that violate any rule fall back to the scalar loop — semantics
// never depend on which path ran.
//
// Observability does NOT force the scalar tier (the "Burst-mode telemetry"
// contract, docs/OBSERVABILITY.md): when obs::Enabled(), the wavefront
// batches its telemetry instead. One NowNs() pair is stamped per element
// segment per burst (kBeginElement fires once per element, proven by the
// analysis above), the entering-lane count is recorded, and after the
// wavefront each segment posts ONE Histogram::ObserveN delta — count
// parity with n scalar runs, values amortized to burst granularity. When
// tracing samples a lane, fixed-size POD span events (one root "rpc" span
// + one span per segment the lane entered, sharing the segment's burst
// timestamps) are written to this worker's SPSC event ring
// (obs/event_ring.h) — no strings, no allocation, no locks.
#include <algorithm>
#include <unordered_map>

#include "ir/expr.h"
#include "ir/program.h"

namespace adn::ir {

using rpc::Message;
using rpc::Row;
using rpc::Table;
using rpc::Value;
using rpc::ValueType;

namespace {
// Lane ip value meaning "lane finished" — larger than any real ip, so it
// never wins the min-sweep.
constexpr uint32_t kLaneDone = 0xFFFFFFFFu;
}  // namespace

// Defined in program.cc (anonymous there would not link); redeclared here to
// share the scalar comparison fast path.
bool FastCompare(dsl::BinaryOp op, const Value& a, const Value& b, bool* out);

void ChainExecutor::AnalyzeBurst() {
  const ChainProgram& p = *program_;
  burst_safe_ = true;
  prefetch_sites_.clear();

  // Tables are deduplicated by identity (element, table_idx), not by handle,
  // so two handles to one physical table share one mutation/lookup budget.
  auto table_key = [&](uint16_t handle) -> uint32_t {
    const ChainProgram::TableRef& ref = p.tables[handle];
    return (static_cast<uint32_t>(ref.element) << 16) | ref.table_idx;
  };
  std::unordered_map<uint32_t, std::pair<int, int>> tables;  // {mut, lookup}
  std::vector<int> nondet_sites(instances_.size(), 0);
  std::vector<int> begin_sites(instances_.size(), 0);
  int cur_elem = -1;  // last kBeginElement in code order; subprograms are
                      // emitted inline inside their element's range.

  for (size_t i = 0; i < p.code.size(); ++i) {
    const Instr& in = p.code[i];
    switch (in.op) {
      case Instr::Op::kJump:
      case Instr::Op::kJumpIfFalse:
      case Instr::Op::kJumpIfTrue:
      case Instr::Op::kLookupPk:
      case Instr::Op::kLookupScan:
      case Instr::Op::kSkipUnlessKind:
        if (in.d <= i) burst_safe_ = false;  // backward jump: no wavefront
        break;
      default:
        break;
    }
    switch (in.op) {
      case Instr::Op::kBeginElement:
        cur_elem = in.b;
        if (in.b >= begin_sites.size() || ++begin_sites[in.b] > 1) {
          burst_safe_ = false;
        }
        break;
      case Instr::Op::kCacheProbe:
        // A cache hit rewrites the lane into a response and fills mutate
        // the ARC lists in message order: scalar loop only.
        burst_safe_ = false;
        break;
      case Instr::Op::kLookupPk:
      case Instr::Op::kLookupScan:
        tables[table_key(in.b)].second++;
        break;
      case Instr::Op::kInsertRow:
        tables[table_key(in.b)].first++;
        break;
      case Instr::Op::kUpdateRows:
        tables[table_key(p.update_specs[in.b].table)].first++;
        break;
      case Instr::Op::kDeleteRows:
        tables[table_key(p.delete_specs[in.b].table)].first++;
        break;
      case Instr::Op::kCall:
        if (!p.functions[in.b]->deterministic) {
          if (cur_elem < 0 ||
              static_cast<size_t>(cur_elem) >= nondet_sites.size() ||
              ++nondet_sites[cur_elem] > 1) {
            burst_safe_ = false;
          }
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [key, counts] : tables) {
    (void)key;
    const auto [mutations, lookups] = counts;
    if (mutations == 0) continue;               // read-only: any order
    if (mutations == 1 && lookups == 0) continue;  // one write site, no reads
    burst_safe_ = false;
  }

  // Prefetch plan: every kLoadField feeding a kLookupPk directly (the shape
  // the compiler emits for `JOIN t ON input.f = t.pk`) names a key field and
  // table whose rows the burst will touch. The plan covers every chain, not
  // only vectorizable ones: the prefetch is a hint, each lookup still
  // probes in full, so tables the chain mutates are fine.
  for (size_t i = 1; i < p.code.size(); ++i) {
    const Instr& lookup = p.code[i];
    if (lookup.op != Instr::Op::kLookupPk) continue;
    const Instr& load = p.code[i - 1];
    if (load.op != Instr::Op::kLoadField || load.a != lookup.a) continue;
    const bool seen = std::any_of(
        prefetch_sites_.begin(), prefetch_sites_.end(),
        [&](const PrefetchSite& s) {
          return s.field_id == load.b && s.table == lookup.b;
        });
    if (!seen) prefetch_sites_.push_back(PrefetchSite{load.b, lookup.b});
  }
  pf_hash_.resize(prefetch_sites_.size() * kMaxBurstLanes);
  if (!burst_safe_) return;

  // Size the SoA register file and lane state once; RunBurst only rebinds
  // slots. bregs_ never resizes afterwards, so &bregs_[i] is stable.
  bregs_.resize(static_cast<size_t>(program_->num_registers) *
                kMaxBurstLanes);
  bslot_.resize(bregs_.size());
  lane_ip_.resize(kMaxBurstLanes);
  lane_join_.resize(kMaxBurstLanes);
  lane_cur_.resize(kMaxBurstLanes);
  lane_ctx_.resize(kMaxBurstLanes);
  // Burst-mode telemetry scratch: one slot per element segment (timestamps,
  // entering-lane counts, entry order) + one seg-entry bitmask per lane.
  bseg_start_.resize(instances_.size());
  bseg_end_.resize(instances_.size());
  bseg_lanes_.resize(instances_.size());
  bseg_order_.resize(instances_.size());
  lane_seg_mask_.resize(kMaxBurstLanes);
}

Value ChainExecutor::TakeBurstReg(uint16_t r, size_t lane, size_t stride) {
  const size_t idx = static_cast<size_t>(r) * stride + lane;
  if (bslot_[idx] == &bregs_[idx]) return std::move(bregs_[idx]);
  return *bslot_[idx];
}

void ChainExecutor::ProcessBurst(Message* msgs, size_t n, int64_t now_ns,
                                 ProcessResult* results) {
  // Each chunk: prefetch, then the wavefront when the analysis allows it,
  // else the scalar loop. A single message has nothing to overlap or
  // amortize. Observability is NOT a fallback condition — the wavefront
  // batches its telemetry (header comment / docs/OBSERVABILITY.md
  // "Burst-mode telemetry").
  size_t off = 0;
  while (off < n) {
    const size_t k = std::min(n - off, kMaxBurstLanes);
    if (k >= 2) PrefetchKeys(msgs + off, k);
    if (burst_safe_ && k >= 2) {
      RunBurst(msgs + off, k, now_ns, results + off);
    } else {
      for (size_t i = off; i < off + k; ++i) {
        results[i] = Process(msgs[i], now_ns);
      }
    }
    off += k;
  }
}

void ChainExecutor::PrefetchKeys(const Message* msgs, size_t k) {
  // Two stages over the whole chunk (NDN-DPDK's resolve-then-prefetch per
  // burst): first every lane's index home slot, so those loads overlap;
  // then, with the slots arriving, every hit row's cells. Both stages run
  // before any lane executes, so the index they read is the one the stage-1
  // hashes were taken against; lanes that later move or erase rows only
  // waste a hint.
  const size_t sites = prefetch_sites_.size();
  for (size_t s = 0; s < sites; ++s) {
    const Table* table = TableAt(prefetch_sites_[s].table);
    const uint16_t fid = prefetch_sites_[s].field_id;
    for (size_t l = 0; l < k; ++l) {
      pf_hash_[s * k + l] =
          table->PrefetchIndexSlot(FieldOrNull(msgs[l], fid));
    }
  }
  for (size_t s = 0; s < sites; ++s) {
    const Table* table = TableAt(prefetch_sites_[s].table);
    for (size_t l = 0; l < k; ++l) {
      table->PrefetchRowCells(pf_hash_[s * k + l]);
    }
  }
}

void ChainExecutor::RunBurst(Message* msgs, size_t k, int64_t now_ns,
                             ProcessResult* results) {
  const ChainProgram& p = *program_;
  const Instr* code = p.code.data();

  // Registers index as [r * k + lane]: a narrow burst keeps its SoA working
  // set dense instead of striding at kMaxBurstLanes.
  const size_t w = k;
  for (size_t r = 0; r < p.num_registers; ++r) {
    for (size_t l = 0; l < k; ++l) {
      bslot_[r * w + l] = &bregs_[r * w + l];
    }
  }
  for (size_t l = 0; l < k; ++l) {
    lane_ip_[l] = 0;
    lane_join_[l] = {};
    lane_cur_[l] = -1;
    lane_ctx_[l] = FunctionContext{};
    lane_ctx_[l].message = &msgs[l];
    lane_ctx_[l].now_ns = now_ns;
    results[l] = ProcessResult::Pass();
  }

  // Burst-mode telemetry state: the wavefront stamps one clock pair per
  // element segment (at its single kBeginElement) and counts entering
  // lanes; FinishBurstTelemetry turns those into batched histogram deltas
  // and sampled span events after the wavefront. One Enabled() load per
  // burst, not per message.
  const bool timing = obs::Enabled();
  int64_t burst_start = 0;
  int cur_seg = -1;
  size_t entered_segs = 0;
  if (timing) {
    burst_start = obs::NowNs();
    for (size_t l = 0; l < k; ++l) lane_seg_mask_[l] = 0;
  }

  // Drop/abort bookkeeping identical to the scalar tier: any non-pass
  // outcome counts as a drop on the element that produced it.
  auto abort_lane = [&](size_t l, std::string message) {
    if (lane_cur_[l] >= 0) instances_[lane_cur_[l]]->NoteDropped();
    results[l].outcome = ProcessOutcome::kDropAbort;
    results[l].abort_message = std::move(message);
    lane_ip_[l] = kLaneDone;
  };

  // The wavefront: ip sweeps forward; at each step every lane that has
  // reached ip executes the instruction (in lane order — this is what makes
  // cross-lane effect order equal scalar message order), then ip advances to
  // the minimum lane ip. Forward-only jumps guarantee progress; kLaneDone
  // falls out of the min when every lane has returned.
  uint32_t ip = 0;
  while (ip != kLaneDone) {
    const Instr& in = code[ip];
    const uint32_t next = ip + 1;
    switch (in.op) {
      case Instr::Op::kLoadConst:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          bslot_[in.a * w + l] = &p.consts[in.b];
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kLoadField:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          bslot_[in.a * w + l] = &FieldOrNull(msgs[l], in.b);
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kLoadJoin:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          if (lane_join_[l].data() == nullptr) {
            abort_lane(l, Status(ErrorCode::kFailedPrecondition,
                                 "join field read outside a JOIN context")
                              .ToString());
            continue;
          }
          if (in.b >= lane_join_[l].size()) {
            abort_lane(l, Status(ErrorCode::kInternal,
                                 "join column out of range")
                              .ToString());
            continue;
          }
          bslot_[in.a * w + l] = &lane_join_[l][in.b];
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kMaterialize:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          const size_t idx = in.a * w + l;
          if (bslot_[idx] != &bregs_[idx]) {
            bregs_[idx] = *bslot_[idx];
            bslot_[idx] = &bregs_[idx];
          }
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kCoerceBool:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          const size_t idx = in.a * w + l;
          bregs_[idx] = Value(ValueTruthy(*bslot_[idx]));
          bslot_[idx] = &bregs_[idx];
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kUnary:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          auto v = EvalUnaryValue(static_cast<dsl::UnaryOp>(in.aux),
                                  *bslot_[in.b * w + l]);
          if (!v.ok()) {
            abort_lane(l, v.error().ToString());
            continue;
          }
          const size_t idx = in.a * w + l;
          bregs_[idx] = std::move(v).value();
          bslot_[idx] = &bregs_[idx];
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kBinary: {
        const dsl::BinaryOp op = static_cast<dsl::BinaryOp>(in.aux);
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          const size_t idx = in.a * w + l;
          bool fast = false;
          if (FastCompare(op, *bslot_[in.b * w + l], *bslot_[in.c * w + l],
                          &fast)) {
            bregs_[idx] = Value(fast);
            bslot_[idx] = &bregs_[idx];
            lane_ip_[l] = next;
            continue;
          }
          auto v = EvalBinaryValue(op, *bslot_[in.b * w + l],
                                   *bslot_[in.c * w + l]);
          if (!v.ok()) {
            abort_lane(l, v.error().ToString());
            continue;
          }
          bregs_[idx] = std::move(v).value();
          bslot_[idx] = &bregs_[idx];
          lane_ip_[l] = next;
        }
        break;
      }
      case Instr::Op::kCall:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          if (in.aux != 0) {  // len() reads the size in place
            const Value& v0 = *bslot_[in.c * w + l];
            if (v0.type() == ValueType::kText) {
              const size_t idx = in.a * w + l;
              bregs_[idx] = Value(static_cast<int64_t>(v0.AsText().size()));
              bslot_[idx] = &bregs_[idx];
              lane_ip_[l] = next;
              continue;
            }
            if (v0.type() == ValueType::kBytes) {
              const size_t idx = in.a * w + l;
              bregs_[idx] = Value(static_cast<int64_t>(v0.AsBytes().size()));
              bslot_[idx] = &bregs_[idx];
              lane_ip_[l] = next;
              continue;
            }
          }
          call_args_.clear();
          for (uint32_t i = 0; i < in.d; ++i) {
            call_args_.push_back(
                TakeBurstReg(static_cast<uint16_t>(in.c + i), l, w));
          }
          auto v = p.functions[in.b]->eval(lane_ctx_[l], call_args_);
          if (!v.ok()) {
            abort_lane(l, v.error().ToString());
            continue;
          }
          const size_t idx = in.a * w + l;
          bregs_[idx] = std::move(v).value();
          bslot_[idx] = &bregs_[idx];
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kJump:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] == ip) lane_ip_[l] = in.d;
        }
        break;
      case Instr::Op::kJumpIfFalse:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          lane_ip_[l] = ValueTruthy(*bslot_[in.a * w + l]) ? next : in.d;
        }
        break;
      case Instr::Op::kJumpIfTrue:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          lane_ip_[l] = ValueTruthy(*bslot_[in.a * w + l]) ? in.d : next;
        }
        break;
      case Instr::Op::kLookupPk: {
        // Rows are warm from PrefetchKeys; every lane still probes in full.
        const Table* table = TableAt(in.b);
        const size_t ncols = table->schema().size();
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          const Value* match = table->LookupSingleKey(*bslot_[in.a * w + l]);
          if (match == nullptr) {
            lane_ip_[l] = in.d;
          } else {
            lane_join_[l] = rpc::RowRef(match, ncols);
            lane_ip_[l] = next;
          }
        }
        break;
      }
      case Instr::Op::kLookupScan: {
        const Table* table = TableAt(in.b);
        const size_t ncols = table->schema().size();
        const size_t col = in.c;
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          const Value& key = *bslot_[in.a * w + l];
          const Value* match = table->FindFirst(
              [&](rpc::RowRef row) { return row[col].EqualsValue(key); });
          if (match == nullptr) {
            lane_ip_[l] = in.d;
          } else {
            lane_join_[l] = rpc::RowRef(match, ncols);
            lane_ip_[l] = next;
          }
        }
        break;
      }
      case Instr::Op::kClearJoin:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          lane_join_[l] = {};
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kStoreField:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          msgs[l].SetField(field_gids_[in.b], TakeBurstReg(in.a, l, w));
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kProject: {
        const std::vector<rpc::FieldId>& keep = keep_gids_[in.b];
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          msgs[l].ProjectFields(keep);
          lane_ip_[l] = next;
        }
        break;
      }
      case Instr::Op::kRouteDest:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          if (const Value* dest = msgs[l].FindField(dest_fid_);
              dest != nullptr && dest->type() == ValueType::kInt) {
            msgs[l].set_destination(
                static_cast<rpc::EndpointId>(dest->AsInt()));
          }
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kInsertRow: {
        // Lanes insert in lane order == the order scalar execution would
        // have visited the messages: identical row sequence.
        Table* table = TableAt(in.b);
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          ins_row_.clear();
          for (uint32_t i = 0; i < in.d; ++i) {
            ins_row_.push_back(
                TakeBurstReg(static_cast<uint16_t>(in.a + i), l, w));
          }
          if (Status s = table->InsertFrom(ins_row_); !s.ok()) {
            abort_lane(l, s.ToString());
            continue;
          }
          lane_ip_[l] = next;
        }
        break;
      }
      case Instr::Op::kUpdateRows:
        // Row-loop subprograms run per lane (in lane order) on the scalar
        // register file — exactly one mutation site per table, so lane
        // order here is scalar message order for that table.
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          RunState rs;
          rs.msg = &msgs[l];
          rs.fn_ctx = lane_ctx_[l];
          rs.cur = lane_cur_[l];
          if (Status s = ExecUpdate(p.update_specs[in.b], rs); !s.ok()) {
            abort_lane(l, s.ToString());
            continue;
          }
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kDeleteRows:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          RunState rs;
          rs.msg = &msgs[l];
          rs.fn_ctx = lane_ctx_[l];
          rs.cur = lane_cur_[l];
          if (Status s = ExecDelete(p.delete_specs[in.b], rs); !s.ok()) {
            abort_lane(l, s.ToString());
            continue;
          }
          lane_ip_[l] = next;
        }
        break;
      case Instr::Op::kDrop:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          if (lane_cur_[l] >= 0) instances_[lane_cur_[l]]->NoteDropped();
          results[l].outcome = in.aux != 0 ? ProcessOutcome::kDropSilent
                                           : ProcessOutcome::kDropAbort;
          results[l].abort_message = p.strings[in.b];
          lane_ip_[l] = kLaneDone;
        }
        break;
      case Instr::Op::kBeginElement: {
        // Lane order == message order, so this element's processed count
        // and nonce sequence advance exactly as n scalar calls would.
        ElementInstance* inst = instances_[in.b];
        if (timing) {
          // Segment boundary: close the previous segment's window, open
          // this one — one clock read per element per burst, amortized
          // over every lane (the burst-granularity guarantee).
          const int64_t now = obs::NowNs();
          if (cur_seg >= 0) bseg_end_[cur_seg] = now;
          cur_seg = in.b;
          bseg_start_[in.b] = now;
          bseg_lanes_[in.b] = 0;
          bseg_order_[entered_segs++] = in.b;
          const uint64_t bit = in.b < 64 ? (1ull << in.b) : 0;
          for (size_t l = 0; l < k; ++l) {
            if (lane_ip_[l] != ip) continue;
            inst->NoteProcessed();
            lane_ctx_[l].rng = &inst->rng();
            lane_ctx_[l].nonce = inst->BumpNonce();
            lane_cur_[l] = in.b;
            lane_join_[l] = {};
            lane_ip_[l] = next;
            ++bseg_lanes_[in.b];
            lane_seg_mask_[l] |= bit;
          }
        } else {
          for (size_t l = 0; l < k; ++l) {
            if (lane_ip_[l] != ip) continue;
            inst->NoteProcessed();
            lane_ctx_[l].rng = &inst->rng();
            lane_ctx_[l].nonce = inst->BumpNonce();
            lane_cur_[l] = in.b;
            lane_join_[l] = {};
            lane_ip_[l] = next;
          }
        }
        break;
      }
      case Instr::Op::kSkipUnlessKind:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          const bool hit =
              (in.aux & (1u << static_cast<uint8_t>(msgs[l].kind()))) != 0;
          lane_ip_[l] = hit ? next : in.d;
        }
        break;
      case Instr::Op::kReturnPass:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          results[l] = ProcessResult::Pass();
          lane_ip_[l] = kLaneDone;
        }
        break;
      case Instr::Op::kReturnValue:
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          abort_lane(l, Status(ErrorCode::kInternal,
                               "return_value reached outside a subprogram")
                            .ToString());
        }
        break;
      case Instr::Op::kCacheProbe:  // AnalyzeBurst keeps caches scalar
        for (size_t l = 0; l < k; ++l) {
          if (lane_ip_[l] != ip) continue;
          abort_lane(l, Status(ErrorCode::kInternal,
                               "cache_probe reached on the burst path")
                            .ToString());
        }
        break;
    }
    uint32_t min_ip = kLaneDone;
    for (size_t l = 0; l < k; ++l) min_ip = std::min(min_ip, lane_ip_[l]);
    ip = min_ip;
  }

  if (timing && cur_seg >= 0) {
    FinishBurstTelemetry(msgs, k, burst_start, cur_seg, entered_segs);
  }
}

void ChainExecutor::FinishBurstTelemetry(Message* msgs, size_t k,
                                         int64_t burst_start, int cur_seg,
                                         size_t entered_segs) {
  const int64_t burst_end = obs::NowNs();
  bseg_end_[cur_seg] = burst_end;
  // One batched histogram delta per element segment: count advances by the
  // number of lanes that entered (exact parity with n scalar runs, enforced
  // by test_burst), the observed value is the segment's wavefront window
  // amortized over those lanes — burst-granularity timing by contract.
  for (size_t s = 0; s < entered_segs; ++s) {
    const uint16_t e = bseg_order_[s];
    const uint32_t lanes = bseg_lanes_[e];
    if (lanes == 0) continue;
    const double mean = static_cast<double>(bseg_end_[e] - bseg_start_[e]) /
                        static_cast<double>(lanes);
    elem_hist_[e]->ObserveN(mean, lanes);
  }
  obs::Tracer& tracer = obs::Tracer::Default();
  if (!tracer.tracing_enabled()) return;
  // POD trace records straight into this worker's SPSC ring: one burst
  // marker, then for each sampled lane a root "rpc" span (the whole burst
  // window) with one child span per segment the lane entered, sharing the
  // segment's burst timestamps. No strings, no allocation, no locks.
  obs::TraceEvent burst_ev;
  burst_ev.kind = obs::EventKind::kBurst;
  burst_ev.name_id = burst_name_id_;
  burst_ev.processor_id = proc_name_id_;
  burst_ev.tier = static_cast<uint8_t>(trace_tier_);
  burst_ev.start_ns = burst_start;
  burst_ev.end_ns = burst_end;
  burst_ev.arg = k;
  obs::EmitEvent(burst_ev);
  uint32_t sampled = 0;
  uint64_t spans_emitted = 0;
  for (size_t l = 0; l < k; ++l) {
    const uint64_t id = msgs[l].id();
    if (!tracer.ShouldSample(id)) continue;
    ++sampled;
    obs::TraceEvent root;
    root.kind = obs::EventKind::kSpan;
    root.trace_id = id;
    root.span_id = obs::NextSpanId();
    root.name_id = rpc_name_id_;
    root.processor_id = proc_name_id_;
    root.tier = static_cast<uint8_t>(trace_tier_);
    root.start_ns = burst_start;
    root.end_ns = burst_end;
    root.arg = k;
    obs::EmitEvent(root);
    ++spans_emitted;
    for (size_t s = 0; s < entered_segs; ++s) {
      const uint16_t e = bseg_order_[s];
      // Skip segments this lane never entered (tracked exactly for the
      // first 64 segments; beyond that the span is included).
      if (e < 64 && (lane_seg_mask_[l] & (1ull << e)) == 0) continue;
      obs::TraceEvent child = root;
      child.span_id = obs::NextSpanId();
      child.parent_id = root.span_id;
      child.name_id = elem_name_ids_[e];
      child.start_ns = bseg_start_[e];
      child.end_ns = bseg_end_[e];
      child.arg = bseg_lanes_[e];
      obs::EmitEvent(child);
      ++spans_emitted;
    }
  }
  if (sampled > 0) {
    traces_sampled_->Inc(sampled);
    spans_total_->Inc(spans_emitted);
  }
}

}  // namespace adn::ir
