#include "ir/program.h"

#include <algorithm>
#include <string>

#include "ir/expr.h"
#include "obs/trace.h"

namespace adn::ir {

using rpc::Message;
using rpc::Row;
using rpc::RowRef;
using rpc::Table;
using rpc::Value;
using rpc::ValueType;

std::string_view OpName(Instr::Op op) {
  switch (op) {
    case Instr::Op::kLoadConst: return "load_const";
    case Instr::Op::kLoadField: return "load_field";
    case Instr::Op::kLoadJoin: return "load_join";
    case Instr::Op::kMaterialize: return "materialize";
    case Instr::Op::kCoerceBool: return "coerce_bool";
    case Instr::Op::kUnary: return "unary";
    case Instr::Op::kBinary: return "binary";
    case Instr::Op::kCall: return "call";
    case Instr::Op::kJump: return "jump";
    case Instr::Op::kJumpIfFalse: return "jump_if_false";
    case Instr::Op::kJumpIfTrue: return "jump_if_true";
    case Instr::Op::kLookupPk: return "lookup_pk";
    case Instr::Op::kLookupScan: return "lookup_scan";
    case Instr::Op::kClearJoin: return "clear_join";
    case Instr::Op::kStoreField: return "store_field";
    case Instr::Op::kProject: return "project";
    case Instr::Op::kRouteDest: return "route_dest";
    case Instr::Op::kInsertRow: return "insert_row";
    case Instr::Op::kUpdateRows: return "update_rows";
    case Instr::Op::kDeleteRows: return "delete_rows";
    case Instr::Op::kDrop: return "drop";
    case Instr::Op::kBeginElement: return "begin_element";
    case Instr::Op::kBuiltin: return "builtin";
    case Instr::Op::kSkipUnlessKind: return "skip_unless_kind";
    case Instr::Op::kReturnPass: return "return_pass";
    case Instr::Op::kReturnValue: return "return_value";
  }
  return "?";
}

uint32_t ChainProgram::TotalInstrCount() const {
  return static_cast<uint32_t>(code.size());
}

std::string ChainProgram::DebugString() const {
  std::string out;
  out += "ChainProgram: " + std::to_string(code.size()) + " instrs, " +
         std::to_string(num_registers) + " regs, " +
         std::to_string(elements.size()) + " elements\n";
  for (size_t i = 0; i < code.size(); ++i) {
    for (const ElementSeg& e : elements) {
      if (e.entry_ip == i) out += "-- element " + e.name + ":\n";
    }
    const Instr& in = code[i];
    out += "  " + std::to_string(i) + ": " + std::string(OpName(in.op));
    switch (in.op) {
      case Instr::Op::kLoadConst:
        out += " r" + std::to_string(in.a) + " <- " +
               consts[in.b].ToDisplayString();
        break;
      case Instr::Op::kLoadField:
      case Instr::Op::kStoreField:
        out += " r" + std::to_string(in.a) + " '" + field_names[in.b] + "'";
        break;
      case Instr::Op::kLoadJoin:
        out += " r" + std::to_string(in.a) + " col" + std::to_string(in.b);
        break;
      case Instr::Op::kUnary:
        out += " r" + std::to_string(in.a) + " r" + std::to_string(in.b);
        break;
      case Instr::Op::kBinary:
        out += " r" + std::to_string(in.a) + " <- r" + std::to_string(in.b) +
               " " + std::string(dsl::BinaryOpName(
                         static_cast<dsl::BinaryOp>(in.aux))) +
               " r" + std::to_string(in.c);
        break;
      case Instr::Op::kCall:
        out += " r" + std::to_string(in.a) + " <- " + functions[in.b]->name +
               "(r" + std::to_string(in.c) + "..+" + std::to_string(in.d) +
               ")";
        break;
      case Instr::Op::kJump:
        out += " -> " + std::to_string(in.d);
        break;
      case Instr::Op::kJumpIfFalse:
      case Instr::Op::kJumpIfTrue:
        out += " r" + std::to_string(in.a) + " -> " + std::to_string(in.d);
        break;
      case Instr::Op::kLookupPk:
      case Instr::Op::kLookupScan:
        out += " key=r" + std::to_string(in.a) + " " + tables[in.b].name +
               " miss-> " + std::to_string(in.d);
        break;
      case Instr::Op::kInsertRow:
        out += " " + tables[in.b].name + " r" + std::to_string(in.a) + "..+" +
               std::to_string(in.d);
        break;
      case Instr::Op::kUpdateRows:
      case Instr::Op::kDeleteRows:
        out += " spec" + std::to_string(in.b);
        break;
      case Instr::Op::kDrop:
        out += in.aux != 0 ? " silent" : " abort";
        out += " '" + strings[in.b] + "'";
        break;
      case Instr::Op::kBeginElement:
      case Instr::Op::kBuiltin:
        out += " " + elements[in.b].name;
        break;
      case Instr::Op::kSkipUnlessKind:
        out += " mask=" + std::to_string(in.aux) + " -> " +
               std::to_string(in.d);
        break;
      case Instr::Op::kMaterialize:
      case Instr::Op::kReturnValue:
        out += " r" + std::to_string(in.a);
        break;
      default:
        break;
    }
    out += "\n";
  }
  return out;
}

// Same-concrete-type comparison fast path, mirroring EvalComparison exactly:
// kEq/kNe follow EqualsValue (IEEE == for floats, so NaN != NaN), the
// relational ops derive from CompareTo's three-way result (NaN yields 0, so
// <= and >= both hold against NaN). Nulls, mixed types, and every other
// value type fall back to EvalBinaryValue.
namespace {
bool FastCompare(dsl::BinaryOp op, const Value& a, const Value& b,
                 bool* out) {
  const ValueType t = a.type();
  if (t != b.type()) return false;
  int c = 0;
  switch (t) {
    case ValueType::kInt: {
      const int64_t x = a.AsInt(), y = b.AsInt();
      if (op == dsl::BinaryOp::kEq) { *out = x == y; return true; }
      if (op == dsl::BinaryOp::kNe) { *out = x != y; return true; }
      c = x < y ? -1 : (x > y ? 1 : 0);
      break;
    }
    case ValueType::kFloat: {
      const double x = a.AsFloat(), y = b.AsFloat();
      if (op == dsl::BinaryOp::kEq) { *out = x == y; return true; }
      if (op == dsl::BinaryOp::kNe) { *out = x != y; return true; }
      c = x < y ? -1 : (x > y ? 1 : 0);
      break;
    }
    case ValueType::kText: {
      const std::string_view x = a.AsText();
      const std::string_view y = b.AsText();
      if (op == dsl::BinaryOp::kEq) { *out = x == y; return true; }
      if (op == dsl::BinaryOp::kNe) { *out = x != y; return true; }
      const int r = x.compare(y);
      c = r < 0 ? -1 : (r > 0 ? 1 : 0);
      break;
    }
    default:
      return false;
  }
  switch (op) {
    case dsl::BinaryOp::kLt: *out = c < 0; return true;
    case dsl::BinaryOp::kLe: *out = c <= 0; return true;
    case dsl::BinaryOp::kGt: *out = c > 0; return true;
    case dsl::BinaryOp::kGe: *out = c >= 0; return true;
    default: return false;  // arithmetic/logical op: generic path
  }
}
}  // namespace

ChainExecutor::ChainExecutor(std::shared_ptr<const ChainProgram> program,
                             std::vector<ElementInstance*> instances)
    : program_(std::move(program)), instances_(std::move(instances)) {
  regs_.resize(program_->num_registers);
  slot_.resize(program_->num_registers);
  for (size_t i = 0; i < regs_.size(); ++i) slot_[i] = &regs_[i];
  // Field-name resolution happens here, once: compiled programs carry their
  // global ids; hand-built programs get them interned now.
  if (program_->field_gids.size() == program_->field_names.size()) {
    field_gids_ = program_->field_gids;
  } else {
    field_gids_.reserve(program_->field_names.size());
    for (const std::string& name : program_->field_names) {
      field_gids_.push_back(rpc::InternFieldName(name));
    }
  }
  keep_gids_.reserve(program_->keep_lists.size());
  for (const std::vector<uint16_t>& keep : program_->keep_lists) {
    std::vector<rpc::FieldId> gids;
    gids.reserve(keep.size());
    for (uint16_t fid : keep) gids.push_back(field_gids_[fid]);
    keep_gids_.push_back(std::move(gids));
  }
  dest_fid_ = rpc::InternFieldName(kDestinationField);
  elem_hist_.reserve(instances_.size());
  elem_name_ids_.reserve(instances_.size());
  for (const ElementInstance* inst : instances_) {
    elem_hist_.push_back(&obs::MetricsRegistry::Default().GetHistogram(
        "adn_element_latency_ns", "element=\"" + inst->name() + "\""));
    elem_name_ids_.push_back(obs::InternName(inst->name()));
  }
  // Trace identity and obs self-metrics, resolved once so sampled lanes
  // emit span events with zero string work or registry lookups.
  burst_name_id_ = obs::InternName("burst");
  lane_root_.kind = obs::EventKind::kSpan;
  lane_root_.name_id = obs::InternName("rpc");
  lane_root_.processor_id = obs::InternName("engine");
  spans_total_ =
      &obs::MetricsRegistry::Default().GetCounter("adn_obs_spans_total");
  traces_sampled_ = &obs::MetricsRegistry::Default().GetCounter(
      "adn_obs_traces_sampled_total");
  chunk_processed_.assign(instances_.size(), 0);
  seg_ns_.assign(instances_.size(), -1);
  PlanPrefetch();
}

Value ChainExecutor::TakeReg(uint16_t r) {
  if (slot_[r] == &regs_[r]) return std::move(regs_[r]);
  return *slot_[r];
}

Table* ChainExecutor::TableAt(uint16_t handle) {
  const ChainProgram::TableRef& ref = program_->tables[handle];
  return &instances_[ref.element]->TableAt(ref.table_idx);
}

// Evaluate a subprogram (an UPDATE/DELETE WHERE clause or assignment value)
// starting at `entry` until kReturnValue. Subprograms contain only
// expression-level opcodes — the compiler never emits table/message mutation
// inside them.
Result<Value> ChainExecutor::RunSub(uint32_t entry, RunState& rs) {
  const ChainProgram& p = *program_;
  const Instr* code = p.code.data();
  uint32_t ip = entry;
  for (;;) {
    const Instr& in = code[ip++];
    switch (in.op) {
      case Instr::Op::kLoadConst:
        slot_[in.a] = &p.consts[in.b];
        break;
      case Instr::Op::kLoadField:
        slot_[in.a] = &FieldOrNull(*rs.msg, in.b);
        break;
      case Instr::Op::kLoadJoin: {
        if (rs.joined_row.data() == nullptr) {
          return Error(ErrorCode::kFailedPrecondition,
                       "join field read outside a JOIN context");
        }
        if (in.b >= rs.joined_row.size()) {
          return Error(ErrorCode::kInternal, "join column out of range");
        }
        slot_[in.a] = &rs.joined_row[in.b];
        break;
      }
      case Instr::Op::kMaterialize:
        if (slot_[in.a] != &regs_[in.a]) {
          regs_[in.a] = *slot_[in.a];
          slot_[in.a] = &regs_[in.a];
        }
        break;
      case Instr::Op::kCoerceBool: {
        const bool t = ValueTruthy(*slot_[in.a]);
        regs_[in.a] = Value(t);
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kUnary: {
        ADN_ASSIGN_OR_RETURN(
            Value v, EvalUnaryValue(static_cast<dsl::UnaryOp>(in.aux),
                                    *slot_[in.b]));
        regs_[in.a] = std::move(v);
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kBinary: {
        bool fast = false;
        if (FastCompare(static_cast<dsl::BinaryOp>(in.aux), *slot_[in.b],
                        *slot_[in.c], &fast)) {
          regs_[in.a] = Value(fast);
          slot_[in.a] = &regs_[in.a];
          break;
        }
        ADN_ASSIGN_OR_RETURN(
            Value v, EvalBinaryValue(static_cast<dsl::BinaryOp>(in.aux),
                                     *slot_[in.b], *slot_[in.c]));
        regs_[in.a] = std::move(v);
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kCall: {
        // len() on a borrowed register reads the size in place (same fast
        // path as the interpreter); the generic path moves owned arguments
        // and copies borrowed ones.
        if (in.aux != 0) {
          const Value& v0 = *slot_[in.c];
          if (v0.type() == ValueType::kText) {
            regs_[in.a] = Value(static_cast<int64_t>(v0.AsText().size()));
            slot_[in.a] = &regs_[in.a];
            break;
          }
          if (v0.type() == ValueType::kBytes) {
            regs_[in.a] = Value(static_cast<int64_t>(v0.AsBytes().size()));
            slot_[in.a] = &regs_[in.a];
            break;
          }
        }
        call_args_.clear();
        for (uint32_t i = 0; i < in.d; ++i) {
          call_args_.push_back(TakeReg(static_cast<uint16_t>(in.c + i)));
        }
        ADN_ASSIGN_OR_RETURN(Value v,
                             p.functions[in.b]->eval(rs.fn_ctx, call_args_));
        regs_[in.a] = std::move(v);
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kJump:
        ip = in.d;
        break;
      case Instr::Op::kJumpIfFalse:
        if (!ValueTruthy(*slot_[in.a])) ip = in.d;
        break;
      case Instr::Op::kJumpIfTrue:
        if (ValueTruthy(*slot_[in.a])) ip = in.d;
        break;
      case Instr::Op::kReturnValue:
        return *slot_[in.a];
      default:
        return Error(ErrorCode::kInternal,
                     "opcode not allowed in subprogram: " +
                         std::string(OpName(in.op)));
    }
  }
}

// Mirrors ElementInstance::RunStatement's kUpdate: two-phase row collection
// with the row bound as the join context, then upsert re-insertion. A point
// update that assigns no key column writes its cells into the hit row.
Status ChainExecutor::ExecUpdate(const ChainProgram::UpdateSpec& spec,
                                 RunState& rs) {
  Table* table = TableAt(spec.table);
  if (spec.key_entry != ChainProgram::kNoSub) {
    // Point update (WHERE pk = message expr): one index lookup, no scan.
    rs.joined_row = {};
    auto key = RunSub(spec.key_entry, rs);
    if (!key.ok()) return key.status();
    if (key.value().is_null()) return Status::Ok();  // SQL: NULL never matches
    const Value* hit = table->LookupSingleKey(key.value());
    if (hit == nullptr) return Status::Ok();
    const RowRef row(hit, table->schema().size());
    if (spec.in_place) return UpdateInPlace(spec, *table, row, rs);
    Row& next = UpdateScratch(0);
    next.assign(row.begin(), row.end());
    rs.joined_row = row;
    for (const auto& [col, entry] : spec.assignments) {
      auto v = RunSub(entry, rs);
      if (!v.ok()) {
        rs.joined_row = {};
        return v.status();
      }
      next[col] = std::move(v).value();
    }
    rs.joined_row = {};
    return table->InsertFrom(next);
  }
  size_t updated = 0;
  for (const RowRef row : table->rows()) {
    rs.joined_row = row;
    bool hit = true;
    if (spec.where_entry != ChainProgram::kNoSub) {
      auto pass = RunSub(spec.where_entry, rs);
      if (!pass.ok()) {
        rs.joined_row = {};
        return pass.status();
      }
      hit = ValueTruthy(pass.value());
    }
    if (!hit) continue;
    // Copy into a reused scratch row, so steady-state UPDATE allocates
    // nothing.
    Row& next = UpdateScratch(updated++);
    next.assign(row.begin(), row.end());
    for (const auto& [col, entry] : spec.assignments) {
      auto v = RunSub(entry, rs);
      if (!v.ok()) {
        rs.joined_row = {};
        return v.status();
      }
      next[col] = std::move(v).value();
    }
  }
  rs.joined_row = {};
  for (size_t i = 0; i < updated; ++i) {
    ADN_RETURN_IF_ERROR(table->InsertFrom(upd_scratch_[i]));
  }
  return Status::Ok();
}

Row& ChainExecutor::UpdateScratch(size_t i) {
  if (i == upd_scratch_.size()) upd_scratch_.emplace_back();
  return upd_scratch_[i];
}

Status ChainExecutor::UpdateInPlace(const ChainProgram::UpdateSpec& spec,
                                    Table& table, RowRef hit, RunState& rs) {
  // Evaluate every assignment against the old row first (`SET a = b, b = a`
  // swaps), then type-check what Insert would: the last value assigned to
  // each column, failing on the lowest such column. Only then write.
  std::vector<Value>& vals = upd_vals_;
  vals.clear();
  rs.joined_row = hit;
  for (const auto& [col, entry] : spec.assignments) {
    auto v = RunSub(entry, rs);
    if (!v.ok()) {
      rs.joined_row = {};
      return v.status();
    }
    vals.push_back(std::move(v).value());
  }
  rs.joined_row = {};
  const size_t n = spec.assignments.size();
  size_t bad = n;
  for (size_t i = 0; i < n; ++i) {
    const uint16_t col = spec.assignments[i].first;
    bool overwritten = false;
    for (size_t j = i + 1; j < n; ++j) {
      overwritten = overwritten || spec.assignments[j].first == col;
    }
    if (overwritten || table.CheckCell(col, vals[i]).ok()) continue;
    if (bad == n || col < spec.assignments[bad].first) bad = i;
  }
  if (bad != n) return table.CheckCell(spec.assignments[bad].first, vals[bad]);
  Value* row = table.MutableRow(hit.data());
  for (size_t i = 0; i < n; ++i) {
    row[spec.assignments[i].first] = std::move(vals[i]);
  }
  vals.clear();
  return Status::Ok();
}

Status ChainExecutor::ExecDelete(const ChainProgram::DeleteSpec& spec,
                                 RunState& rs) {
  Table* table = TableAt(spec.table);
  if (spec.where_entry == ChainProgram::kNoSub) {
    table->Clear();
    return Status::Ok();
  }
  std::vector<char> doomed(table->RowCount(), 0);
  size_t i = 0;
  for (const RowRef row : table->rows()) {
    rs.joined_row = row;
    auto pass = RunSub(spec.where_entry, rs);
    if (!pass.ok()) {
      rs.joined_row = {};
      return pass.status();
    }
    doomed[i++] = ValueTruthy(pass.value()) ? 1 : 0;
  }
  rs.joined_row = {};
  size_t idx = 0;
  table->EraseWhere([&](RowRef) { return doomed[idx++] != 0; });
  return Status::Ok();
}

ProcessResult ChainExecutor::Process(Message& m, int64_t now_ns) {
  if (!obs::Enabled()) return Run<false>(m, now_ns, false, 0);
  const uint64_t sampled = BeginChunk(&m, 1);
  ProcessResult r = RunLane(m, now_ns, sampled != 0, 0);
  EndChunk();
  return r;
}

ProcessResult ChainExecutor::RunLane(Message& m, int64_t now_ns,
                                     bool sampled, int64_t clock) {
  // Only a lane that may be the first to enter a not yet measured element,
  // a sampled lane, or one inside the caller's RpcTraceScope needs the
  // timed loop. Every other lane runs the plain one; EndChunk still counts
  // it through its elements' processed counters.
  if (!sampled && unmeasured_ == 0 && chunk_trace_ == nullptr) {
    return Run<false>(m, now_ns, false, 0);
  }
  return Run<true>(m, now_ns, sampled, clock);
}

template <bool kTiming>
ProcessResult ChainExecutor::Run(Message& m, int64_t now_ns, bool sampled,
                                 int64_t clock) {
  const ChainProgram& p = *program_;
  RunState rs;
  rs.msg = &m;
  rs.fn_ctx.message = &m;
  rs.fn_ctx.now_ns = now_ns;

  // Per-element-segment observability, compiled out when kTiming is
  // off. `trace` is non-null only inside a sampled RpcTraceScope (an
  // EngineChain or sidecar caller), whose context collects the spans.
  // Otherwise a `sampled` lane writes its own POD span tree: the root opens
  // now, each element segment becomes a child as it closes, and the root
  // is written when the lane ends. The clock is read only for the first
  // lane of the chunk to enter a segment (the histogram's measured lane)
  // and for sampled lanes, once per segment boundary: a reading that ends
  // one segment starts the next, and a nonzero `clock` (a reading the
  // caller just took) starts the first.
  obs::TraceContext* trace = kTiming ? chunk_trace_ : nullptr;
  sampled = kTiming && sampled;
  obs::TraceEvent& root = lane_root_;
  int64_t boundary = kTiming ? clock : 0;  // reading at this boundary
  if (sampled) {
    root.trace_id = m.id();
    root.span_id = obs::NextSpanId();
    root.start_ns = boundary = boundary != 0 ? boundary : obs::NowNs();
  }
  constexpr size_t kNoSpan = static_cast<size_t>(-1);
  size_t open_span = kNoSpan;
  bool measured = false;  // this lane read the clock entering rs.cur
  bool first = false;     // ... as the segment's first lane this chunk
  int64_t seg_start = 0;
  auto end_segment = [&] {
    if (!kTiming) return;
    if (measured) {
      boundary = obs::NowNs();
      if (first) {
        seg_ns_[static_cast<size_t>(rs.cur)] = boundary - seg_start;
        --unmeasured_;
      }
      if (sampled) EmitElementSpan(root, rs.cur, seg_start, boundary);
      measured = false;
    }
    if (trace != nullptr && open_span != kNoSpan) {
      trace->CloseSpan(open_span);
      open_span = kNoSpan;
    }
  };
  auto end_lane = [&] {
    end_segment();
    if (sampled) {
      root.end_ns = boundary;  // the last segment's end, or the start
      obs::EmitEvent(root);
      ++chunk_sampled_;
      ++chunk_spans_;
    }
  };

  // Matches the interpreter's contract: any non-pass outcome (drops and
  // runtime errors alike) counts as a drop on the element that produced it.
  auto abort_with = [&](std::string message) {
    end_lane();
    if (rs.cur >= 0) instances_[rs.cur]->NoteDropped();
    ProcessResult r;
    r.outcome = ProcessOutcome::kDropAbort;
    r.abort_message = std::move(message);
    return r;
  };

  const Instr* code = p.code.data();
  uint32_t ip = 0;
  for (;;) {
    const Instr& in = code[ip++];
    switch (in.op) {
      case Instr::Op::kLoadConst:
        slot_[in.a] = &p.consts[in.b];
        break;
      case Instr::Op::kLoadField:
        slot_[in.a] = &FieldOrNull(m, in.b);
        break;
      case Instr::Op::kLoadJoin: {
        if (rs.joined_row.data() == nullptr) {
          return abort_with(
              Status(ErrorCode::kFailedPrecondition,
                     "join field read outside a JOIN context")
                  .ToString());
        }
        if (in.b >= rs.joined_row.size()) {
          return abort_with(
              Status(ErrorCode::kInternal, "join column out of range")
                  .ToString());
        }
        slot_[in.a] = &rs.joined_row[in.b];
        break;
      }
      case Instr::Op::kMaterialize:
        if (slot_[in.a] != &regs_[in.a]) {
          regs_[in.a] = *slot_[in.a];
          slot_[in.a] = &regs_[in.a];
        }
        break;
      case Instr::Op::kCoerceBool: {
        const bool t = ValueTruthy(*slot_[in.a]);
        regs_[in.a] = Value(t);
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kUnary: {
        auto v = EvalUnaryValue(static_cast<dsl::UnaryOp>(in.aux),
                                *slot_[in.b]);
        if (!v.ok()) return abort_with(v.error().ToString());
        regs_[in.a] = std::move(v).value();
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kBinary: {
        bool fast = false;
        if (FastCompare(static_cast<dsl::BinaryOp>(in.aux), *slot_[in.b],
                        *slot_[in.c], &fast)) {
          regs_[in.a] = Value(fast);
          slot_[in.a] = &regs_[in.a];
          break;
        }
        auto v = EvalBinaryValue(static_cast<dsl::BinaryOp>(in.aux),
                                 *slot_[in.b], *slot_[in.c]);
        if (!v.ok()) return abort_with(v.error().ToString());
        regs_[in.a] = std::move(v).value();
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kCall: {
        if (in.aux != 0) {
          const Value& v0 = *slot_[in.c];
          if (v0.type() == ValueType::kText) {
            regs_[in.a] = Value(static_cast<int64_t>(v0.AsText().size()));
            slot_[in.a] = &regs_[in.a];
            break;
          }
          if (v0.type() == ValueType::kBytes) {
            regs_[in.a] = Value(static_cast<int64_t>(v0.AsBytes().size()));
            slot_[in.a] = &regs_[in.a];
            break;
          }
        }
        call_args_.clear();
        for (uint32_t i = 0; i < in.d; ++i) {
          call_args_.push_back(TakeReg(static_cast<uint16_t>(in.c + i)));
        }
        auto v = p.functions[in.b]->eval(rs.fn_ctx, call_args_);
        if (!v.ok()) return abort_with(v.error().ToString());
        regs_[in.a] = std::move(v).value();
        slot_[in.a] = &regs_[in.a];
        break;
      }
      case Instr::Op::kJump:
        ip = in.d;
        break;
      case Instr::Op::kJumpIfFalse:
        if (!ValueTruthy(*slot_[in.a])) ip = in.d;
        break;
      case Instr::Op::kJumpIfTrue:
        if (ValueTruthy(*slot_[in.a])) ip = in.d;
        break;
      case Instr::Op::kLookupPk: {
        const Table* table = TableAt(in.b);
        const Value* match = table->LookupSingleKey(*slot_[in.a]);
        if (match == nullptr) {
          ip = in.d;
        } else {
          rs.joined_row = RowRef(match, table->schema().size());
        }
        break;
      }
      case Instr::Op::kLookupScan: {
        const Table* table = TableAt(in.b);
        const Value& key = *slot_[in.a];
        const size_t col = in.c;
        const Value* match = table->FindFirst(
            [&](RowRef row) { return row[col].EqualsValue(key); });
        if (match == nullptr) {
          ip = in.d;
        } else {
          rs.joined_row = RowRef(match, table->schema().size());
        }
        break;
      }
      case Instr::Op::kClearJoin:
        rs.joined_row = {};
        break;
      case Instr::Op::kStoreField:
        m.SetField(field_gids_[in.b], TakeReg(in.a));
        break;
      case Instr::Op::kProject:
        m.ProjectFields(keep_gids_[in.b]);
        break;
      case Instr::Op::kRouteDest: {
        if (const Value* dest = m.FindField(dest_fid_);
            dest != nullptr && dest->type() == ValueType::kInt) {
          m.set_destination(static_cast<rpc::EndpointId>(dest->AsInt()));
        }
        break;
      }
      case Instr::Op::kInsertRow: {
        // The row's values sit in consecutive registers: pin each in regs_
        // (a borrow is copied, as TakeReg would) and move the run straight
        // into the table's cells.
        for (uint32_t i = 0; i < in.d; ++i) {
          const uint16_t r = static_cast<uint16_t>(in.a + i);
          if (slot_[r] != &regs_[r]) {
            regs_[r] = *slot_[r];
            slot_[r] = &regs_[r];
          }
        }
        if (Status s = TableAt(in.b)->InsertFrom(
                std::span<Value>(&regs_[in.a], in.d));
            !s.ok()) {
          return abort_with(s.ToString());
        }
        break;
      }
      case Instr::Op::kUpdateRows: {
        if (Status s = ExecUpdate(p.update_specs[in.b], rs); !s.ok()) {
          return abort_with(s.ToString());
        }
        break;
      }
      case Instr::Op::kDeleteRows: {
        if (Status s = ExecDelete(p.delete_specs[in.b], rs); !s.ok()) {
          return abort_with(s.ToString());
        }
        break;
      }
      case Instr::Op::kDrop: {
        end_lane();
        if (rs.cur >= 0) instances_[rs.cur]->NoteDropped();
        ProcessResult r;
        r.outcome = in.aux != 0 ? ProcessOutcome::kDropSilent
                                : ProcessOutcome::kDropAbort;
        r.abort_message = p.strings[in.b];
        return r;
      }
      case Instr::Op::kBeginElement: {
        end_segment();
        ElementInstance* inst = instances_[in.b];
        inst->NoteProcessed();
        rs.fn_ctx.rng = &inst->rng();
        rs.fn_ctx.nonce = inst->BumpNonce();
        rs.cur = in.b;
        rs.joined_row = {};
        if (kTiming) {
          first = seg_ns_[in.b] < 0;
          measured = first || sampled;
          if (measured) seg_start = boundary != 0 ? boundary : obs::NowNs();
          boundary = 0;
          if (trace != nullptr) {
            open_span = trace->OpenSpan(elem_name_ids_[in.b]);
          }
        }
        break;
      }
      case Instr::Op::kBuiltin: {
        // The element's one built-in implementation, shared with the
        // interpreter; kBeginElement already counted the message, so
        // RunBuiltin, not Process, or processed would be counted twice.
        ProcessResult r = instances_[in.b]->RunBuiltin(m, now_ns);
        if (r.outcome == ProcessOutcome::kPass) break;
        end_lane();
        if (r.outcome != ProcessOutcome::kReply) {
          instances_[in.b]->NoteDropped();
        }
        return r;
      }
      case Instr::Op::kSkipUnlessKind:
        if ((in.aux & (1u << static_cast<uint8_t>(m.kind()))) == 0) {
          ip = in.d;
        }
        break;
      case Instr::Op::kReturnPass:
        end_lane();
        return ProcessResult::Pass();
      case Instr::Op::kReturnValue:
        return abort_with(
            Status(ErrorCode::kInternal,
                   "return_value reached outside a subprogram")
                .ToString());
    }
  }
}

static_assert(ChainExecutor::kMaxBurstLanes <= 64,
              "BeginChunk's sampled-lane mask is one uint64_t");

uint64_t ChainExecutor::BeginChunk(const Message* msgs, size_t k) {
  const obs::Tracer& tracer = obs::Tracer::Default();
  chunk_tracing_ = tracer.tracing_enabled();
  chunk_trace_ = obs::CurrentTrace();
  for (size_t e = 0; e < instances_.size(); ++e) {
    chunk_processed_[e] = instances_[e]->processed();
    seg_ns_[e] = -1;
  }
  unmeasured_ = instances_.size();
  // Every lane's sampling check in one tight pass, ahead of the lanes: the
  // checks (a division each) overlap here instead of stalling each lane.
  uint64_t sampled = 0;
  if (chunk_tracing_ && chunk_trace_ == nullptr) {
    for (size_t l = 0; l < k; ++l) {
      sampled |= uint64_t{tracer.ShouldSample(msgs[l].id())} << l;
    }
  }
  return sampled;
}

void ChainExecutor::EndChunk() {
  // One histogram delta per entered element: the count advances by every
  // lane that entered (its processed counter's delta, so exact parity with
  // per-message execution), the value is the measured lane's segment time.
  // The first lane to enter an element ran timed (unmeasured_ was nonzero),
  // so an entered element always has its value.
  for (size_t e = 0; e < instances_.size(); ++e) {
    const uint64_t lanes = instances_[e]->processed() - chunk_processed_[e];
    if (lanes == 0) continue;
    elem_hist_[e]->ObserveN(static_cast<double>(seg_ns_[e]), lanes);
  }
  if (chunk_sampled_ > 0) {
    traces_sampled_->Inc(chunk_sampled_);
    spans_total_->Inc(chunk_spans_);
    chunk_sampled_ = 0;
    chunk_spans_ = 0;
  }
}

void ChainExecutor::EmitElementSpan(const obs::TraceEvent& root, int seg,
                                    int64_t start, int64_t end) {
  obs::TraceEvent child = root;
  child.span_id = obs::NextSpanId();
  child.parent_id = root.span_id;
  child.name_id = elem_name_ids_[static_cast<size_t>(seg)];
  child.start_ns = start;
  child.end_ns = end;
  obs::EmitEvent(child);
  ++chunk_spans_;
}

// --- Bursts -------------------------------------------------------------------
//
// High-speed packet stacks get their throughput from burst processing: the
// NDN-DPDK RX loop drains its rings in bursts, prefetches the table entries
// every packet in the burst will touch, and only then processes the packets
// one by one. ProcessBurst applies the same shape to a drained burst of
// messages: per chunk, the two-stage key prefetch, then the scalar loop per
// message, with the chunk's telemetry batched.

void ChainExecutor::ProcessBurst(Message* msgs, size_t n, int64_t now_ns,
                                 ProcessResult* results) {
  const bool timing = obs::Enabled();
  for (size_t off = 0; off < n; off += kMaxBurstLanes) {
    const size_t k = std::min(n - off, kMaxBurstLanes);
    if (k >= 2) PrefetchKeys(msgs + off, k);
    if (!timing) {
      for (size_t i = off; i < off + k; ++i) {
        results[i] = Run<false>(msgs[i], now_ns, false, 0);
      }
      continue;
    }
    const uint64_t sampled = BeginChunk(msgs + off, k);
    // The marker's start reading doubles as lane 0's first boundary.
    const bool marker = chunk_tracing_ && k >= 2;
    const int64_t chunk_start = marker ? obs::NowNs() : 0;
    for (size_t l = 0; l < k; ++l) {
      results[off + l] = RunLane(msgs[off + l], now_ns,
                                 ((sampled >> l) & 1) != 0,
                                 l == 0 ? chunk_start : 0);
    }
    if (marker) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kBurst;
      ev.name_id = burst_name_id_;
      ev.processor_id = lane_root_.processor_id;
      ev.tier = lane_root_.tier;
      ev.start_ns = chunk_start;
      ev.end_ns = obs::NowNs();
      ev.arg = k;
      obs::EmitEvent(ev);
    }
    EndChunk();
  }
}

void ChainExecutor::PlanPrefetch() {
  // Every kLoadField feeding a kLookupPk directly (the shape the compiler
  // emits for `JOIN t ON input.f = t.pk`) names a key field and table whose
  // rows the burst will touch. The prefetch is a hint, each lookup still
  // probes in full, so tables the chain mutates are fine.
  const ChainProgram& p = *program_;
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

}  // namespace adn::ir
