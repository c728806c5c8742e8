#include "compiler/chain_compile.h"

#include <atomic>
#include <utility>

#include "rpc/intern.h"

namespace adn::compiler {

using ir::ChainProgram;
using ir::ElementIr;
using ir::ExprNode;
using ir::Instr;
using ir::SelectIr;
using ir::StmtIr;
using rpc::Value;

namespace {

// Message-kind bitmask matching ElementInstance::AppliesTo (kError never
// enters a chain element).
uint8_t KindMask(dsl::Direction d) {
  switch (d) {
    case dsl::Direction::kRequest:
      return 1u << static_cast<uint8_t>(rpc::MessageKind::kRequest);
    case dsl::Direction::kResponse:
      return 1u << static_cast<uint8_t>(rpc::MessageKind::kResponse);
    case dsl::Direction::kBoth:
      return (1u << static_cast<uint8_t>(rpc::MessageKind::kRequest)) |
             (1u << static_cast<uint8_t>(rpc::MessageKind::kResponse));
  }
  return 0;
}

class ProgramBuilder {
 public:
  explicit ProgramBuilder(const ChainCompileOptions& options) {
    for (const std::string& f : options.field_order_hint) InternField(f);
  }

  Status AddElement(const ElementIr& element, uint16_t elem_idx,
                    bool kind_guard);

  std::shared_ptr<const ChainProgram> Finish() {
    Emit({Instr::Op::kReturnPass});
    // Process-wide compile generation: every compiled program gets a fresh,
    // strictly increasing version so hot-reload can order old vs new.
    static std::atomic<uint64_t> next_version{1};
    p_.version = next_version.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const ChainProgram>(std::move(p_));
  }

 private:
  uint32_t Emit(Instr in) {
    p_.code.push_back(in);
    return static_cast<uint32_t>(p_.code.size() - 1);
  }
  uint32_t Here() const { return static_cast<uint32_t>(p_.code.size()); }
  void PatchJump(uint32_t ip) { p_.code[ip].d = Here(); }

  void Touch(uint16_t reg) {
    if (reg >= p_.num_registers) p_.num_registers = reg + 1;
  }

  uint16_t InternField(const std::string& name) {
    for (size_t i = 0; i < p_.field_names.size(); ++i) {
      if (p_.field_names[i] == name) return static_cast<uint16_t>(i);
    }
    p_.field_names.push_back(name);
    // Resolve the process-global id now so ChainExecutor never has to scan
    // names at run time (field_gids stays parallel to field_names).
    p_.field_gids.push_back(rpc::InternFieldName(name));
    return static_cast<uint16_t>(p_.field_names.size() - 1);
  }

  uint16_t InternConst(const Value& v) {
    for (size_t i = 0; i < p_.consts.size(); ++i) {
      if (p_.consts[i].type() == v.type() && p_.consts[i].EqualsValue(v)) {
        return static_cast<uint16_t>(i);
      }
    }
    p_.consts.push_back(v);
    return static_cast<uint16_t>(p_.consts.size() - 1);
  }

  uint16_t InternString(const std::string& s) {
    for (size_t i = 0; i < p_.strings.size(); ++i) {
      if (p_.strings[i] == s) return static_cast<uint16_t>(i);
    }
    p_.strings.push_back(s);
    return static_cast<uint16_t>(p_.strings.size() - 1);
  }

  uint16_t InternFunction(const ir::FunctionDef* fn) {
    for (size_t i = 0; i < p_.functions.size(); ++i) {
      if (p_.functions[i] == fn) return static_cast<uint16_t>(i);
    }
    p_.functions.push_back(fn);
    return static_cast<uint16_t>(p_.functions.size() - 1);
  }

  // Table handle: (element, position in that element's state_tables) —
  // ElementInstance builds its table vector in state_tables order.
  Result<uint16_t> InternTable(const ElementIr& element, uint16_t elem_idx,
                               const std::string& name) {
    uint16_t table_idx = 0;
    bool found = false;
    for (size_t i = 0; i < element.state_tables.size(); ++i) {
      if (element.state_tables[i].first == name) {
        table_idx = static_cast<uint16_t>(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return Error(ErrorCode::kInternal,
                   "element " + element.name + " has no state table " + name);
    }
    for (size_t i = 0; i < p_.tables.size(); ++i) {
      if (p_.tables[i].element == elem_idx &&
          p_.tables[i].table_idx == table_idx) {
        return static_cast<uint16_t>(i);
      }
    }
    p_.tables.push_back({elem_idx, table_idx, name});
    return static_cast<uint16_t>(p_.tables.size() - 1);
  }

  // Compile `expr` so its value lands in r[dst]; registers >= scratch are
  // free for intermediates. Evaluation order is strictly left-to-right to
  // match the interpreter (first error wins).
  void CompileExpr(const ExprNode& expr, uint16_t dst, uint16_t scratch);

  Result<uint32_t> CompileSub(const ExprNode& expr);

  Status AddStatement(const ElementIr& element, uint16_t elem_idx,
                      const StmtIr& stmt);

  ChainProgram p_;
  double current_per_byte_ = 0.0;
};

void ProgramBuilder::CompileExpr(const ExprNode& expr, uint16_t dst,
                                 uint16_t scratch) {
  Touch(dst);
  switch (expr.kind) {
    case ExprNode::Kind::kLiteral:
      Emit({Instr::Op::kLoadConst, 0, dst, InternConst(expr.literal)});
      return;
    case ExprNode::Kind::kInputField:
      Emit({Instr::Op::kLoadField, 0, dst, InternField(expr.field)});
      return;
    case ExprNode::Kind::kJoinField:
      Emit({Instr::Op::kLoadJoin, 0, dst,
            static_cast<uint16_t>(expr.join_col)});
      return;
    case ExprNode::Kind::kCall: {
      const uint16_t nargs = static_cast<uint16_t>(expr.children.size());
      // Arguments in consecutive registers; each argument may use scratch
      // above the whole window (arguments evaluate sequentially).
      for (uint16_t i = 0; i < nargs; ++i) {
        CompileExpr(expr.children[i], static_cast<uint16_t>(scratch + i),
                    static_cast<uint16_t>(scratch + nargs));
      }
      current_per_byte_ += expr.fn->per_byte_cost_ns;
      // aux=1 marks len(x): the executor reads the size through the
      // argument's borrowed register instead of copying it into the call.
      const uint8_t fast_len =
          (expr.fn->name == "len" && nargs == 1) ? uint8_t{1} : uint8_t{0};
      Instr in{Instr::Op::kCall, fast_len, dst, InternFunction(expr.fn),
               scratch};
      in.d = nargs;
      Emit(in);
      return;
    }
    case ExprNode::Kind::kUnary:
      CompileExpr(expr.children[0], dst, scratch);
      Emit({Instr::Op::kUnary, static_cast<uint8_t>(expr.unary_op), dst,
            dst});
      return;
    case ExprNode::Kind::kBinary: {
      const dsl::BinaryOp op = expr.binary_op;
      if (op == dsl::BinaryOp::kAnd || op == dsl::BinaryOp::kOr) {
        // Short-circuit lowering; the result is always a plain BOOL, like
        // the interpreter's Truthy flattening.
        CompileExpr(expr.children[0], dst, scratch);
        Emit({Instr::Op::kCoerceBool, 0, dst});
        uint32_t skip = Emit({op == dsl::BinaryOp::kAnd
                                  ? Instr::Op::kJumpIfFalse
                                  : Instr::Op::kJumpIfTrue,
                              0, dst});
        CompileExpr(expr.children[1], dst, scratch);
        Emit({Instr::Op::kCoerceBool, 0, dst});
        PatchJump(skip);
        return;
      }
      CompileExpr(expr.children[0], dst, scratch);
      CompileExpr(expr.children[1], scratch,
                  static_cast<uint16_t>(scratch + 1));
      Emit({Instr::Op::kBinary, static_cast<uint8_t>(op), dst, dst,
            scratch});
      return;
    }
  }
}

// Emit a WHERE/assignment expression as a subprogram ending in
// kReturnValue, jumped over by the main stream. Returns its entry ip.
Result<uint32_t> ProgramBuilder::CompileSub(const ExprNode& expr) {
  uint32_t jump_over = Emit({Instr::Op::kJump});
  uint32_t entry = Here();
  CompileExpr(expr, 0, 1);
  Emit({Instr::Op::kReturnValue, 0, 0});
  PatchJump(jump_over);
  return entry;
}

Status ProgramBuilder::AddStatement(const ElementIr& element,
                                    uint16_t elem_idx, const StmtIr& stmt) {
  switch (stmt.kind) {
    case StmtIr::Kind::kSelect: {
      const SelectIr& sel = *stmt.select;
      // Jumps to the statement's drop block (join miss, WHERE false).
      std::vector<uint32_t> drop_jumps;

      if (sel.join.has_value()) {
        ADN_ASSIGN_OR_RETURN(
            uint16_t table, InternTable(element, elem_idx, sel.join->table));
        CompileExpr(sel.join->probe, 0, 1);
        Instr lookup{sel.join->key_is_primary ? Instr::Op::kLookupPk
                                              : Instr::Op::kLookupScan,
                     0, 0, table,
                     static_cast<uint16_t>(sel.join->table_key_col)};
        drop_jumps.push_back(Emit(lookup));
      }
      if (sel.where.has_value()) {
        CompileExpr(*sel.where, 0, 1);
        drop_jumps.push_back(Emit({Instr::Op::kJumpIfFalse, 0, 0}));
      }

      // Computed outputs, evaluated against the pre-mutation tuple into
      // consecutive registers (SQL snapshot semantics), stores afterwards.
      std::vector<std::pair<uint16_t, uint16_t>> stores;  // reg -> field id
      uint16_t out_reg = 0;
      for (const auto& out : sel.outputs) {
        if (out.identity) continue;
        CompileExpr(out.expr, out_reg,
                    static_cast<uint16_t>(out_reg + 1));
        // A bare field reference leaves the register borrowing message
        // storage; the projection/stores below may move the field vector,
        // so pin it into the register first.
        if (out.expr.kind == ExprNode::Kind::kInputField) {
          Emit({Instr::Op::kMaterialize, 0, out_reg});
        }
        stores.emplace_back(out_reg, InternField(out.name));
        ++out_reg;
      }
      if (!sel.passthrough) {
        std::vector<uint16_t> keep;
        for (const auto& out : sel.outputs) {
          keep.push_back(InternField(out.name));
        }
        p_.keep_lists.push_back(std::move(keep));
        Emit({Instr::Op::kProject, 0, 0,
              static_cast<uint16_t>(p_.keep_lists.size() - 1)});
      }
      for (const auto& [reg, fid] : stores) {
        Emit({Instr::Op::kStoreField, 0, reg, fid});
      }
      Emit({Instr::Op::kRouteDest});
      Emit({Instr::Op::kClearJoin});

      if (!drop_jumps.empty()) {
        uint32_t over = Emit({Instr::Op::kJump});
        for (uint32_t ip : drop_jumps) PatchJump(ip);
        Emit({Instr::Op::kDrop,
              sel.on_drop == dsl::DropBehavior::kSilent ? uint8_t{1}
                                                        : uint8_t{0},
              0, InternString(sel.abort_message)});
        PatchJump(over);
      }
      return Status::Ok();
    }

    case StmtIr::Kind::kInsert: {
      const ir::InsertIr& ins = *stmt.insert;
      ADN_ASSIGN_OR_RETURN(uint16_t table,
                           InternTable(element, elem_idx, ins.table));
      const uint16_t n = static_cast<uint16_t>(ins.values.size());
      for (uint16_t i = 0; i < n; ++i) {
        CompileExpr(ins.values[i], i, n);
      }
      Instr in{Instr::Op::kInsertRow, 0, 0, table};
      in.d = n;
      Emit(in);
      return Status::Ok();
    }

    case StmtIr::Kind::kUpdate: {
      const ir::UpdateIr& upd = *stmt.update;
      ADN_ASSIGN_OR_RETURN(uint16_t table,
                           InternTable(element, elem_idx, upd.table));
      ChainProgram::UpdateSpec spec;
      spec.table = table;
      const rpc::Schema* schema = element.FindStateSchema(upd.table);
      const ir::ExprNode* key_expr =
          schema != nullptr ? ir::PointUpdateKeyExpr(upd, *schema) : nullptr;
      if (key_expr != nullptr) {
        // WHERE pk = <message expr>: the equality is fully captured by the
        // key lookup, so no residual predicate is compiled.
        ADN_ASSIGN_OR_RETURN(spec.key_entry, CompileSub(*key_expr));
      } else if (upd.where.has_value()) {
        ADN_ASSIGN_OR_RETURN(spec.where_entry, CompileSub(*upd.where));
      }
      spec.in_place = key_expr != nullptr;
      for (const auto& [col, expr] : upd.assignments) {
        ADN_ASSIGN_OR_RETURN(uint32_t entry, CompileSub(expr));
        spec.assignments.emplace_back(static_cast<uint16_t>(col), entry);
        if (schema->columns()[col].primary_key) spec.in_place = false;
      }
      p_.update_specs.push_back(std::move(spec));
      Emit({Instr::Op::kUpdateRows, 0, 0,
            static_cast<uint16_t>(p_.update_specs.size() - 1)});
      return Status::Ok();
    }

    case StmtIr::Kind::kDelete: {
      const ir::DeleteIr& del = *stmt.del;
      ADN_ASSIGN_OR_RETURN(uint16_t table,
                           InternTable(element, elem_idx, del.table));
      ChainProgram::DeleteSpec spec;
      spec.table = table;
      if (del.where.has_value()) {
        ADN_ASSIGN_OR_RETURN(spec.where_entry, CompileSub(*del.where));
      }
      p_.delete_specs.push_back(spec);
      Emit({Instr::Op::kDeleteRows, 0, 0,
            static_cast<uint16_t>(p_.delete_specs.size() - 1)});
      return Status::Ok();
    }
  }
  return Error(ErrorCode::kInternal, "unhandled statement kind");
}

Status ProgramBuilder::AddElement(const ElementIr& element, uint16_t elem_idx,
                                  bool kind_guard) {
  if (element.IsFilter() && element.filter_op->IsClientSide()) {
    return Error(ErrorCode::kUnsupported,
                 "filter element " + element.name + " uses operator '" +
                     element.filter_op->op +
                     "', which runs in the client library (RetryPolicy, "
                     "core/client_policy.h), not in a chain");
  }
  ChainProgram::ElementSeg seg;
  seg.name = element.name;
  seg.direction = element.direction;
  seg.entry_ip = Here();
  current_per_byte_ = 0.0;

  uint32_t guard_ip = 0;
  if (kind_guard) {
    guard_ip = Emit(
        {Instr::Op::kSkipUnlessKind, KindMask(element.direction)});
  }
  Emit({Instr::Op::kBeginElement, 0, 0, elem_idx});
  if (element.IsCache() || element.IsFilter()) {
    // The whole body is one call into the instance's built-in operator.
    Emit({Instr::Op::kBuiltin, 0, 0, elem_idx});
  }
  for (const StmtIr& stmt : element.statements) {
    ADN_RETURN_IF_ERROR(AddStatement(element, elem_idx, stmt));
  }
  if (kind_guard) PatchJump(guard_ip);

  seg.instr_count = Here() - seg.entry_ip;
  seg.per_byte_cost_ns = current_per_byte_;
  p_.elements.push_back(std::move(seg));
  return Status::Ok();
}

}  // namespace

Result<std::shared_ptr<const ir::ChainProgram>> CompileChainProgram(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const ChainCompileOptions& options) {
  ProgramBuilder builder(options);
  for (size_t i = 0; i < elements.size(); ++i) {
    ADN_RETURN_IF_ERROR(builder.AddElement(
        *elements[i], static_cast<uint16_t>(i), /*kind_guard=*/true));
  }
  return builder.Finish();
}

Result<std::shared_ptr<const ir::ChainProgram>> CompileElementProgram(
    const ir::ElementIr& element) {
  ProgramBuilder builder(ChainCompileOptions{});
  ADN_RETURN_IF_ERROR(builder.AddElement(element, 0, /*kind_guard=*/false));
  return builder.Finish();
}

}  // namespace adn::compiler
