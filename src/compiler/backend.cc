#include "compiler/backend.h"

#include <cmath>

namespace adn::compiler {

using ir::ElementIr;
using ir::ExprNode;
using ir::StmtIr;
using rpc::ValueType;

std::string_view TargetPlatformName(TargetPlatform target) {
  switch (target) {
    case TargetPlatform::kNative: return "native";
    case TargetPlatform::kEbpf: return "ebpf";
    case TargetPlatform::kSmartNic: return "smartnic";
    case TargetPlatform::kP4Switch: return "p4";
  }
  return "?";
}

namespace {

// Does the expression keep floats confined to compare-against-literal form?
// (The eBPF lowering turns `random() < 0.05` into an integer threshold test;
// any other float use would need FPU, which BPF lacks.)
bool FloatsAreCompareOnly(const ExprNode& e) {
  if (e.kind == ExprNode::Kind::kBinary) {
    switch (e.binary_op) {
      case dsl::BinaryOp::kEq:
      case dsl::BinaryOp::kNe:
      case dsl::BinaryOp::kLt:
      case dsl::BinaryOp::kLe:
      case dsl::BinaryOp::kGt:
      case dsl::BinaryOp::kGe: {
        const ExprNode& l = e.children[0];
        const ExprNode& r = e.children[1];
        bool l_float = l.type == ValueType::kFloat;
        bool r_float = r.type == ValueType::kFloat;
        if (l_float || r_float) {
          // One side must be a literal; both subtrees must be shallow-clean.
          bool ok = (l.kind == ExprNode::Kind::kLiteral ||
                     r.kind == ExprNode::Kind::kLiteral);
          if (!ok) return false;
        }
        return FloatsAreCompareOnly(l) && FloatsAreCompareOnly(r);
      }
      default:
        if (e.type == ValueType::kFloat) return false;
        break;
    }
  } else if (e.kind != ExprNode::Kind::kLiteral &&
             e.kind != ExprNode::Kind::kCall &&
             e.type == ValueType::kFloat) {
    return false;
  }
  for (const ExprNode& c : e.children) {
    if (!FloatsAreCompareOnly(c)) return false;
  }
  return true;
}

template <typename Fn>
bool ForEachExpr(const ElementIr& element, Fn&& fn) {
  for (const StmtIr& stmt : element.statements) {
    switch (stmt.kind) {
      case StmtIr::Kind::kSelect: {
        const ir::SelectIr& s = *stmt.select;
        if (s.join.has_value() && !fn(s.join->probe)) return false;
        if (s.where.has_value() && !fn(*s.where)) return false;
        for (const auto& o : s.outputs) {
          if (!fn(o.expr)) return false;
        }
        break;
      }
      case StmtIr::Kind::kInsert:
        for (const auto& v : stmt.insert->values) {
          if (!fn(v)) return false;
        }
        break;
      case StmtIr::Kind::kUpdate:
        for (const auto& [idx, e] : stmt.update->assignments) {
          (void)idx;
          if (!fn(e)) return false;
        }
        if (stmt.update->where.has_value() && !fn(*stmt.update->where)) {
          return false;
        }
        break;
      case StmtIr::Kind::kDelete:
        if (stmt.del->where.has_value() && !fn(*stmt.del->where)) {
          return false;
        }
        break;
    }
  }
  return true;
}

FeasibilityReport CheckEbpf(const ElementIr& element) {
  if (element.IsCache()) {
    return FeasibilityReport::No(
        "cache element stores variable-size response blobs; BPF map values "
        "are fixed-size, so the cache runs on general cores");
  }
  if (element.IsFilter()) {
    // Timer-based stream shaping needs user-space cooperation; only the
    // stateless-ish ones run in kernel. Aggregations are bounded per-CPU
    // map updates — exactly the workload BPF maps exist for.
    const ir::FilterKind kind = element.filter_op->kind;
    if (kind == ir::FilterKind::kRateLimit ||
        kind == ir::FilterKind::kDedup || element.filter_op->IsAggregation()) {
      return FeasibilityReport::Yes();
    }
    return FeasibilityReport::No(
        "filter operator '" + element.filter_op->op +
        "' needs timers/retransmit buffers not available in-kernel");
  }
  // Every function must have an eBPF helper equivalent.
  std::string bad_fn;
  ForEachExpr(element, [&](const ExprNode& e) {
    bool ok = e.AllFunctions([&](const ir::FunctionDef& f) {
      if (!f.ebpf_ok) bad_fn = f.name;
      return f.ebpf_ok;
    });
    return ok;
  });
  if (!bad_fn.empty()) {
    return FeasibilityReport::No("function '" + bad_fn +
                                 "()' has no eBPF helper equivalent");
  }
  // Floats only in compare-with-literal position (no FPU in BPF).
  bool floats_ok = ForEachExpr(
      element, [](const ExprNode& e) { return FloatsAreCompareOnly(e); });
  if (!floats_ok) {
    return FeasibilityReport::No(
        "floating-point computation beyond literal-threshold compares");
  }
  // Joins must be map lookups, not scans (verifier: bounded loops only).
  for (const StmtIr& stmt : element.statements) {
    if (stmt.kind == StmtIr::Kind::kSelect && stmt.select->join.has_value() &&
        !stmt.select->join->key_is_primary) {
      return FeasibilityReport::No(
          "join against table '" + stmt.select->join->table +
          "' is a scan (non-primary-key); BPF maps need key lookups");
    }
    if (stmt.kind == StmtIr::Kind::kUpdate ||
        stmt.kind == StmtIr::Kind::kDelete) {
      return FeasibilityReport::No(
          "table scans (UPDATE/DELETE) exceed verifier loop bounds");
    }
  }
  return FeasibilityReport::Yes();
}

FeasibilityReport CheckP4(const ElementIr& element) {
  if (element.IsCache()) {
    return FeasibilityReport::No(
        "cache fills happen on the data path; P4 tables are "
        "control-plane-written only");
  }
  if (element.IsFilter()) {
    if (element.filter_op->IsAggregation()) {
      // Aggregations are the filters constrained processors CAN host:
      // bounded map/register state, no drops. Counters, register sums and HashPipe-style heavy hitters are native
      // match-action constructs. Whether a given placement works then hinges
      // on CheckP4ParseDepth over the fields the aggregation keys on.
      return FeasibilityReport::Yes();
    }
    return FeasibilityReport::No("stream-shaping filters do not map to "
                                 "match-action pipelines");
  }
  if (!element.effects.tables_written.empty()) {
    return FeasibilityReport::No(
        "element writes state table '" + element.effects.tables_written[0] +
        "'; P4 tables are control-plane-written only");
  }
  std::string bad_fn;
  ForEachExpr(element, [&](const ExprNode& e) {
    bool ok = e.AllFunctions([&](const ir::FunctionDef& f) {
      if (!f.p4_ok) bad_fn = f.name;
      return f.p4_ok;
    });
    return ok;
  });
  if (!bad_fn.empty()) {
    return FeasibilityReport::No("function '" + bad_fn +
                                 "()' is not realizable in match-action");
  }
  bool floats_ok = ForEachExpr(
      element, [](const ExprNode& e) { return FloatsAreCompareOnly(e); });
  if (!floats_ok) {
    return FeasibilityReport::No("floating-point computation");
  }
  // Payload-typed outputs (BYTES writes) can't happen on a switch.
  for (const StmtIr& stmt : element.statements) {
    if (stmt.kind != StmtIr::Kind::kSelect) continue;
    for (const auto& o : stmt.select->outputs) {
      if (!o.identity && o.type == ValueType::kBytes) {
        return FeasibilityReport::No("writes BYTES field '" + o.name +
                                     "' (payload transform)");
      }
    }
    if (stmt.select->join.has_value() &&
        !stmt.select->join->key_is_primary) {
      return FeasibilityReport::No("non-exact-match join against '" +
                                   stmt.select->join->table + "'");
    }
  }
  return FeasibilityReport::Yes();
}

}  // namespace

FeasibilityReport CheckFeasible(const ElementIr& element,
                                TargetPlatform target) {
  switch (target) {
    case TargetPlatform::kNative:
    case TargetPlatform::kSmartNic:
      return FeasibilityReport::Yes();
    case TargetPlatform::kEbpf:
      return CheckEbpf(element);
    case TargetPlatform::kP4Switch:
      return CheckP4(element);
  }
  return FeasibilityReport::No("unknown target");
}

FeasibilityReport CheckP4ParseDepth(const ElementIr& element,
                                    const rpc::HeaderSpec& link_header,
                                    size_t parse_depth_bytes) {
  // Walk the header layout; every field the element reads must END within
  // the parse window, and every field BEFORE it must be fixed-size (else its
  // offset is unknowable to the parser).
  size_t offset = rpc::HeaderSpec::kBaseHeaderBytes;
  for (const rpc::Column& c : link_header.fields) {
    size_t max_size;
    bool fixed;
    switch (c.type) {
      case ValueType::kBool: max_size = 2; fixed = true; break;
      case ValueType::kInt: max_size = 11; fixed = true; break;
      case ValueType::kFloat: max_size = 9; fixed = true; break;
      default: max_size = 0; fixed = false; break;
    }
    const bool read_here = element.effects.ReadsField(c.name);
    if (read_here) {
      if (!fixed) {
        return FeasibilityReport::No(
            "field '" + c.name + "' is variable-length; switch parsers need "
            "fixed offsets");
      }
      if (offset + max_size > parse_depth_bytes) {
        return FeasibilityReport::No(
            "field '" + c.name + "' ends at byte " +
            std::to_string(offset + max_size) + ", beyond the " +
            std::to_string(parse_depth_bytes) + "-byte parse window");
      }
    }
    if (!fixed) {
      // Everything after a variable-length field is unparseable on-switch.
      // If the element reads any later field, fail.
      bool later_reads = false;
      bool seen = false;
      for (const rpc::Column& c2 : link_header.fields) {
        if (seen && element.effects.ReadsField(c2.name)) later_reads = true;
        if (c2.name == c.name) seen = true;
      }
      if (later_reads) {
        return FeasibilityReport::No(
            "a field the element reads sits after variable-length field '" +
            c.name + "' (reorder headers to front-load switch fields)");
      }
      break;
    }
    offset += max_size;
  }
  return FeasibilityReport::Yes();
}

double EstimateCostNs(const ElementIr& element, TargetPlatform target,
                      const sim::CostModel& model, size_t payload_bytes) {
  // Base: interpreter ops.
  double ops_cost =
      static_cast<double>(element.OpCount()) * model.adn_op_ns;
  // Per-byte UDF costs.
  double byte_cost = 0.0;
  ForEachExpr(element, [&](const ExprNode& e) {
    // Walk for calls with per-byte cost.
    std::function<void(const ExprNode&)> walk = [&](const ExprNode& n) {
      if (n.kind == ExprNode::Kind::kCall && n.fn != nullptr) {
        byte_cost += n.fn->per_byte_cost_ns * static_cast<double>(payload_bytes);
      }
      for (const ExprNode& c : n.children) walk(c);
    };
    walk(e);
    return true;
  });
  double total = ops_cost + byte_cost;
  switch (target) {
    case TargetPlatform::kNative:
      return total;
    case TargetPlatform::kEbpf:
      return total * model.ebpf_op_scale;
    case TargetPlatform::kSmartNic:
      return total * model.smartnic_op_scale;
    case TargetPlatform::kP4Switch:
      // Pipeline: fixed latency regardless of op count.
      return static_cast<double>(model.p4_pipeline_ns);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Code emission
// ---------------------------------------------------------------------------

namespace {

std::string CIdent(std::string s) {
  for (char& c : s) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

std::string EmitExprC(const ExprNode& e) {
  switch (e.kind) {
    case ExprNode::Kind::kLiteral:
      if (e.literal.type() == ValueType::kFloat) {
        // Lowered to a 32-bit fixed-point threshold at emission time.
        return std::to_string(static_cast<uint64_t>(
                   e.literal.AsFloat() * 4294967296.0)) +
               "u /* " + e.literal.ToDisplayString() + " * 2^32 */";
      }
      return e.literal.ToDisplayString();
    case ExprNode::Kind::kInputField:
      return "msg->" + CIdent(e.field);
    case ExprNode::Kind::kJoinField:
      return "entry->col" + std::to_string(e.join_col);
    case ExprNode::Kind::kCall: {
      std::string name = e.fn->name;
      if (name == "random") name = "bpf_get_prandom_u32";
      if (name == "now") name = "bpf_ktime_get_ns";
      if (name == "hash") name = "adn_fnv1a64";
      std::string out = name + "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += EmitExprC(e.children[i]);
      }
      return out + ")";
    }
    case ExprNode::Kind::kUnary:
      return std::string(e.unary_op == dsl::UnaryOp::kNegate ? "-" : "!") +
             "(" + EmitExprC(e.children[0]) + ")";
    case ExprNode::Kind::kBinary: {
      std::string op(dsl::BinaryOpName(e.binary_op));
      if (op == "=") op = "==";
      if (op == "AND") op = "&&";
      if (op == "OR") op = "||";
      return "(" + EmitExprC(e.children[0]) + " " + op + " " +
             EmitExprC(e.children[1]) + ")";
    }
  }
  return "?";
}

}  // namespace

std::string EmitEbpfC(const ElementIr& element) {
  std::string out;
  out += "// Auto-generated by the ADN compiler — eBPF lowering of element '" +
         element.name + "'.\n";
  out += "// Attach point: tc egress (sender) / XDP (receiver).\n";
  out += "#include <linux/bpf.h>\n#include \"adn_bpf_helpers.h\"\n\n";

  // Map declarations for state tables.
  for (const auto& [name, schema] : element.state_tables) {
    out += "struct " + CIdent(name) + "_entry {";
    for (size_t i = 0; i < schema.columns().size(); ++i) {
      out += " u64 col" + std::to_string(i) + ";";
    }
    out += " };\n";
    out += "BPF_HASH_MAP(" + CIdent(name) + ", u64, struct " + CIdent(name) +
           "_entry, 65536);\n";
  }
  out += "\nSEC(\"adn/" + CIdent(element.name) + "\")\n";
  out += "int " + CIdent(element.name) +
         "_prog(struct adn_msg_ctx *ctx) {\n";
  out += "  struct adn_msg *msg = ctx->msg;\n";

  int stmt_idx = 0;
  for (const StmtIr& stmt : element.statements) {
    ++stmt_idx;
    switch (stmt.kind) {
      case StmtIr::Kind::kSelect: {
        const ir::SelectIr& s = *stmt.select;
        if (s.join.has_value()) {
          out += "  // stmt " + std::to_string(stmt_idx) + ": JOIN " +
                 s.join->table + "\n";
          out += "  u64 key" + std::to_string(stmt_idx) + " = " +
                 EmitExprC(s.join->probe) + ";\n";
          out += "  struct " + CIdent(s.join->table) + "_entry *entry = " +
                 "bpf_map_lookup_elem(&" + CIdent(s.join->table) + ", &key" +
                 std::to_string(stmt_idx) + ");\n";
          out += "  if (!entry) return ADN_DROP;\n";
        }
        if (s.where.has_value()) {
          out += "  if (!" + EmitExprC(*s.where) + ") return ADN_DROP;\n";
        }
        for (const auto& o : s.outputs) {
          if (o.identity) continue;
          out += "  msg->" + CIdent(o.name) + " = " + EmitExprC(o.expr) +
                 ";\n";
        }
        break;
      }
      case StmtIr::Kind::kInsert: {
        out += "  // stmt " + std::to_string(stmt_idx) + ": INSERT INTO " +
               stmt.insert->table + " (ring-buffer export to user space)\n";
        out += "  struct " + CIdent(stmt.insert->table) +
               "_entry row" + std::to_string(stmt_idx) + " = {";
        for (size_t i = 0; i < stmt.insert->values.size(); ++i) {
          if (i > 0) out += ", ";
          out += EmitExprC(stmt.insert->values[i]);
        }
        out += "};\n";
        out += "  adn_state_append(&" + CIdent(stmt.insert->table) + ", &row" +
               std::to_string(stmt_idx) + ");\n";
        break;
      }
      default:
        out += "  // stmt " + std::to_string(stmt_idx) +
               ": (unsupported on this target)\n";
        break;
    }
  }
  out += "  return ADN_PASS;\n}\n";
  return out;
}

std::string EmitP4(const ElementIr& element,
                   const rpc::HeaderSpec& link_header) {
  std::string out;
  out += "// Auto-generated by the ADN compiler — P4 lowering of element '" +
         element.name + "'.\n";
  out += "header adn_h {\n  bit<8> kind;\n  bit<64> id;\n"
         "  bit<32> method;\n  bit<32> src;\n  bit<32> dst;\n";
  for (const rpc::Column& c : link_header.fields) {
    if (!element.effects.ReadsField(c.name) &&
        !element.effects.WritesField(c.name)) {
      continue;  // parser skips fields this element doesn't touch
    }
    int bits = c.type == ValueType::kBool ? 8 : 64;
    out += "  bit<" + std::to_string(bits) + "> " + CIdent(c.name) + ";\n";
  }
  out += "}\n\n";

  for (const auto& [name, schema] : element.state_tables) {
    out += "table " + CIdent(name) + "_t {\n";
    out += "  key = { meta.key: exact; }\n";
    out += "  actions = { load_" + CIdent(name) + "; miss_drop; }\n";
    out += "  size = 65536; // populated by the ADN controller\n";
    out += "}\n";
  }

  out += "\ncontrol " + CIdent(element.name) +
         "(inout adn_h hdr, inout metadata meta) {\n  apply {\n";
  for (const StmtIr& stmt : element.statements) {
    if (stmt.kind != StmtIr::Kind::kSelect) continue;
    const ir::SelectIr& s = *stmt.select;
    if (s.join.has_value()) {
      out += "    meta.key = " + EmitExprC(s.join->probe) + ";\n";
      out += "    " + CIdent(s.join->table) + "_t.apply();\n";
    }
    if (s.where.has_value()) {
      out += "    if (!" + EmitExprC(*s.where) +
             ") { mark_to_drop(); return; }\n";
    }
    for (const auto& o : s.outputs) {
      if (o.identity) continue;
      if (o.name == std::string(ir::kDestinationField)) {
        out += "    hdr.dst = (bit<32>)" + EmitExprC(o.expr) + ";\n";
      } else {
        out += "    hdr." + CIdent(o.name) + " = " + EmitExprC(o.expr) +
               ";\n";
      }
    }
  }
  out += "  }\n}\n";
  return out;
}

}  // namespace adn::compiler
