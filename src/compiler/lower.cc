#include "compiler/lower.h"

#include <algorithm>
#include <set>

namespace adn::compiler {

using dsl::BinaryOp;
using dsl::UnaryOp;
using ir::ElementIr;
using ir::ExprNode;
using rpc::Schema;
using rpc::ValueType;

namespace {

Error At(dsl::SourceLocation loc, ErrorCode code, std::string message) {
  return Error(code, std::move(message) + " at " + loc.ToString());
}

// Name resolution scope for one statement.
struct Scope {
  // The evolving RPC tuple schema at this point of the element body.
  const Schema* input = nullptr;
  // Joined table (SELECT ... JOIN t) or scanned table (UPDATE/DELETE).
  const Schema* table = nullptr;
  std::string table_name;
  // In UPDATE/DELETE, bare names prefer table columns; in SELECT they prefer
  // input fields.
  bool prefer_table = false;
};

class ElementLowerer {
 public:
  ElementLowerer(const dsl::ElementDecl& decl, const dsl::Program& program,
                 const ir::FunctionRegistry& functions)
      : decl_(decl), program_(program), functions_(functions) {}

  Result<ElementIr> Run() {
    ElementIr out;
    out.name = decl_.name;
    out.direction = decl_.direction;
    out.on_drop = decl_.on_drop;
    out.abort_message = decl_.abort_message;
    out.input = decl_.input;
    current_schema_ = decl_.input;

    for (const dsl::Statement& stmt : decl_.body) {
      if (const auto* sel = std::get_if<dsl::SelectStmt>(&stmt)) {
        ADN_ASSIGN_OR_RETURN(ir::StmtIr s, LowerSelect(*sel));
        out.statements.push_back(std::move(s));
      } else if (const auto* ins = std::get_if<dsl::InsertStmt>(&stmt)) {
        ADN_ASSIGN_OR_RETURN(ir::StmtIr s, LowerInsert(*ins));
        out.statements.push_back(std::move(s));
      } else if (const auto* upd = std::get_if<dsl::UpdateStmt>(&stmt)) {
        ADN_ASSIGN_OR_RETURN(ir::StmtIr s, LowerUpdate(*upd));
        out.statements.push_back(std::move(s));
      } else if (const auto* del = std::get_if<dsl::DeleteStmt>(&stmt)) {
        ADN_ASSIGN_OR_RETURN(ir::StmtIr s, LowerDelete(*del));
        out.statements.push_back(std::move(s));
      }
    }

    // Attach the schemas of every referenced state table.
    for (const std::string& t : used_tables_) {
      const dsl::TableDecl* td = program_.FindTable(t);
      out.state_tables.emplace_back(t, td->schema);
    }

    ComputeEffects(out);
    return out;
  }

 private:
  // --- Expression lowering --------------------------------------------------
  Result<ExprNode> LowerExpr(const dsl::Expr& expr, const Scope& scope) {
    if (const auto* lit = expr.As<dsl::LiteralExpr>()) {
      ExprNode node;
      node.kind = ExprNode::Kind::kLiteral;
      node.literal = lit->value;
      node.type = lit->value.type();
      return node;
    }
    if (const auto* col = expr.As<dsl::ColumnRefExpr>()) {
      return ResolveColumn(*col, expr.location, scope);
    }
    if (const auto* call = expr.As<dsl::CallExpr>()) {
      return LowerCall(*call, expr.location, scope);
    }
    if (const auto* un = expr.As<dsl::UnaryExpr>()) {
      ADN_ASSIGN_OR_RETURN(ExprNode operand, LowerExpr(*un->operand, scope));
      ExprNode node;
      node.kind = ExprNode::Kind::kUnary;
      node.unary_op = un->op;
      if (un->op == UnaryOp::kNegate) {
        if (operand.type != ValueType::kInt &&
            operand.type != ValueType::kFloat &&
            operand.type != ValueType::kNull) {
          return At(expr.location, ErrorCode::kTypeError,
                    "unary '-' wants a numeric operand, got " +
                        std::string(ValueTypeName(operand.type)));
        }
        node.type = operand.type;
      } else {
        if (operand.type != ValueType::kBool &&
            operand.type != ValueType::kNull) {
          return At(expr.location, ErrorCode::kTypeError,
                    "NOT wants a BOOL operand, got " +
                        std::string(ValueTypeName(operand.type)));
        }
        node.type = ValueType::kBool;
      }
      node.children.push_back(std::move(operand));
      return node;
    }
    const auto* bin = expr.As<dsl::BinaryExpr>();
    ADN_ASSIGN_OR_RETURN(ExprNode lhs, LowerExpr(*bin->lhs, scope));
    ADN_ASSIGN_OR_RETURN(ExprNode rhs, LowerExpr(*bin->rhs, scope));
    ExprNode node;
    node.kind = ExprNode::Kind::kBinary;
    node.binary_op = bin->op;
    ADN_ASSIGN_OR_RETURN(
        node.type, InferBinaryType(bin->op, lhs.type, rhs.type, expr.location));
    node.children.push_back(std::move(lhs));
    node.children.push_back(std::move(rhs));
    return node;
  }

  Result<ExprNode> ResolveColumn(const dsl::ColumnRefExpr& col,
                                 dsl::SourceLocation loc, const Scope& scope) {
    auto input_field = [&](const rpc::Column& c) {
      ExprNode node;
      node.kind = ExprNode::Kind::kInputField;
      node.field = c.name;
      node.type = c.type;
      return node;
    };
    auto table_field = [&](size_t idx, const rpc::Column& c) {
      ExprNode node;
      node.kind = ExprNode::Kind::kJoinField;
      node.join_col = idx;
      node.type = c.type;
      return node;
    };

    if (col.table == "input") {
      const rpc::Column* c = scope.input->FindColumn(col.column);
      if (c == nullptr) {
        return At(loc, ErrorCode::kNotFound,
                  "input has no field '" + col.column +
                      "' (declare it in INPUT)");
      }
      return input_field(*c);
    }
    if (!col.table.empty()) {
      if (scope.table == nullptr || scope.table_name != col.table) {
        return At(loc, ErrorCode::kNotFound,
                  "table '" + col.table + "' is not in scope here");
      }
      auto idx = scope.table->IndexOf(col.column);
      if (!idx.has_value()) {
        return At(loc, ErrorCode::kNotFound,
                  "table '" + col.table + "' has no column '" + col.column +
                      "'");
      }
      return table_field(*idx, scope.table->columns()[*idx]);
    }
    // Bare name: resolution order depends on statement kind.
    const rpc::Column* in_input = scope.input->FindColumn(col.column);
    std::optional<size_t> in_table =
        scope.table != nullptr ? scope.table->IndexOf(col.column)
                               : std::nullopt;
    // In UPDATE/DELETE the scanned table's columns shadow same-named input
    // fields (qualify with input.* to reach the RPC field); in SELECT a
    // bare name present on both sides is an error.
    if (scope.prefer_table && in_table.has_value()) {
      return table_field(*in_table, scope.table->columns()[*in_table]);
    }
    if (in_input != nullptr && in_table.has_value()) {
      return At(loc, ErrorCode::kTypeError,
                "ambiguous name '" + col.column +
                    "': qualify as input." + col.column + " or " +
                    scope.table_name + "." + col.column);
    }
    if (in_input != nullptr) return input_field(*in_input);
    if (in_table.has_value()) {
      return table_field(*in_table, scope.table->columns()[*in_table]);
    }
    return At(loc, ErrorCode::kNotFound,
              "unknown name '" + col.column + "'");
  }

  Result<ExprNode> LowerCall(const dsl::CallExpr& call,
                             dsl::SourceLocation loc, const Scope& scope) {
    const ir::FunctionDef* fn = functions_.Find(call.function);
    if (fn == nullptr) {
      return At(loc, ErrorCode::kNotFound,
                "unknown function '" + call.function + "'");
    }
    if (call.args.size() != fn->arg_types.size()) {
      return At(loc, ErrorCode::kTypeError,
                call.function + "() takes " +
                    std::to_string(fn->arg_types.size()) + " argument(s), " +
                    std::to_string(call.args.size()) + " given");
    }
    ExprNode node;
    node.kind = ExprNode::Kind::kCall;
    node.fn = fn;
    for (size_t i = 0; i < call.args.size(); ++i) {
      ADN_ASSIGN_OR_RETURN(ExprNode arg, LowerExpr(*call.args[i], scope));
      ValueType want = fn->arg_types[i];
      if (fn->variadic_numeric) {
        if (arg.type != ValueType::kInt && arg.type != ValueType::kFloat &&
            arg.type != ValueType::kNull) {
          return At(loc, ErrorCode::kTypeError,
                    call.function + "(): argument " + std::to_string(i + 1) +
                        " must be numeric, got " +
                        std::string(ValueTypeName(arg.type)));
        }
      } else if (want != ValueType::kNull && arg.type != ValueType::kNull &&
                 arg.type != want) {
        return At(loc, ErrorCode::kTypeError,
                  call.function + "(): argument " + std::to_string(i + 1) +
                      " must be " + std::string(ValueTypeName(want)) +
                      ", got " + std::string(ValueTypeName(arg.type)));
      }
      node.children.push_back(std::move(arg));
    }
    // Result type: polymorphic numerics take their argument type.
    if (fn->result_type == ValueType::kNull && fn->variadic_numeric &&
        !node.children.empty()) {
      ValueType t = node.children[0].type;
      for (const ExprNode& c : node.children) {
        if (c.type == ValueType::kFloat) t = ValueType::kFloat;
      }
      node.type = t;
    } else {
      node.type = fn->result_type;
    }
    return node;
  }

  Result<ValueType> InferBinaryType(BinaryOp op, ValueType lhs, ValueType rhs,
                                    dsl::SourceLocation loc) {
    auto numeric = [](ValueType t) {
      return t == ValueType::kInt || t == ValueType::kFloat ||
             t == ValueType::kNull;
    };
    switch (op) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        if ((lhs != ValueType::kBool && lhs != ValueType::kNull) ||
            (rhs != ValueType::kBool && rhs != ValueType::kNull)) {
          return At(loc, ErrorCode::kTypeError,
                    "AND/OR want BOOL operands");
        }
        return ValueType::kBool;
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        // Comparable: same type, or numeric-numeric, or either unknown.
        if (lhs != ValueType::kNull && rhs != ValueType::kNull &&
            lhs != rhs && !(numeric(lhs) && numeric(rhs))) {
          return At(loc, ErrorCode::kTypeError,
                    "cannot compare " + std::string(ValueTypeName(lhs)) +
                        " with " + std::string(ValueTypeName(rhs)));
        }
        return ValueType::kBool;
      case BinaryOp::kConcat:
        if ((lhs == ValueType::kText || lhs == ValueType::kNull) &&
            (rhs == ValueType::kText || rhs == ValueType::kNull)) {
          return ValueType::kText;
        }
        if (lhs == ValueType::kBytes && rhs == ValueType::kBytes) {
          return ValueType::kBytes;
        }
        return At(loc, ErrorCode::kTypeError,
                  "'||' wants TEXT or BYTES operands");
      case BinaryOp::kMod:
        if ((lhs != ValueType::kInt && lhs != ValueType::kNull) ||
            (rhs != ValueType::kInt && rhs != ValueType::kNull)) {
          return At(loc, ErrorCode::kTypeError, "'%' wants INT operands");
        }
        return ValueType::kInt;
      default:
        if (!numeric(lhs) || !numeric(rhs)) {
          return At(loc, ErrorCode::kTypeError,
                    "arithmetic wants numeric operands, got " +
                        std::string(ValueTypeName(lhs)) + " and " +
                        std::string(ValueTypeName(rhs)));
        }
        if (lhs == ValueType::kFloat || rhs == ValueType::kFloat) {
          return ValueType::kFloat;
        }
        if (lhs == ValueType::kNull || rhs == ValueType::kNull) {
          return ValueType::kNull;
        }
        return ValueType::kInt;
    }
  }

  // --- Statement lowering ---------------------------------------------------
  Result<const dsl::TableDecl*> RequireTable(const std::string& name,
                                             dsl::SourceLocation loc) {
    const dsl::TableDecl* td = program_.FindTable(name);
    if (td == nullptr) {
      return At(loc, ErrorCode::kNotFound,
                "unknown state table '" + name + "'");
    }
    if (std::find(used_tables_.begin(), used_tables_.end(), name) ==
        used_tables_.end()) {
      used_tables_.push_back(name);
    }
    return td;
  }

  Result<ir::StmtIr> LowerSelect(const dsl::SelectStmt& sel) {
    if (sel.from != "input") {
      return At(sel.location, ErrorCode::kTypeError,
                "element SELECT must read FROM input (got '" + sel.from +
                    "')");
    }
    ir::SelectIr out;
    out.on_drop = decl_.on_drop;
    out.abort_message = decl_.abort_message;

    Scope scope;
    scope.input = &current_schema_;

    if (sel.join.has_value()) {
      ADN_ASSIGN_OR_RETURN(const dsl::TableDecl* td,
                           RequireTable(sel.join->table, sel.join->location));
      scope.table = &td->schema;
      scope.table_name = td->name;

      // Normalize: exactly one side references the table with a bare column.
      ADN_ASSIGN_OR_RETURN(ir::SelectIr::JoinIr join,
                           LowerJoin(*sel.join, scope, *td));
      out.join = std::move(join);
    }

    if (sel.where != nullptr) {
      ADN_ASSIGN_OR_RETURN(ExprNode where, LowerExpr(*sel.where, scope));
      if (where.type != ValueType::kBool && where.type != ValueType::kNull) {
        return At(sel.location, ErrorCode::kTypeError,
                  "WHERE must be BOOL, got " +
                      std::string(ValueTypeName(where.type)));
      }
      out.where = std::move(where);
    }

    // Projection items.
    Schema next_schema;
    for (const dsl::SelectItem& item : sel.items) {
      if (item.is_star) {
        out.passthrough = true;
        continue;
      }
      ADN_ASSIGN_OR_RETURN(ExprNode e, LowerExpr(*item.expr, scope));
      ir::SelectIr::OutputField field;
      field.name = item.alias;
      field.type = e.type;
      // Identity projection: `x` or `input.x` kept under its own name.
      field.identity = e.kind == ExprNode::Kind::kInputField &&
                       e.field == item.alias;
      field.expr = std::move(e);
      if (field.name == ir::kDestinationField &&
          field.type != ValueType::kInt && field.type != ValueType::kNull) {
        return At(item.location, ErrorCode::kTypeError,
                  "__destination must be INT");
      }
      out.outputs.push_back(std::move(field));
    }
    if (!out.passthrough && out.outputs.empty()) {
      return At(sel.location, ErrorCode::kTypeError,
                "SELECT must output at least one field");
    }

    // Compute the post-statement tuple schema.
    if (out.passthrough) {
      next_schema = current_schema_;
      for (const auto& f : out.outputs) {
        if (auto idx = next_schema.IndexOf(f.name); idx.has_value()) {
          // Replacement: type may change (e.g. payload BYTES stays BYTES).
          Schema rebuilt;
          for (size_t i = 0; i < next_schema.columns().size(); ++i) {
            rpc::Column c = next_schema.columns()[i];
            if (i == *idx) c.type = f.type;
            (void)rebuilt.AddColumn(std::move(c));
          }
          next_schema = std::move(rebuilt);
        } else {
          (void)next_schema.AddColumn({f.name, f.type, false});
        }
      }
    } else {
      for (const auto& f : out.outputs) {
        ADN_RETURN_IF_ERROR(next_schema.AddColumn({f.name, f.type, false}));
      }
    }
    current_schema_ = std::move(next_schema);

    ir::StmtIr stmt;
    stmt.kind = ir::StmtIr::Kind::kSelect;
    stmt.select = std::move(out);
    return stmt;
  }

  Result<ir::SelectIr::JoinIr> LowerJoin(const dsl::JoinClause& join,
                                         const Scope& scope,
                                         const dsl::TableDecl& td) {
    // Decide which side is the table column. A side counts as "table" if it
    // is a bare/qualified column resolving to the joined table.
    auto side_as_table_col =
        [&](const dsl::Expr& e) -> std::optional<size_t> {
      const auto* col = e.As<dsl::ColumnRefExpr>();
      if (col == nullptr) return std::nullopt;
      if (!col->table.empty() && col->table != td.name) return std::nullopt;
      if (col->table.empty() &&
          scope.input->FindColumn(col->column) != nullptr) {
        return std::nullopt;  // bare name that is an input field
      }
      return td.schema.IndexOf(col->column);
    };

    std::optional<size_t> left_col = side_as_table_col(*join.left);
    std::optional<size_t> right_col = side_as_table_col(*join.right);
    if (left_col.has_value() == right_col.has_value()) {
      return At(join.location, ErrorCode::kTypeError,
                "JOIN ON must compare one input-side expression with one "
                "column of '" + td.name + "'");
    }
    size_t key_col = left_col.has_value() ? *left_col : *right_col;
    const dsl::Expr& probe_ast = left_col.has_value() ? *join.right : *join.left;

    Scope probe_scope;
    probe_scope.input = scope.input;  // probe may not read the table
    ADN_ASSIGN_OR_RETURN(ExprNode probe, LowerExpr(probe_ast, probe_scope));

    ValueType key_type = td.schema.columns()[key_col].type;
    if (probe.type != ValueType::kNull && probe.type != key_type &&
        !(probe.type == ValueType::kInt && key_type == ValueType::kFloat) &&
        !(probe.type == ValueType::kFloat && key_type == ValueType::kInt)) {
      return At(join.location, ErrorCode::kTypeError,
                "join key type mismatch: probe is " +
                    std::string(ValueTypeName(probe.type)) + ", column '" +
                    td.schema.columns()[key_col].name + "' is " +
                    std::string(ValueTypeName(key_type)));
    }

    ir::SelectIr::JoinIr out;
    out.table = td.name;
    out.probe = std::move(probe);
    out.table_key_col = key_col;
    auto pk = td.schema.PrimaryKeyIndexes();
    out.key_is_primary = pk.size() == 1 && pk[0] == key_col;
    return out;
  }

  Result<ir::StmtIr> LowerInsert(const dsl::InsertStmt& ins) {
    ADN_ASSIGN_OR_RETURN(const dsl::TableDecl* td,
                         RequireTable(ins.table, ins.location));
    const Schema& schema = td->schema;

    // Column mapping: named columns or full schema order.
    std::vector<size_t> target_cols;
    if (ins.columns.empty()) {
      for (size_t i = 0; i < schema.size(); ++i) target_cols.push_back(i);
    } else {
      for (const std::string& c : ins.columns) {
        auto idx = schema.IndexOf(c);
        if (!idx.has_value()) {
          return At(ins.location, ErrorCode::kNotFound,
                    "table '" + ins.table + "' has no column '" + c + "'");
        }
        target_cols.push_back(*idx);
      }
    }

    Scope scope;
    scope.input = &current_schema_;

    std::vector<ExprNode> per_target;
    if (ins.from_select != nullptr) {
      const dsl::SelectStmt& sel = *ins.from_select;
      if (sel.from != "input") {
        return At(sel.location, ErrorCode::kTypeError,
                  "INSERT ... SELECT must read FROM input");
      }
      if (sel.join.has_value() || sel.where != nullptr) {
        return At(sel.location, ErrorCode::kUnsupported,
                  "INSERT ... SELECT does not support JOIN/WHERE (filter "
                  "with a preceding SELECT statement instead)");
      }
      for (const dsl::SelectItem& item : sel.items) {
        if (item.is_star) {
          return At(item.location, ErrorCode::kUnsupported,
                    "INSERT ... SELECT * is not supported; list columns");
        }
        ADN_ASSIGN_OR_RETURN(ExprNode e, LowerExpr(*item.expr, scope));
        per_target.push_back(std::move(e));
      }
    } else {
      for (const dsl::ExprPtr& e : ins.values) {
        ADN_ASSIGN_OR_RETURN(ExprNode node, LowerExpr(*e, scope));
        per_target.push_back(std::move(node));
      }
    }
    if (per_target.size() != target_cols.size()) {
      return At(ins.location, ErrorCode::kTypeError,
                "INSERT provides " + std::to_string(per_target.size()) +
                    " value(s) for " + std::to_string(target_cols.size()) +
                    " column(s)");
    }

    // Build full-row expressions in schema order; unnamed columns get NULL.
    ir::InsertIr out;
    out.table = ins.table;
    out.values.resize(schema.size());
    for (auto& v : out.values) {
      v.kind = ExprNode::Kind::kLiteral;
      v.literal = rpc::Value::Null();
      v.type = ValueType::kNull;
    }
    for (size_t i = 0; i < target_cols.size(); ++i) {
      ValueType want = schema.columns()[target_cols[i]].type;
      ValueType got = per_target[i].type;
      if (got != ValueType::kNull && got != want) {
        return At(ins.location, ErrorCode::kTypeError,
                  "column '" + schema.columns()[target_cols[i]].name +
                      "' wants " + std::string(ValueTypeName(want)) +
                      ", got " + std::string(ValueTypeName(got)));
      }
      out.values[target_cols[i]] = std::move(per_target[i]);
    }

    ir::StmtIr stmt;
    stmt.kind = ir::StmtIr::Kind::kInsert;
    stmt.insert = std::move(out);
    return stmt;
  }

  Result<ir::StmtIr> LowerUpdate(const dsl::UpdateStmt& upd) {
    ADN_ASSIGN_OR_RETURN(const dsl::TableDecl* td,
                         RequireTable(upd.table, upd.location));
    Scope scope;
    scope.input = &current_schema_;
    scope.table = &td->schema;
    scope.table_name = td->name;
    scope.prefer_table = true;

    ir::UpdateIr out;
    out.table = upd.table;
    for (const auto& [col, expr] : upd.assignments) {
      auto idx = td->schema.IndexOf(col);
      if (!idx.has_value()) {
        return At(upd.location, ErrorCode::kNotFound,
                  "table '" + upd.table + "' has no column '" + col + "'");
      }
      ADN_ASSIGN_OR_RETURN(ExprNode e, LowerExpr(*expr, scope));
      ValueType want = td->schema.columns()[*idx].type;
      if (e.type != ValueType::kNull && e.type != want) {
        return At(upd.location, ErrorCode::kTypeError,
                  "column '" + col + "' wants " +
                      std::string(ValueTypeName(want)) + ", got " +
                      std::string(ValueTypeName(e.type)));
      }
      out.assignments.emplace_back(*idx, std::move(e));
    }
    if (upd.where != nullptr) {
      ADN_ASSIGN_OR_RETURN(ExprNode where, LowerExpr(*upd.where, scope));
      out.where = std::move(where);
    }

    ir::StmtIr stmt;
    stmt.kind = ir::StmtIr::Kind::kUpdate;
    stmt.update = std::move(out);
    return stmt;
  }

  Result<ir::StmtIr> LowerDelete(const dsl::DeleteStmt& del) {
    ADN_ASSIGN_OR_RETURN(const dsl::TableDecl* td,
                         RequireTable(del.table, del.location));
    Scope scope;
    scope.input = &current_schema_;
    scope.table = &td->schema;
    scope.table_name = td->name;
    scope.prefer_table = true;

    ir::DeleteIr out;
    out.table = del.table;
    if (del.where != nullptr) {
      ADN_ASSIGN_OR_RETURN(ExprNode where, LowerExpr(*del.where, scope));
      out.where = std::move(where);
    }

    ir::StmtIr stmt;
    stmt.kind = ir::StmtIr::Kind::kDelete;
    stmt.del = std::move(out);
    return stmt;
  }

  // --- Effects ---------------------------------------------------------------
  void ComputeEffects(ElementIr& element) {
    ir::EffectSummary& eff = element.effects;
    auto add_unique = [](std::vector<std::string>& v, const std::string& s) {
      if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
    };

    for (const ir::StmtIr& stmt : element.statements) {
      auto note_expr = [&](const ExprNode& e) {
        std::vector<std::string> reads;
        e.CollectInputFields(reads);
        for (auto& f : reads) add_unique(eff.fields_read, f);
        if (e.IsNondeterministic()) eff.nondeterministic = true;
        if (e.ReadsMetadata()) eff.reads_metadata = true;
      };

      switch (stmt.kind) {
        case ir::StmtIr::Kind::kSelect: {
          const ir::SelectIr& sel = *stmt.select;
          if (sel.join.has_value()) {
            eff.may_drop = true;
            add_unique(eff.tables_read, sel.join->table);
            note_expr(sel.join->probe);
          }
          if (sel.where.has_value()) {
            eff.may_drop = true;
            note_expr(*sel.where);
          }
          for (const auto& out : sel.outputs) {
            note_expr(out.expr);
            if (!out.identity) {
              add_unique(eff.fields_written, out.name);
              if (out.name == ir::kDestinationField) {
                eff.sets_destination = true;
              }
            }
          }
          break;
        }
        case ir::StmtIr::Kind::kInsert: {
          add_unique(eff.tables_written, stmt.insert->table);
          for (const ExprNode& e : stmt.insert->values) note_expr(e);
          break;
        }
        case ir::StmtIr::Kind::kUpdate: {
          add_unique(eff.tables_read, stmt.update->table);
          add_unique(eff.tables_written, stmt.update->table);
          for (const auto& [idx, e] : stmt.update->assignments) {
            (void)idx;
            note_expr(e);
          }
          if (stmt.update->where.has_value()) note_expr(*stmt.update->where);
          break;
        }
        case ir::StmtIr::Kind::kDelete: {
          add_unique(eff.tables_read, stmt.del->table);
          add_unique(eff.tables_written, stmt.del->table);
          if (stmt.del->where.has_value()) note_expr(*stmt.del->where);
          break;
        }
      }
    }
    std::sort(eff.fields_read.begin(), eff.fields_read.end());
    std::sort(eff.fields_written.begin(), eff.fields_written.end());
    std::sort(eff.tables_read.begin(), eff.tables_read.end());
    std::sort(eff.tables_written.begin(), eff.tables_written.end());
  }

  const dsl::ElementDecl& decl_;
  const dsl::Program& program_;
  const ir::FunctionRegistry& functions_;
  Schema current_schema_;
  std::vector<std::string> used_tables_;
};

// Filter operator contracts: name, argument types (INT is accepted for
// FLOAT), and the simulated charge per message in CostModel::adn_op_ns
// units (agg_topk adds k: its eviction scans the tracked keys).
struct FilterOpSpec {
  std::string_view name;
  ir::FilterKind kind;
  double cost_ops;
  std::vector<std::pair<std::string_view, ValueType>> required;
  std::vector<std::pair<std::string_view, ValueType>> optional;
};

const std::vector<FilterOpSpec>& FilterOpSpecs() {
  using K = ir::FilterKind;
  static const std::vector<FilterOpSpec> kSpecs = {
      {"retry", K::kRetry, 0,
       {{"max_attempts", ValueType::kInt}},
       {{"timeout_ms", ValueType::kInt}}},
      {"timeout", K::kTimeout, 0, {{"timeout_ms", ValueType::kInt}}, {}},
      {"rate_limit", K::kRateLimit, 5,
       {{"rps", ValueType::kInt}},
       {{"burst", ValueType::kInt}}},
      {"circuit_breaker", K::kCircuitBreaker, 6,
       {{"error_threshold", ValueType::kFloat}},
       {{"window", ValueType::kInt}, {"cooldown_ms", ValueType::kInt}}},
      {"dedup", K::kDedup, 4, {}, {{"window", ValueType::kInt}}},
      // Aggregation primitives (paper §5.1 "telemetry in the network"):
      // pass-through observers that fold a stream statistic into local
      // state. Field-name arguments are TEXT (the parser turns bare
      // identifiers into text values); they feed fields_read so the P4
      // parse-depth check and header prioritization see exactly which
      // bytes a constrained processor must parse.
      {"agg_count", K::kAggCount, 2,
       {},
       {{"key", ValueType::kText}, {"groups", ValueType::kInt}}},
      {"agg_sum", K::kAggSum, 3,
       {{"field", ValueType::kText}},
       {{"key", ValueType::kText}, {"groups", ValueType::kInt}}},
      {"agg_topk", K::kAggTopk, 4,
       {{"key", ValueType::kText}},
       {{"k", ValueType::kInt}}},
  };
  return kSpecs;
}

// FILTER decl -> ElementIr with a resolved filter_op and the operator's
// state declared as `__filter_<name>` tables (ir/exec.cc RunFilter reads
// them by position). Keyless one-row tables hold per-instance state, which
// a live slot migration never moves; keyed ones move key slot by key slot.
Result<ElementIr> LowerFilter(const dsl::FilterDecl& decl) {
  const FilterOpSpec* spec = nullptr;
  for (const auto& s : FilterOpSpecs()) {
    if (s.name == decl.op) {
      spec = &s;
      break;
    }
  }
  if (spec == nullptr) {
    return At(decl.location, ErrorCode::kNotFound,
              "unknown filter operator '" + decl.op + "'");
  }
  // Validate arguments: every one known and of its declared type, every
  // required one present.
  auto find_arg = [&](std::string_view name) -> const rpc::Value* {
    for (const auto& [k, v] : decl.args) {
      if (k == name) return &v;
    }
    return nullptr;
  };
  for (const auto& [k, v] : decl.args) {
    const ValueType* type = nullptr;
    for (const auto* list : {&spec->required, &spec->optional}) {
      for (const auto& [name, t] : *list) {
        if (name == k) type = &t;
      }
    }
    if (type == nullptr) {
      return At(decl.location, ErrorCode::kInvalidArgument,
                decl.op + " has no argument '" + k + "'");
    }
    if (v.type() != *type &&
        !(*type == ValueType::kFloat && v.type() == ValueType::kInt)) {
      return At(decl.location, ErrorCode::kTypeError,
                "argument '" + k + "' of " + decl.op + " must be " +
                    std::string(ValueTypeName(*type)));
    }
  }
  for (const auto& [name, type] : spec->required) {
    (void)type;
    if (find_arg(name) == nullptr) {
      return At(decl.location, ErrorCode::kInvalidArgument,
                decl.op + " requires argument '" + std::string(name) + "'");
    }
  }
  auto int_arg = [&](std::string_view name, int64_t fallback) {
    const rpc::Value* v = find_arg(name);
    return v != nullptr ? v->AsInt() : fallback;
  };
  auto count_arg = [&](std::string_view name, int64_t fallback) {
    return std::max<size_t>(static_cast<size_t>(int_arg(name, fallback)), 1);
  };
  auto field_arg = [&](std::string_view name) -> std::optional<rpc::FieldId> {
    const rpc::Value* v = find_arg(name);
    if (v == nullptr) return std::nullopt;
    return rpc::InternFieldName(v->AsText());
  };

  ElementIr out;
  out.name = decl.name;
  out.abort_message = decl.name + ": rejected";
  // The operator decides which messages it sees: a circuit breaker counts
  // responses as well, every other operator runs on requests only.
  out.direction = spec->kind == ir::FilterKind::kCircuitBreaker
                      ? dsl::Direction::kBoth
                      : dsl::Direction::kRequest;
  const std::string table = "__filter_" + decl.name;
  auto declare = [&out](std::string name,
                        std::initializer_list<rpc::Column> columns) {
    Schema schema;
    for (const rpc::Column& c : columns) (void)schema.AddColumn(c);
    out.state_tables.emplace_back(std::move(name), std::move(schema));
  };
  ir::FilterIr f;
  f.kind = spec->kind;
  f.op = decl.op;
  f.cost_ops = spec->cost_ops;
  switch (f.kind) {
    case ir::FilterKind::kRateLimit:
      f.rps = static_cast<double>(int_arg("rps", 1000));
      f.burst = static_cast<double>(std::max<int64_t>(int_arg("burst", 16), 1));
      declare(table, {{"tokens", ValueType::kFloat, false},
                      {"refilled_at", ValueType::kInt, false}});
      break;
    case ir::FilterKind::kDedup:
      f.window = count_arg("window", 1024);
      declare(table, {{"rpc_id", ValueType::kInt, true},
                      {"seq", ValueType::kInt, false}});
      break;
    case ir::FilterKind::kCircuitBreaker:
      f.error_threshold = find_arg("error_threshold")->NumericAsDouble();
      f.window = count_arg("window", 64);
      f.cooldown_ns = int_arg("cooldown_ms", 100) * 1'000'000;
      declare(table, {{"open_until", ValueType::kInt, false}});
      declare(table + "_outcomes", {{"seq", ValueType::kInt, true},
                                    {"error", ValueType::kBool, false}});
      break;
    case ir::FilterKind::kAggCount:
      f.key = field_arg("key");
      f.groups = count_arg("groups", 1024);
      declare(table, {{"total", ValueType::kInt, false},
                      {"overflow", ValueType::kInt, false}});
      if (f.key.has_value()) {
        declare(table + "_groups", {{"grp", ValueType::kInt, true},
                                    {"n", ValueType::kInt, false}});
      }
      break;
    case ir::FilterKind::kAggSum:
      f.field = *field_arg("field");
      f.key = field_arg("key");
      f.groups = count_arg("groups", 1024);
      declare(table, {{"samples", ValueType::kInt, false},
                      {"overflow", ValueType::kInt, false},
                      {"total", ValueType::kFloat, false}});
      if (f.key.has_value()) {
        declare(table + "_groups", {{"grp", ValueType::kInt, true},
                                    {"sum", ValueType::kFloat, false}});
      }
      break;
    case ir::FilterKind::kAggTopk:
      f.key = field_arg("key");
      f.k = count_arg("k", 8);
      f.cost_ops += static_cast<double>(f.k);
      declare(table, {{"key", ValueType::kText, true},
                      {"n", ValueType::kInt, false},
                      {"err", ValueType::kInt, false}});
      break;
    case ir::FilterKind::kRetry:
    case ir::FilterKind::kTimeout:
      break;
  }
  if (f.IsAggregation()) {
    // Aggregations never drop and read only their named fields — precise
    // effects are what lets the placement pass put them on constrained
    // processors (the parse-depth check needs the exact field set).
    out.effects.may_drop = false;
    out.effects.nondeterministic = false;
    out.effects.reads_metadata = true;
    for (const auto& [k, v] : decl.args) {
      if (k == "key" || k == "field") {
        out.effects.fields_read.push_back(std::string(v.AsText()));
      }
    }
    std::sort(out.effects.fields_read.begin(), out.effects.fields_read.end());
    out.effects.fields_read.erase(
        std::unique(out.effects.fields_read.begin(),
                    out.effects.fields_read.end()),
        out.effects.fields_read.end());
  } else {
    // Conservative effects: stream-shaping operators may drop/delay messages
    // and are timing-dependent; they read/write no RPC fields.
    out.effects.may_drop = true;
    out.effects.nondeterministic = true;
    out.effects.reads_metadata = true;
  }
  out.filter_op = std::move(f);
  return out;
}

// CACHE decl -> ElementIr with cache_op and a synthesized backing table
// `__cache_<name>` (ckey INT PRIMARY KEY, resp BYTES, stored_at INT). The
// rows are ordinary relational state, so snapshot/split/merge/migration all
// work unchanged; the ARC recency metadata is runtime-only (ir/exec.cc).
Result<ElementIr> LowerCache(const dsl::CacheDecl& decl) {
  auto find_arg = [&](std::string_view name) -> const rpc::Value* {
    for (const auto& [k, v] : decl.args) {
      if (k == name) return &v;
    }
    return nullptr;
  };
  for (const auto& [k, v] : decl.args) {
    (void)v;
    if (k != "capacity" && k != "ttl_ms") {
      return At(decl.location, ErrorCode::kInvalidArgument,
                "CACHE has no argument '" + k + "'");
    }
  }
  const rpc::Value* cap = find_arg("capacity");
  if (cap == nullptr || cap->type() != ValueType::kInt) {
    return At(decl.location, ErrorCode::kInvalidArgument,
              "CACHE requires capacity => <int>");
  }
  if (cap->AsInt() <= 0) {
    return At(decl.location, ErrorCode::kInvalidArgument,
              "CACHE capacity must be positive, got " +
                  std::to_string(cap->AsInt()));
  }
  ir::CacheIr cache;
  cache.capacity = static_cast<size_t>(cap->AsInt());
  if (const rpc::Value* ttl = find_arg("ttl_ms"); ttl != nullptr) {
    if (ttl->type() != ValueType::kInt || ttl->AsInt() < 0) {
      return At(decl.location, ErrorCode::kInvalidArgument,
                "CACHE ttl_ms must be a non-negative integer");
    }
    cache.ttl_ns = ttl->AsInt() * 1'000'000;
  }
  if (decl.key_fields.empty()) {
    return At(decl.location, ErrorCode::kInvalidArgument,
              "CACHE needs at least one KEY field");
  }
  cache.key_fields = decl.key_fields;
  cache.table = "__cache_" + decl.name;

  ElementIr out;
  out.name = decl.name;
  out.direction = dsl::Direction::kBoth;  // lookup on request, fill on response
  out.abort_message = decl.name + ": cache";
  Schema schema;
  (void)schema.AddColumn({"ckey", ValueType::kInt, /*primary_key=*/true});
  (void)schema.AddColumn({"resp", ValueType::kBytes, false});
  (void)schema.AddColumn({"stored_at", ValueType::kInt, false});
  out.state_tables.emplace_back(cache.table, std::move(schema));
  // Effects: reads the key fields on requests, rewrites the whole message on
  // a hit (conservatively: no fields_written claim — the hit replaces the
  // message rather than editing fields, and the chain stops there). TTL makes
  // it timing-dependent.
  out.effects.fields_read = decl.key_fields;
  std::sort(out.effects.fields_read.begin(), out.effects.fields_read.end());
  out.effects.fields_read.erase(
      std::unique(out.effects.fields_read.begin(),
                  out.effects.fields_read.end()),
      out.effects.fields_read.end());
  out.effects.tables_read.push_back(cache.table);
  out.effects.tables_written.push_back(cache.table);
  out.effects.nondeterministic = true;
  out.effects.reads_metadata = true;
  out.cache_op = std::move(cache);
  return out;
}

}  // namespace

Result<ir::ElementIr> LowerElement(const dsl::ElementDecl& decl,
                                   const dsl::Program& program,
                                   const ir::FunctionRegistry& functions) {
  return ElementLowerer(decl, program, functions).Run();
}

std::shared_ptr<const ir::ElementIr> ProgramIr::FindElement(
    std::string_view name) const {
  for (const auto& e : elements) {
    if (e->name == name) return e;
  }
  return nullptr;
}

const ChainIr* ProgramIr::FindChain(std::string_view name) const {
  for (const auto& c : chains) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

Result<ProgramIr> LowerProgram(
    const dsl::Program& program,
    std::shared_ptr<const ir::FunctionRegistry> functions) {
  ProgramIr out;
  out.functions = functions;

  for (const dsl::ElementDecl& decl : program.elements) {
    ADN_ASSIGN_OR_RETURN(ir::ElementIr e,
                         LowerElement(decl, program, *functions));
    out.elements.push_back(std::make_shared<ir::ElementIr>(std::move(e)));
  }
  for (const dsl::FilterDecl& decl : program.filters) {
    ADN_ASSIGN_OR_RETURN(ir::ElementIr e, LowerFilter(decl));
    out.elements.push_back(std::make_shared<ir::ElementIr>(std::move(e)));
  }
  for (const dsl::CacheDecl& decl : program.caches) {
    ADN_ASSIGN_OR_RETURN(ir::ElementIr e, LowerCache(decl));
    out.elements.push_back(std::make_shared<ir::ElementIr>(std::move(e)));
  }

  for (const dsl::ChainDecl& decl : program.chains) {
    ChainIr chain;
    chain.name = decl.name;
    chain.caller_service = decl.caller_service;
    chain.callee_service = decl.callee_service;
    for (const dsl::ChainElementRef& ref : decl.elements) {
      auto element = out.FindElement(ref.element);
      if (element == nullptr) {
        return Error(ErrorCode::kNotFound,
                     "chain '" + decl.name + "' references unknown element '" +
                         ref.element + "' at " +
                         ref.source_location.ToString());
      }
      chain.elements.push_back(std::move(element));
      chain.constraints.push_back(ref.location);
    }
    if (chain.elements.empty()) {
      return Error(ErrorCode::kInvalidArgument,
                   "chain '" + decl.name + "' is empty");
    }
    out.chains.push_back(std::move(chain));
  }
  return out;
}

}  // namespace adn::compiler
