#include "ir/expr.h"

#include <algorithm>

namespace adn::ir {

using dsl::BinaryOp;
using dsl::UnaryOp;
using rpc::Value;
using rpc::ValueType;

int ExprNode::OpCount() const {
  int total = 1;
  for (const ExprNode& c : children) total += c.OpCount();
  return total;
}

void ExprNode::CollectInputFields(std::vector<std::string>& out) const {
  if (kind == Kind::kInputField) {
    if (std::find(out.begin(), out.end(), field) == out.end()) {
      out.push_back(field);
    }
  }
  for (const ExprNode& c : children) c.CollectInputFields(out);
}

bool ExprNode::IsNondeterministic() const {
  if (kind == Kind::kCall && fn != nullptr && !fn->deterministic) return true;
  for (const ExprNode& c : children) {
    if (c.IsNondeterministic()) return true;
  }
  return false;
}

bool ExprNode::ReadsMetadata() const {
  if (kind == Kind::kCall && fn != nullptr && fn->reads_metadata) return true;
  for (const ExprNode& c : children) {
    if (c.ReadsMetadata()) return true;
  }
  return false;
}

bool ExprNode::AllFunctions(
    const std::function<bool(const FunctionDef&)>& pred) const {
  if (kind == Kind::kCall && fn != nullptr && !pred(*fn)) return false;
  for (const ExprNode& c : children) {
    if (!c.AllFunctions(pred)) return false;
  }
  return true;
}

std::string ExprNode::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToDisplayString();
    case Kind::kInputField:
      return "input." + field;
    case Kind::kJoinField:
      return "join[" + std::to_string(join_col) + "]";
    case Kind::kCall: {
      std::string out = (fn != nullptr ? fn->name : "?") + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i].ToString();
      }
      return out + ")";
    }
    case Kind::kUnary:
      return std::string(unary_op == UnaryOp::kNegate ? "-" : "NOT ") +
             children[0].ToString();
    case Kind::kBinary:
      return "(" + children[0].ToString() + " " +
             std::string(dsl::BinaryOpName(binary_op)) + " " +
             children[1].ToString() + ")";
  }
  return "?";
}

namespace {

Result<Value> EvalArithmetic(BinaryOp op, const Value& a, const Value& b) {
  if (op == BinaryOp::kConcat) {
    if (a.type() == ValueType::kText && b.type() == ValueType::kText) {
      std::string out;
      out.reserve(a.AsText().size() + b.AsText().size());
      out.append(a.AsText());
      out.append(b.AsText());
      return Value(std::move(out));
    }
    if (a.type() == ValueType::kBytes && b.type() == ValueType::kBytes) {
      const BytesView av = a.AsBytes();
      const BytesView bv = b.AsBytes();
      Bytes out;
      out.reserve(av.size() + bv.size());
      out.insert(out.end(), av.begin(), av.end());
      out.insert(out.end(), bv.begin(), bv.end());
      return Value(std::move(out));
    }
    return Error(ErrorCode::kTypeError, "'||' wants TEXT or BYTES operands");
  }
  if (!a.IsNumeric() || !b.IsNumeric()) {
    return Error(ErrorCode::kTypeError,
                 "arithmetic on non-numeric values");
  }
  const bool both_int =
      a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  if (both_int) {
    int64_t x = a.AsInt();
    int64_t y = b.AsInt();
    switch (op) {
      case BinaryOp::kAdd: return Value(x + y);
      case BinaryOp::kSub: return Value(x - y);
      case BinaryOp::kMul: return Value(x * y);
      case BinaryOp::kDiv:
        if (y == 0) return Value::Null();  // SQL: division by zero => NULL
        return Value(x / y);
      case BinaryOp::kMod:
        if (y == 0) return Value::Null();
        // Euclidean-style: result has the sign of the divisor's magnitude,
        // always non-negative for positive divisors (hash % n stays valid).
        {
          int64_t r = x % y;
          if (r < 0) r += (y < 0 ? -y : y);
          return Value(r);
        }
      default: break;
    }
  } else {
    double x = a.NumericAsDouble();
    double y = b.NumericAsDouble();
    switch (op) {
      case BinaryOp::kAdd: return Value(x + y);
      case BinaryOp::kSub: return Value(x - y);
      case BinaryOp::kMul: return Value(x * y);
      case BinaryOp::kDiv:
        if (y == 0.0) return Value::Null();
        return Value(x / y);
      case BinaryOp::kMod:
        return Error(ErrorCode::kTypeError, "'%' wants integer operands");
      default: break;
    }
  }
  return Error(ErrorCode::kInternal, "unhandled arithmetic operator");
}

Result<Value> EvalComparison(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == BinaryOp::kEq) return Value(a.EqualsValue(b));
  if (op == BinaryOp::kNe) return Value(!a.EqualsValue(b));
  int c = a.CompareTo(b);
  switch (op) {
    case BinaryOp::kLt: return Value(c < 0);
    case BinaryOp::kLe: return Value(c <= 0);
    case BinaryOp::kGt: return Value(c > 0);
    case BinaryOp::kGe: return Value(c >= 0);
    default: break;
  }
  return Error(ErrorCode::kInternal, "unhandled comparison operator");
}

// Borrow the expression's value without copying when it is a literal or a
// direct field/column reference — the operands of virtually every WHERE
// clause and join predicate. Returns nullptr when the expression computes.
const Value* TryBorrow(const ExprNode& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprNode::Kind::kLiteral:
      return &expr.literal;
    case ExprNode::Kind::kInputField:
      return ctx.message != nullptr ? &ctx.message->GetFieldOrNull(expr.field)
                                    : nullptr;
    case ExprNode::Kind::kJoinField:
      return ctx.joined_row.data() != nullptr &&
                     expr.join_col < ctx.joined_row.size()
                 ? &ctx.joined_row[expr.join_col]
                 : nullptr;
    default:
      return nullptr;
  }
}

}  // namespace

bool ValueTruthy(const Value& v) {
  return v.type() == ValueType::kBool && v.AsBool();
}

Result<Value> EvalBinaryValue(BinaryOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalComparison(op, a, b);
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return Error(ErrorCode::kInternal,
                   "AND/OR must be lowered to control flow");
    default:
      if (a.is_null() || b.is_null()) return Value::Null();
      return EvalArithmetic(op, a, b);
  }
}

Result<Value> EvalUnaryValue(UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNegate) {
    if (v.type() == ValueType::kInt) return Value(-v.AsInt());
    if (v.type() == ValueType::kFloat) return Value(-v.AsFloat());
    return Error(ErrorCode::kTypeError, "unary '-' wants numeric");
  }
  if (v.type() != ValueType::kBool) {
    return Error(ErrorCode::kTypeError, "NOT wants BOOL");
  }
  return Value(!v.AsBool());
}

Result<Value> EvaluateExpr(const ExprNode& expr, EvalContext& ctx) {
  switch (expr.kind) {
    case ExprNode::Kind::kLiteral:
      return expr.literal;
    case ExprNode::Kind::kInputField: {
      if (ctx.message == nullptr) {
        return Error(ErrorCode::kFailedPrecondition,
                     "no message bound while reading input." + expr.field);
      }
      return ctx.message->GetFieldOrNull(expr.field);
    }
    case ExprNode::Kind::kJoinField: {
      if (ctx.joined_row.data() == nullptr) {
        return Error(ErrorCode::kFailedPrecondition,
                     "join field read outside a JOIN context");
      }
      if (expr.join_col >= ctx.joined_row.size()) {
        return Error(ErrorCode::kInternal, "join column out of range");
      }
      return ctx.joined_row[expr.join_col];
    }
    case ExprNode::Kind::kCall: {
      // len() on a direct field reference is a hot path (logging, quotas):
      // read the size in place instead of copying the payload into an
      // argument vector.
      if (expr.fn->name == "len" && expr.children.size() == 1) {
        if (const Value* v = TryBorrow(expr.children[0], ctx)) {
          if (v->type() == ValueType::kText) {
            return Value(static_cast<int64_t>(v->AsText().size()));
          }
          if (v->type() == ValueType::kBytes) {
            return Value(static_cast<int64_t>(v->AsBytes().size()));
          }
        }
      }
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const ExprNode& c : expr.children) {
        ADN_ASSIGN_OR_RETURN(Value v, EvaluateExpr(c, ctx));
        args.push_back(std::move(v));
      }
      return expr.fn->eval(ctx.fn_ctx, args);
    }
    case ExprNode::Kind::kUnary: {
      ADN_ASSIGN_OR_RETURN(Value v, EvaluateExpr(expr.children[0], ctx));
      return EvalUnaryValue(expr.unary_op, v);
    }
    case ExprNode::Kind::kBinary: {
      const BinaryOp op = expr.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        // Short-circuit; NULL treated as false at this boundary.
        ADN_ASSIGN_OR_RETURN(Value lhs, EvaluateExpr(expr.children[0], ctx));
        bool l = ValueTruthy(lhs);
        if (op == BinaryOp::kAnd && !l) return Value(false);
        if (op == BinaryOp::kOr && l) return Value(true);
        ADN_ASSIGN_OR_RETURN(Value rhs, EvaluateExpr(expr.children[1], ctx));
        return Value(ValueTruthy(rhs));
      }
      // Comparisons over borrowable operands (field vs literal, field vs
      // joined column) evaluate copy-free — the WHERE-clause hot path.
      const bool is_comparison =
          op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
          op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
      if (is_comparison) {
        const Value* l = TryBorrow(expr.children[0], ctx);
        const Value* r = TryBorrow(expr.children[1], ctx);
        if (l != nullptr && r != nullptr) return EvalComparison(op, *l, *r);
      }
      ADN_ASSIGN_OR_RETURN(Value lhs, EvaluateExpr(expr.children[0], ctx));
      ADN_ASSIGN_OR_RETURN(Value rhs, EvaluateExpr(expr.children[1], ctx));
      if (is_comparison) return EvalComparison(op, lhs, rhs);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return EvalArithmetic(op, lhs, rhs);
    }
  }
  return Error(ErrorCode::kInternal, "unhandled expression kind");
}

Result<bool> EvaluatePredicate(const ExprNode& expr, EvalContext& ctx) {
  ADN_ASSIGN_OR_RETURN(Value v, EvaluateExpr(expr, ctx));
  return ValueTruthy(v);
}

}  // namespace adn::ir
