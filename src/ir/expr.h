// Resolved, typed expression trees — the expression layer of the ADN IR.
//
// Produced from dsl::Expr by compiler/lower.cc: column references are
// resolved against the element's input schema or the joined state table,
// function calls are bound to FunctionDef entries, and a static result type
// is attached. Evaluation is a recursive walk; OpCount() feeds both the
// simulated per-element cost and the generated-vs-hand-coded comparisons.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "dsl/ast.h"
#include "ir/functions.h"
#include "rpc/message.h"
#include "rpc/table.h"

namespace adn::ir {

struct ExprNode {
  enum class Kind : uint8_t {
    kLiteral,     // constant
    kInputField,  // field of the RPC tuple, by name
    kJoinField,   // column of the joined state-table row, by index
    kCall,        // bound function
    kUnary,
    kBinary,
  };

  Kind kind = Kind::kLiteral;
  // Static result type; kNull means "depends on runtime input" (only for a
  // handful of polymorphic builtins — the type checker narrows where it can).
  rpc::ValueType type = rpc::ValueType::kNull;

  rpc::Value literal;                    // kLiteral
  std::string field;                     // kInputField
  size_t join_col = 0;                   // kJoinField
  const FunctionDef* fn = nullptr;       // kCall (owned by the registry)
  dsl::UnaryOp unary_op = dsl::UnaryOp::kNot;
  dsl::BinaryOp binary_op = dsl::BinaryOp::kAnd;
  std::vector<ExprNode> children;

  // Number of evaluation steps (nodes); the backends' cost unit.
  int OpCount() const;

  // Field names of the RPC tuple this expression reads.
  void CollectInputFields(std::vector<std::string>& out) const;

  // True if any node calls a non-deterministic function.
  bool IsNondeterministic() const;
  // True if any node reads message metadata (rpc_id(), method(), ...).
  bool ReadsMetadata() const;
  // True if every function used is available on the given target.
  bool AllFunctions(const std::function<bool(const FunctionDef&)>& pred) const;

  std::string ToString() const;
};

// Runtime context for expression evaluation.
struct EvalContext {
  const rpc::Message* message = nullptr;
  rpc::RowRef joined_row;  // inside a JOIN match; data() null otherwise
  FunctionContext fn_ctx;
};

// Evaluate the expression. SQL NULL semantics: any NULL operand of an
// arithmetic/comparison/concat operator yields NULL; AND/OR use Kleene logic
// flattened to two values at the predicate boundary (NULL => false).
Result<rpc::Value> EvaluateExpr(const ExprNode& expr, EvalContext& ctx);

// Evaluate as a predicate: NULL and non-BOOL are false.
Result<bool> EvaluatePredicate(const ExprNode& expr, EvalContext& ctx);

// --- Operator semantics shared with the compiled tier ----------------------
// The ChainProgram executor (ir/program.h) must agree with the interpreter
// bit-for-bit, including NULL propagation and error messages, so both tiers
// evaluate operators through these helpers.

// Predicate truthiness: only a BOOL true is true (NULL and non-BOOL false).
bool ValueTruthy(const rpc::Value& v);

// Any binary operator except AND/OR (those short-circuit and are lowered to
// jumps by the compiler). Comparisons yield NULL on a NULL operand;
// arithmetic/concat propagate NULL before type checks.
Result<rpc::Value> EvalBinaryValue(dsl::BinaryOp op, const rpc::Value& a,
                                   const rpc::Value& b);

// NOT / unary minus, NULL-propagating.
Result<rpc::Value> EvalUnaryValue(dsl::UnaryOp op, const rpc::Value& v);

}  // namespace adn::ir
