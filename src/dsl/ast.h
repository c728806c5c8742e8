// Abstract syntax tree for ADN programs.
//
// A program consists of:
//   STATE TABLE decls  — relational element state (paper Figure 4),
//   ELEMENT decls      — SQL processing over the `input` RPC stream,
//   FILTER decls       — stream-shaping elements using platform-specific
//                        operators (timeouts, retries, rate limits; §5.1),
//   CHAIN decls        — the element chain between two services, with
//                        optional per-element location constraints (§4 Q1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dsl/token.h"
#include "rpc/schema.h"
#include "rpc/value.h"

namespace adn::dsl {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};
enum class UnaryOp { kNegate, kNot };

std::string_view BinaryOpName(BinaryOp op);

struct LiteralExpr {
  rpc::Value value;
};

// `input.username`, `ac_tab.permission`, or bare `username` (resolved by the
// type checker against the input schema first, then any joined table).
struct ColumnRefExpr {
  std::string table;  // empty when unqualified
  std::string column;
};

// Built-in or user-defined function call: hash(x), compress(payload), ...
struct CallExpr {
  std::string function;
  std::vector<ExprPtr> args;
};

struct UnaryExpr {
  UnaryOp op;
  ExprPtr operand;
};

struct BinaryExpr {
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct Expr {
  SourceLocation location;
  std::variant<LiteralExpr, ColumnRefExpr, CallExpr, UnaryExpr, BinaryExpr>
      node;

  template <typename T>
  const T* As() const {
    return std::get_if<T>(&node);
  }
  std::string ToString() const;
};

ExprPtr MakeExpr(SourceLocation loc,
                 std::variant<LiteralExpr, ColumnRefExpr, CallExpr, UnaryExpr,
                              BinaryExpr>
                     node);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// One output column of a SELECT: either `*` (all input fields) or
// `expr [AS alias]`. With both `*` and a named expr of an existing field
// name, the named expr replaces that field (documented DSL extension that
// makes `SELECT *, compress(payload) AS payload` natural).
struct SelectItem {
  bool is_star = false;
  ExprPtr expr;               // null when is_star
  std::string alias;          // empty => derived from expr
  SourceLocation location;
};

// `JOIN table ON left = right` — equijoin of the RPC tuple against a state
// table. `left`/`right` are arbitrary expressions; the type checker requires
// exactly one side to reference the joined table.
struct JoinClause {
  std::string table;
  ExprPtr left;
  ExprPtr right;
  SourceLocation location;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::string from;  // must be "input" in element bodies
  std::optional<JoinClause> join;
  ExprPtr where;     // null => no predicate
  SourceLocation location;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;           // empty => schema order
  // Either literal VALUES (...) or INSERT INTO t SELECT ...
  std::vector<ExprPtr> values;                // used when !from_select
  std::unique_ptr<SelectStmt> from_select;    // used when set
  SourceLocation location;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // null => all rows
  SourceLocation location;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  // null => all rows
  SourceLocation location;
};

using Statement = std::variant<SelectStmt, InsertStmt, UpdateStmt, DeleteStmt>;

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

// Which direction of the RPC stream the element processes.
enum class Direction { kRequest, kResponse, kBoth };
std::string_view DirectionName(Direction d);

// What happens to the RPC when an element's SELECT eliminates it.
enum class DropBehavior {
  kAbort,   // network generates an error response to the caller (ACL deny)
  kSilent,  // message vanishes (e.g. dedup, sampling)
};

struct TableDecl {
  std::string name;
  rpc::Schema schema;
  SourceLocation location;
};

struct ElementDecl {
  std::string name;
  Direction direction = Direction::kRequest;
  rpc::Schema input;  // declared RPC fields this element touches
  DropBehavior on_drop = DropBehavior::kAbort;
  std::string abort_message;  // used when on_drop == kAbort
  std::vector<Statement> body;
  SourceLocation location;
};

// FILTER name ON dir USING op(key => literal, ...);
// Stream-shaping elements whose bodies are operators built into the runtime
// (paper §5.1: "complex ones will use operators with platform-specific
// implementations"); lowering resolves `op` and declares its state tables.
struct FilterDecl {
  std::string name;
  Direction direction = Direction::kRequest;
  std::string op;  // "retry", "timeout", "rate_limit", ...
  std::vector<std::pair<std::string, rpc::Value>> args;
  SourceLocation location;
};

// CACHE name (capacity => N, ttl_ms => N) KEY (field, ...);
// A memoizing response cache for idempotent RPCs. On the request path a hit
// rewrites the message into the cached response in place and short-circuits
// the rest of the chain (ProcessOutcome::kReply); a miss records a pending
// entry that the response path fills. Always bidirectional — the lookup and
// the fill are two halves of one element.
struct CacheDecl {
  std::string name;
  std::vector<std::pair<std::string, rpc::Value>> args;  // capacity, ttl_ms
  std::vector<std::string> key_fields;  // request fields forming the cache key
  SourceLocation location;
};

// Placement constraint for one chain position (§4 Q1: "element location
// constraints (e.g., the encryption element must be co-located with the
// sender)").
enum class LocationConstraint {
  kAny,
  kSender,    // must run on the caller's machine
  kReceiver,  // must run on the callee's machine
  kTrusted,   // must NOT run inside the application binary (security model)
};
std::string_view LocationConstraintName(LocationConstraint c);

struct ChainElementRef {
  std::string element;
  LocationConstraint location = LocationConstraint::kAny;
  SourceLocation source_location;
};

struct ChainDecl {
  std::string name;
  std::string caller_service;
  std::string callee_service;
  std::vector<ChainElementRef> elements;
  SourceLocation location;
};

struct Program {
  std::vector<TableDecl> tables;
  std::vector<ElementDecl> elements;
  std::vector<FilterDecl> filters;
  std::vector<CacheDecl> caches;
  std::vector<ChainDecl> chains;

  const TableDecl* FindTable(std::string_view name) const;
  const ElementDecl* FindElement(std::string_view name) const;
  const FilterDecl* FindFilter(std::string_view name) const;
  const CacheDecl* FindCache(std::string_view name) const;
  const ChainDecl* FindChain(std::string_view name) const;
};

}  // namespace adn::dsl
