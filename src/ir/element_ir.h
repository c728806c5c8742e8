// Statement- and element-level IR.
//
// An ElementIr is the compiler's view of one DSL element: resolved, typed
// statements plus an EffectSummary. The summary is what makes the paper's
// optimizations possible — "A SQL-like language provides a foundation for the
// compiler to infer which fields are read or written by an element, when it
// is safe to re-order elements, and what information needs to be communicated
// between elements (headers)" (§5.1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dsl/ast.h"
#include "ir/expr.h"
#include "rpc/intern.h"
#include "rpc/schema.h"

namespace adn::ir {

// Special output field: when a SELECT writes `__destination` (INT), the
// processor routes the message to that endpoint (how load balancers steer).
inline constexpr std::string_view kDestinationField = "__destination";

struct SelectIr {
  // Drop disposition when the join misses or WHERE rejects. Carried per
  // statement (not per element) so the fusion pass can merge elements while
  // preserving each original element's abort semantics.
  dsl::DropBehavior on_drop = dsl::DropBehavior::kAbort;
  std::string abort_message;

  // Pass all input fields through (a `*` item was present).
  bool passthrough = false;
  // Computed/overriding output fields, applied after passthrough. An entry
  // whose name matches an existing field replaces it.
  struct OutputField {
    std::string name;
    rpc::ValueType type;
    ExprNode expr;
    // True when this output is a plain copy of the same-named input field
    // (projection without modification) — such writes don't count as
    // modifications in the effect analysis.
    bool identity = false;
  };
  std::vector<OutputField> outputs;

  // Optional equijoin against a state table.
  struct JoinIr {
    std::string table;
    ExprNode probe;          // evaluated against the input tuple
    size_t table_key_col = 0;  // column of `table` compared against probe
    // Whether table_key_col is the table's (single-column) primary key —
    // enables O(1) lookup; otherwise a scan.
    bool key_is_primary = false;
  };
  std::optional<JoinIr> join;

  std::optional<ExprNode> where;  // references input and joined columns
};

struct InsertIr {
  std::string table;
  // One expression per table column, in schema order (lowering reorders and
  // fills NULLs for unnamed columns).
  std::vector<ExprNode> values;
};

struct UpdateIr {
  std::string table;
  std::vector<std::pair<size_t, ExprNode>> assignments;  // column idx -> expr
  std::optional<ExprNode> where;  // references table columns + input fields
};

// Point-update detection: when an UPDATE's WHERE clause pins the table's
// single-column primary key to a message-derived value (`WHERE pk = expr`
// with no other table-column references and matching static type), both
// execution tiers replace the whole-table scan with one key-index lookup —
// the difference between O(rows) and O(1) per message for counters like the
// Quota element. Returns the key-value expression, or nullptr when the
// statement needs the general scan.
const ExprNode* PointUpdateKeyExpr(const UpdateIr& upd,
                                   const rpc::Schema& schema);

struct DeleteIr {
  std::string table;
  std::optional<ExprNode> where;
};

struct StmtIr {
  enum class Kind { kSelect, kInsert, kUpdate, kDelete };
  Kind kind;
  // Exactly one is populated, matching `kind`.
  std::optional<SelectIr> select;
  std::optional<InsertIr> insert;
  std::optional<UpdateIr> update;
  std::optional<DeleteIr> del;

  int OpCount() const;
};

// What an element reads, writes and may do to the message stream. Field sets
// are sorted & deduplicated name lists.
struct EffectSummary {
  std::vector<std::string> fields_read;
  std::vector<std::string> fields_written;   // modified or created
  std::vector<std::string> tables_read;
  std::vector<std::string> tables_written;
  bool may_drop = false;           // a SELECT can eliminate the message
  bool nondeterministic = false;   // uses random()/now()/encrypt()
  bool reads_metadata = false;
  bool sets_destination = false;   // writes __destination

  bool ReadsField(std::string_view f) const;
  bool WritesField(std::string_view f) const;
  std::string DebugString() const;
};

// A "filter" element (rate-limit/dedup/...) carries a built-in operator,
// resolved by lowering, instead of SQL statements. Its state lives in the
// synthetic `__filter_<name>...` tables lowering declares, so it snapshots,
// moves and hot-swaps like any other element's (ir/exec.cc runs it).
enum class FilterKind : uint8_t {
  kRateLimit,
  kDedup,
  kCircuitBreaker,
  kAggCount,
  kAggSum,
  kAggTopk,
  kRetry,    // client-library operators (core/client_policy.h): lowered
  kTimeout,  // for analysis, but no chain compiles with one
};

struct FilterIr {
  FilterKind kind = FilterKind::kRateLimit;
  std::string op;  // the operator's DSL name
  // Arguments, set by lowering (LowerFilter applies each operator's
  // defaults); the counts are >= 1.
  double rps = 0;        // rate_limit
  double burst = 1;      // rate_limit: bucket depth
  size_t window = 1;     // dedup / circuit_breaker
  double error_threshold = 0;
  int64_t cooldown_ns = 0;
  size_t groups = 1;     // agg_count / agg_sum: bounded group rows
  size_t k = 1;          // agg_topk: tracked keys
  std::optional<rpc::FieldId> key;  // agg_*: the grouping / tracked field
  rpc::FieldId field = 0;           // agg_sum: the summed field
  // Simulated CPU per message, in units of CostModel::adn_op_ns.
  double cost_ops = 0;

  bool IsClientSide() const {
    return kind == FilterKind::kRetry || kind == FilterKind::kTimeout;
  }
  // agg_count / agg_sum / agg_topk: pass-through observers, never drop.
  bool IsAggregation() const {
    return kind == FilterKind::kAggCount || kind == FilterKind::kAggSum ||
           kind == FilterKind::kAggTopk;
  }
};

// A cache element (CACHE decl): memoizes responses of idempotent RPCs keyed
// on `key_fields`. The runtime keeps ARC recency/frequency metadata outside
// the state table (ir/exec.cc); only the cached rows themselves are durable
// state, so instances migrate like any other element.
struct CacheIr {
  size_t capacity = 0;     // max resident entries (>=1)
  int64_t ttl_ns = 0;      // entry lifetime; 0 => never expires
  std::vector<std::string> key_fields;  // request fields forming the key
  std::string table;       // backing state table ("__cache_<name>")
};

struct ElementIr {
  std::string name;
  dsl::Direction direction = dsl::Direction::kRequest;
  dsl::DropBehavior on_drop = dsl::DropBehavior::kAbort;
  std::string abort_message;

  // SQL elements have statements; filter elements have filter_op instead;
  // cache elements have cache_op. Both of the latter are built-in bodies
  // over synthesized state tables.
  std::vector<StmtIr> statements;
  std::optional<FilterIr> filter_op;
  std::optional<CacheIr> cache_op;
  bool IsFilter() const { return filter_op.has_value(); }
  bool IsCache() const { return cache_op.has_value(); }

  // Schemas of every state table the statements reference (copied from the
  // program so each compiled element is self-contained).
  std::vector<std::pair<std::string, rpc::Schema>> state_tables;

  // Input fields the element declared (arrival schema expectation).
  rpc::Schema input;

  EffectSummary effects;

  // Static cost in interpreter ops (sum over statements + dispatch).
  int OpCount() const;

  const rpc::Schema* FindStateSchema(std::string_view table) const;
};

// State-layout gate: `next` may take over `running`'s tables (a DSL hot
// reload, or a state move between instances) only when every state table
// matches by position, name and schema. A mismatch is kFailedPrecondition;
// element logic itself may differ freely.
Status CheckStateCompatible(const ElementIr& running, const ElementIr& next);

}  // namespace adn::ir
