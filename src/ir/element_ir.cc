#include "ir/element_ir.h"

#include <algorithm>

namespace adn::ir {

int StmtIr::OpCount() const {
  int total = 1;  // statement dispatch
  switch (kind) {
    case Kind::kSelect: {
      const SelectIr& s = *select;
      for (const auto& out : s.outputs) total += out.expr.OpCount();
      if (s.join.has_value()) total += 2 + s.join->probe.OpCount();
      if (s.where.has_value()) total += s.where->OpCount();
      break;
    }
    case Kind::kInsert: {
      for (const auto& v : insert->values) total += v.OpCount();
      break;
    }
    case Kind::kUpdate: {
      for (const auto& [idx, e] : update->assignments) {
        (void)idx;
        total += e.OpCount();
      }
      if (update->where.has_value()) total += update->where->OpCount();
      total += 2;  // scan bookkeeping
      break;
    }
    case Kind::kDelete: {
      if (del->where.has_value()) total += del->where->OpCount();
      total += 2;
      break;
    }
  }
  return total;
}

bool EffectSummary::ReadsField(std::string_view f) const {
  return std::find(fields_read.begin(), fields_read.end(), f) !=
         fields_read.end();
}

bool EffectSummary::WritesField(std::string_view f) const {
  return std::find(fields_written.begin(), fields_written.end(), f) !=
         fields_written.end();
}

std::string EffectSummary::DebugString() const {
  auto join = [](const std::vector<std::string>& v) {
    std::string out;
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += v[i];
    }
    return out.empty() ? std::string("-") : out;
  };
  std::string out = "reads{" + join(fields_read) + "} writes{" +
                    join(fields_written) + "} state_r{" + join(tables_read) +
                    "} state_w{" + join(tables_written) + "}";
  if (may_drop) out += " drops";
  if (nondeterministic) out += " nondet";
  if (sets_destination) out += " routes";
  return out;
}

int ElementIr::OpCount() const {
  int total = 2;  // element dispatch + result handling
  for (const StmtIr& s : statements) total += s.OpCount();
  if (IsFilter()) total += 4;  // operator invocation scaffolding
  // Cache lookup: key hash + index probe + (hit) in-place rewrite,
  // amortized. Small and constant — the point of the element.
  if (IsCache()) total += 6;
  return total;
}

const rpc::Schema* ElementIr::FindStateSchema(std::string_view table) const {
  for (const auto& [name, schema] : state_tables) {
    if (name == table) return &schema;
  }
  return nullptr;
}

namespace {

bool ReadsTableColumn(const ExprNode& e) {
  if (e.kind == ExprNode::Kind::kJoinField) return true;
  for (const ExprNode& c : e.children) {
    if (ReadsTableColumn(c)) return true;
  }
  return false;
}

}  // namespace

const ExprNode* PointUpdateKeyExpr(const UpdateIr& upd,
                                   const rpc::Schema& schema) {
  if (!upd.where.has_value()) return nullptr;
  const ExprNode& w = *upd.where;
  if (w.kind != ExprNode::Kind::kBinary ||
      w.binary_op != dsl::BinaryOp::kEq || w.children.size() != 2) {
    return nullptr;
  }
  const std::vector<size_t> pk = schema.PrimaryKeyIndexes();
  if (pk.size() != 1) return nullptr;
  for (int side = 0; side < 2; ++side) {
    const ExprNode& col = w.children[static_cast<size_t>(side)];
    const ExprNode& key = w.children[static_cast<size_t>(1 - side)];
    // One side must be exactly the PK column; the other must not touch the
    // table at all and must already have the PK's static type (so the index
    // lookup's exact-value equality agrees with SQL `=` on every row).
    if (col.kind == ExprNode::Kind::kJoinField && col.join_col == pk[0] &&
        !ReadsTableColumn(key) && key.type == schema.columns()[pk[0]].type) {
      return &key;
    }
  }
  return nullptr;
}

Status CheckStateCompatible(const ElementIr& running, const ElementIr& next) {
  // Worded for every caller: a hot swap, a scale-out or scale-in move and
  // pool start-up all land here.
  auto reject = [&](const std::string& why) {
    return Status(ErrorCode::kFailedPrecondition,
                  "state of '" + running.name + "' does not fit '" +
                      next.name + "': " + why);
  };
  if (next.state_tables.size() != running.state_tables.size()) {
    return reject(std::to_string(running.state_tables.size()) +
                  " state tables vs " +
                  std::to_string(next.state_tables.size()));
  }
  for (size_t i = 0; i < next.state_tables.size(); ++i) {
    const std::string& have = running.state_tables[i].first;
    if (next.state_tables[i].first != have) {
      return reject("state table '" + have + "' vs '" +
                    next.state_tables[i].first + "'");
    }
    if (!(next.state_tables[i].second == running.state_tables[i].second)) {
      return reject("state table '" + have + "' has another schema in '" +
                    next.name + "'");
    }
  }
  return Status::Ok();
}

}  // namespace adn::ir
