#include "ir/state_delta.h"

#include <bit>

#include "rpc/wire.h"

namespace adn::ir {

using rpc::Row;
using rpc::Table;
using rpc::Value;

Status CheckStateCompatible(const ElementIr& running, const ElementIr& next) {
  if (next.state_tables.size() != running.state_tables.size()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "hot swap of '" + running.name + "' -> '" + next.name +
                      "' changes the number of state tables (" +
                      std::to_string(running.state_tables.size()) + " -> " +
                      std::to_string(next.state_tables.size()) +
                      "); drain and redeploy instead");
  }
  for (size_t i = 0; i < next.state_tables.size(); ++i) {
    if (next.state_tables[i].first != running.state_tables[i].first) {
      return Status(ErrorCode::kFailedPrecondition,
                    "hot swap of '" + running.name + "' -> '" + next.name +
                        "' renames state table '" +
                        running.state_tables[i].first + "' to '" +
                        next.state_tables[i].first +
                        "'; drain and redeploy instead");
    }
    if (!(next.state_tables[i].second == running.state_tables[i].second)) {
      return Status(ErrorCode::kFailedPrecondition,
                    "hot swap of '" + running.name + "' -> '" + next.name +
                        "' changes the schema of state table '" +
                        running.state_tables[i].first +
                        "'; drain and redeploy instead");
    }
  }
  return Status::Ok();
}


void StateBaseline::TableMarks::Reserve(size_t rows) {
  if (rows == 0) return;
  const size_t slots = std::bit_ceil(2 * rows);
  marks.assign(slots, RowMark{});
  shift = 64 - std::countr_zero(slots);
}

void StateBaseline::TableMarks::Add(const RowMark& mark) {
  const size_t mask = marks.size() - 1;
  size_t pos = Home(mark.key_hash);
  while (marks[pos].key != kNoKey) pos = (pos + 1) & mask;
  marks[pos] = mark;
  ++count;
}

const StateBaseline::RowMark* StateBaseline::TableMarks::Find(
    uint64_t key_hash) const {
  if (marks.empty()) return nullptr;
  const size_t mask = marks.size() - 1;
  for (size_t pos = Home(key_hash); marks[pos].key != kNoKey;
       pos = (pos + 1) & mask) {
    if (marks[pos].key_hash == key_hash) return &marks[pos];
  }
  return nullptr;
}

StateBaseline StateBaseline::Capture(const ElementInstance& instance) {
  StateBaseline b;
  b.tables_.resize(instance.tables().size());
  for (size_t t = 0; t < instance.tables().size(); ++t) {
    const Table& table = instance.tables()[t];
    if (!table.HasPrimaryKey()) continue;
    TableMarks& tm = b.tables_[t];
    const std::vector<size_t> pk = table.schema().PrimaryKeyIndexes();
    tm.key_width = pk.size();
    tm.Reserve(table.RowCount());
    tm.keys.reserve(table.RowCount() * pk.size());
    for (const rpc::RowRef row : table.rows()) {
      tm.Add(RowMark{table.RowKeyHash(row), rpc::HashRow(row), tm.keys.size()});
      for (size_t idx : pk) tm.keys.push_back(row[idx]);
    }
  }
  return b;
}

Result<StateDelta> StateBaseline::Diff(const ElementInstance& instance) const {
  if (instance.tables().size() != tables_.size()) {
    return Error(ErrorCode::kFailedPrecondition,
                 "table layout of '" + instance.name() +
                     "' changed since the baseline capture");
  }
  StateDelta delta;
  ByteWriter w(delta.blob);
  w.WriteVarint(tables_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = instance.tables()[t];
    const TableMarks& tm = tables_[t];
    std::vector<rpc::RowRef> upserts;
    size_t seen = 0;
    if (table.HasPrimaryKey()) {
      for (const rpc::RowRef row : table.rows()) {
        const RowMark* mark = tm.Find(table.RowKeyHash(row));
        if (mark == nullptr) {
          upserts.push_back(row);  // inserted since the baseline
        } else {
          ++seen;
          if (mark->row_hash != rpc::HashRow(row)) {
            upserts.push_back(row);  // updated in place (by key)
          }
        }
      }
    }
    std::vector<rpc::RowRef> deletes;
    if (seen < tm.count) {
      // Some baseline keys vanished; name them for replay.
      for (const RowMark& mark : tm.marks) {
        if (mark.key == kNoKey) continue;
        const rpc::RowRef key(tm.keys.data() + mark.key, tm.key_width);
        if (table.LookupByKey(key) == nullptr) deletes.push_back(key);
      }
    }
    w.WriteVarint(upserts.size());
    for (const rpc::RowRef row : upserts) {
      for (const Value& v : row) rpc::EncodeValue(v, w);
    }
    w.WriteVarint(deletes.size());
    for (const rpc::RowRef key : deletes) {
      for (const Value& v : key) rpc::EncodeValue(v, w);
    }
    delta.upserts += upserts.size();
    delta.deletes += deletes.size();
  }
  return delta;
}

Status StateDelta::ApplyTo(ElementInstance& instance) const {
  ByteReader r(blob);
  ADN_ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  if (count != instance.tables().size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "delta has " + std::to_string(count) + " tables, element " +
                      instance.name() + " expects " +
                      std::to_string(instance.tables().size()));
  }
  // One scratch row and key for the whole replay: each decoded row's cells
  // move into the table.
  Row row;
  Row key;
  for (uint64_t t = 0; t < count; ++t) {
    Table& table = instance.TableAt(t);
    const auto& cols = table.schema().columns();
    const std::vector<size_t> pk = table.schema().PrimaryKeyIndexes();
    ADN_ASSIGN_OR_RETURN(uint64_t nups, r.ReadVarint());
    row.resize(cols.size());
    for (uint64_t i = 0; i < nups; ++i) {
      for (size_t c = 0; c < cols.size(); ++c) {
        ADN_ASSIGN_OR_RETURN(row[c], rpc::DecodeValue(cols[c].type, r));
      }
      ADN_RETURN_IF_ERROR(table.InsertFrom(row));
    }
    ADN_ASSIGN_OR_RETURN(uint64_t ndel, r.ReadVarint());
    key.resize(pk.size());
    for (uint64_t i = 0; i < ndel; ++i) {
      for (size_t k = 0; k < pk.size(); ++k) {
        ADN_ASSIGN_OR_RETURN(key[k], rpc::DecodeValue(cols[pk[k]].type, r));
      }
      table.EraseByKey(key);
    }
  }
  return Status::Ok();
}

}  // namespace adn::ir
