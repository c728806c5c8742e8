#include "ir/state_delta.h"

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

StateBaseline StateBaseline::Capture(const ElementInstance& instance, int slot,
                                     size_t num_slots) {
  StateBaseline b;
  b.slot_ = slot;
  b.num_slots_ = num_slots;
  b.tables_.resize(instance.tables().size());
  for (size_t t = 0; t < instance.tables().size(); ++t) {
    const Table& table = instance.tables()[t];
    if (!table.HasPrimaryKey()) continue;
    auto& marks = b.tables_[t];
    if (slot >= 0) {
      // Slot-scoped baseline (live migration): a scan of the table's
      // contiguous cached key hashes, one integer test per row, so the
      // capture reads only the moving slot's rows.
      table.ForEachKeySlotRow(
          static_cast<size_t>(slot), num_slots, [&](const Row& row) {
            marks.emplace(table.RowKeyHash(row),
                          RowMark{rpc::HashRow(row), table.KeyOf(row)});
          });
    } else {
      marks.reserve(table.RowCount());
      for (const Row& row : table.rows()) {
        marks.emplace(table.RowKeyHash(row),
                      RowMark{rpc::HashRow(row), table.KeyOf(row)});
      }
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
    const auto& marks = tables_[t];
    std::vector<const Row*> upserts;
    size_t seen = 0;
    const auto classify = [&](const Row& row) {
      auto it = marks.find(table.RowKeyHash(row));
      if (it == marks.end()) {
        upserts.push_back(&row);  // inserted since the baseline
      } else {
        ++seen;
        if (it->second.row_hash != rpc::HashRow(row)) {
          upserts.push_back(&row);  // updated in place (by key)
        }
      }
    };
    if (table.HasPrimaryKey()) {
      if (slot_ >= 0) {
        // Cutover-window diff (live migration): a scan of the cached key
        // hashes, one integer test per row — only the moving slot's rows
        // are read and hashed, so the blackout stays close to delta-sized
        // however much state the element carries.
        table.ForEachKeySlotRow(static_cast<size_t>(slot_), num_slots_,
                                classify);
      } else {
        for (const Row& row : table.rows()) classify(row);
      }
    }
    std::vector<const RowMark*> deletes;
    if (seen < marks.size()) {
      // Some baseline keys vanished; name them for replay.
      for (const auto& [kh, mark] : marks) {
        if (table.LookupByKey(mark.key).empty()) deletes.push_back(&mark);
      }
    }
    w.WriteVarint(upserts.size());
    for (const Row* row : upserts) {
      for (const Value& v : *row) rpc::EncodeValue(v, w);
    }
    w.WriteVarint(deletes.size());
    for (const RowMark* mark : deletes) {
      for (const Value& v : mark->key) rpc::EncodeValue(v, w);
    }
    delta.upserts += upserts.size();
    delta.deletes += deletes.size();
  }
  return delta;
}

size_t StateBaseline::tracked_rows() const {
  size_t n = 0;
  for (const auto& marks : tables_) n += marks.size();
  return n;
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
  for (uint64_t t = 0; t < count; ++t) {
    Table& table = instance.TableAt(t);
    const auto& cols = table.schema().columns();
    const std::vector<size_t> pk = table.schema().PrimaryKeyIndexes();
    ADN_ASSIGN_OR_RETURN(uint64_t nups, r.ReadVarint());
    for (uint64_t i = 0; i < nups; ++i) {
      // A spare row: a slice moving back and forth reuses its rows.
      Row row = table.TakeSpareRow();
      row.reserve(cols.size());
      for (const auto& col : cols) {
        ADN_ASSIGN_OR_RETURN(Value v, rpc::DecodeValue(col.type, r));
        row.push_back(std::move(v));
      }
      ADN_RETURN_IF_ERROR(table.Insert(std::move(row)));
    }
    ADN_ASSIGN_OR_RETURN(uint64_t ndel, r.ReadVarint());
    for (uint64_t i = 0; i < ndel; ++i) {
      Row key;
      key.reserve(pk.size());
      for (size_t idx : pk) {
        ADN_ASSIGN_OR_RETURN(Value v, rpc::DecodeValue(cols[idx].type, r));
        key.push_back(std::move(v));
      }
      table.EraseByKey(key);
    }
  }
  return Status::Ok();
}

}  // namespace adn::ir
