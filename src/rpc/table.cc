#include "rpc/table.h"

#include <algorithm>

#include "rpc/wire.h"

namespace adn::rpc {

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (const Value& v : row) {
    h ^= HashValue(v);
    h *= 0x100000001B3ULL;
  }
  return h;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  pk_indexes_ = schema_.PrimaryKeyIndexes();
}

uint64_t HashSingleKey(const Value& key) {
  uint64_t h = 0x452821E638D01377ULL;
  h ^= HashValue(key);
  h *= 0x100000001B3ULL;
  return h;
}

uint64_t Table::KeyHashOf(const Row& row) const {
  if (pk_indexes_.empty()) return HashRow(row);
  if (pk_indexes_.size() == 1) return HashSingleKey(row[pk_indexes_[0]]);
  uint64_t h = 0x452821E638D01377ULL;
  for (size_t idx : pk_indexes_) {
    h ^= HashValue(row[idx]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool Table::KeysEqual(const Row& a, const Row& b) const {
  if (pk_indexes_.empty()) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].CompareTo(b[i]) != 0) return false;
    }
    return true;
  }
  for (size_t idx : pk_indexes_) {
    if (a[idx].CompareTo(b[idx]) != 0) return false;
  }
  return true;
}

Status Table::Insert(Row row) {
  if (row.size() != schema_.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "row arity " + std::to_string(row.size()) +
                      " does not match schema arity " +
                      std::to_string(schema_.size()) + " of table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.columns()[i].type) {
      return Status(ErrorCode::kTypeError,
                    "column '" + schema_.columns()[i].name + "' of table " +
                        name_ + " expects " +
                        std::string(ValueTypeName(schema_.columns()[i].type)) +
                        ", got " + std::string(ValueTypeName(row[i].type())));
    }
  }
  // Keyless tables are append-only logs: nothing ever consults the key
  // index, so skip both the key hash and the index node (the hot-path
  // allocation the zero-alloc gate measures).
  if (pk_indexes_.empty()) {
    rows_.push_back(std::move(row));
    return Status::Ok();
  }
  const uint64_t h = KeyHashOf(row);
  auto [begin, end] = key_index_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    if (KeysEqual(rows_[it->second], row)) {
      Row displaced = std::move(rows_[it->second]);
      rows_[it->second] = std::move(row);  // upsert
      StashSpare(std::move(displaced));
      return Status::Ok();
    }
  }
  rows_.push_back(std::move(row));
  key_index_.emplace(h, rows_.size() - 1);
  return Status::Ok();
}

std::vector<const Row*> Table::LookupByKey(const Row& key) const {
  std::vector<const Row*> out;
  if (pk_indexes_.empty()) return out;
  // Build a probe row with key values in PK positions.
  if (key.size() != pk_indexes_.size()) return out;
  uint64_t h = 0x452821E638D01377ULL;
  for (const Value& v : key) {
    h ^= HashValue(v);
    h *= 0x100000001B3ULL;
  }
  auto [begin, end] = key_index_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    const Row& row = rows_[it->second];
    bool match = true;
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(&row);
  }
  return out;
}

const Row* Table::LookupSingleKey(const Value& key) const {
  if (pk_indexes_.size() != 1) return nullptr;
  const uint64_t h = HashSingleKey(key);
  auto [begin, end] = key_index_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    const Row& row = rows_[it->second];
    if (row[pk_indexes_[0]].EqualsValue(key)) return &row;
  }
  return nullptr;
}

const Row* Table::PrefetchSingleKey(const Value& key) const {
  const Row* row = LookupSingleKey(key);
  if (row != nullptr && !row->empty()) {
#if defined(__GNUC__) || defined(__clang__)
    // Warm the row's Value storage (read, high temporal locality). The Row
    // header itself was just touched by the lookup; the payload Values are
    // what the executor reads next.
    __builtin_prefetch(static_cast<const void*>(row->data()), 0, 3);
#endif
  }
  return row;
}

const Row* Table::FindFirst(
    const std::function<bool(const Row&)>& pred) const {
  for (const Row& r : rows_) {
    if (pred(r)) return &r;
  }
  return nullptr;
}

size_t Table::EraseWhere(const std::function<bool(const Row&)>& pred) {
  size_t before = rows_.size();
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), pred), rows_.end());
  if (rows_.size() != before) ReindexAll();
  return before - rows_.size();
}

void Table::Clear() {
  for (Row& row : rows_) StashSpare(std::move(row));
  rows_.clear();
  key_index_.clear();
}

namespace {
// Upper bound on parked spare rows per table; beyond this, displaced rows
// are simply freed.
constexpr size_t kMaxSpareRows = 1 << 16;
}  // namespace

Row Table::TakeSpareRow() {
  if (spares_.empty()) return Row();
  Row row = std::move(spares_.back());
  spares_.pop_back();
  return row;
}

void Table::StashSpare(Row&& row) {
  if (spares_.size() >= kMaxSpareRows) return;
  row.clear();  // destroy values, keep capacity
  spares_.push_back(std::move(row));
}

void Table::ReindexAll() {
  key_index_.clear();
  if (pk_indexes_.empty()) return;
  for (size_t i = 0; i < rows_.size(); ++i) {
    key_index_.emplace(KeyHashOf(rows_[i]), i);
  }
}

Bytes Table::Snapshot() const {
  Bytes out;
  ByteWriter w(out);
  w.WriteString(name_);
  w.WriteVarint(schema_.size());
  for (const Column& c : schema_.columns()) {
    w.WriteString(c.name);
    w.WriteU8(static_cast<uint8_t>(c.type));
    w.WriteU8(c.primary_key ? 1 : 0);
  }
  w.WriteVarint(rows_.size());
  for (const Row& row : rows_) {
    for (const Value& v : row) EncodeValue(v, w);
  }
  return out;
}

Result<Table> Table::Restore(std::span<const uint8_t> snapshot) {
  ByteReader r(snapshot);
  ADN_ASSIGN_OR_RETURN(std::string name, r.ReadString());
  ADN_ASSIGN_OR_RETURN(uint64_t ncols, r.ReadVarint());
  Schema schema;
  for (uint64_t i = 0; i < ncols; ++i) {
    Column c;
    ADN_ASSIGN_OR_RETURN(c.name, r.ReadString());
    ADN_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
    if (type > static_cast<uint8_t>(ValueType::kBytes)) {
      return Error(ErrorCode::kParseError, "bad column type in snapshot");
    }
    c.type = static_cast<ValueType>(type);
    ADN_ASSIGN_OR_RETURN(uint8_t pk, r.ReadU8());
    c.primary_key = pk != 0;
    ADN_RETURN_IF_ERROR(schema.AddColumn(std::move(c)));
  }
  Table table(std::move(name), std::move(schema));
  ADN_ASSIGN_OR_RETURN(uint64_t nrows, r.ReadVarint());
  for (uint64_t i = 0; i < nrows; ++i) {
    Row row;
    row.reserve(ncols);
    for (uint64_t j = 0; j < ncols; ++j) {
      ADN_ASSIGN_OR_RETURN(
          Value v, DecodeValue(table.schema().columns()[j].type, r));
      row.push_back(std::move(v));
    }
    ADN_RETURN_IF_ERROR(table.Insert(std::move(row)));
  }
  return table;
}

Result<std::vector<Table>> Table::SplitByKeyHash(size_t shards) const {
  if (shards == 0) {
    return Error(ErrorCode::kInvalidArgument, "cannot split into 0 shards");
  }
  std::vector<Table> out;
  out.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    out.emplace_back(name_, schema_);
  }
  for (const Row& row : rows_) {
    size_t shard = KeyHashOf(row) % shards;
    ADN_RETURN_IF_ERROR(out[shard].Insert(row));
  }
  return out;
}

Status Table::MergeFrom(const Table& other) {
  if (!(other.schema_ == schema_)) {
    return Status(ErrorCode::kInvalidArgument,
                  "cannot merge table '" + other.name_ + "' " +
                      other.schema_.DebugString() + " into '" + name_ + "' " +
                      schema_.DebugString());
  }
  for (const Row& row : other.rows_) {
    ADN_RETURN_IF_ERROR(Insert(row));
  }
  return Status::Ok();
}

Row Table::KeyOf(const Row& row) const {
  Row key;
  key.reserve(pk_indexes_.size());
  for (size_t idx : pk_indexes_) key.push_back(row[idx]);
  return key;
}

size_t Table::EraseByKey(const Row& key) {
  if (pk_indexes_.empty() || key.size() != pk_indexes_.size()) return 0;
  uint64_t h = 0x452821E638D01377ULL;
  for (const Value& v : key) {
    h ^= HashValue(v);
    h *= 0x100000001B3ULL;
  }
  auto [begin, end] = key_index_.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    const Row& row = rows_[it->second];
    bool match = true;
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    EraseIndexed(it, nullptr);
    return 1;
  }
  return 0;
}

size_t Table::EraseSingleKey(const Value& key, Row& erased) {
  if (pk_indexes_.size() != 1) return 0;
  auto [begin, end] = key_index_.equal_range(HashSingleKey(key));
  for (auto it = begin; it != end; ++it) {
    if (rows_[it->second][pk_indexes_[0]].CompareTo(key) == 0) {
      EraseIndexed(it, &erased);
      return 1;
    }
  }
  return 0;
}

void Table::EraseIndexed(
    std::unordered_multimap<uint64_t, size_t>::iterator it, Row* erased) {
  // Swap-and-pop instead of erase+reindex: the live-migration delta replay
  // calls this per deleted key, and an O(n) reindex per call would put a
  // full re-hash of the table inside the reconfiguration window.
  const size_t hole = it->second;
  const size_t last = rows_.size() - 1;
  key_index_.erase(it);
  if (hole != last) {
    const uint64_t last_hash = KeyHashOf(rows_[last]);
    auto [lb, le] = key_index_.equal_range(last_hash);
    for (auto lit = lb; lit != le; ++lit) {
      if (lit->second == last) {
        lit->second = hole;
        break;
      }
    }
  }
  if (erased != nullptr) {
    *erased = std::move(rows_[hole]);
  } else {
    StashSpare(std::move(rows_[hole]));
  }
  if (hole != last) rows_[hole] = std::move(rows_[last]);
  rows_.pop_back();
}

void Table::ForEachKeySlotRow(
    size_t slot, size_t num_slots,
    const std::function<void(const Row&)>& fn) const {
  if (pk_indexes_.empty() || num_slots == 0) return;
  for (const auto& [hash, index] : key_index_) {
    if (hash % num_slots == slot) fn(rows_[index]);
  }
}

Table Table::SliceByKeySlot(size_t slot, size_t num_slots) const {
  Table out(name_, schema_);
  if (pk_indexes_.empty() || num_slots == 0) return out;
  ForEachKeySlotRow(slot, num_slots, [&](const Row& row) {
    const Status s = out.Insert(row);
    (void)s;  // same schema: cannot fail
  });
  return out;
}

size_t Table::EraseKeySlot(size_t slot, size_t num_slots) {
  if (pk_indexes_.empty() || num_slots == 0) return 0;
  // Membership and the rebuilt index both come from the cached hashes: one
  // integer pass plus row moves, never a re-hash of surviving keys. This
  // runs on a live worker right after cutover, so O(n) string hashing here
  // would stall the shards that did NOT move.
  std::vector<uint64_t> hash_of(rows_.size());
  std::vector<bool> erase(rows_.size(), false);
  size_t erased = 0;
  for (const auto& [hash, index] : key_index_) {
    hash_of[index] = hash;
    if (hash % num_slots == slot) {
      erase[index] = true;
      ++erased;
    }
  }
  if (erased == 0) return 0;
  key_index_.clear();
  size_t dst = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (erase[i]) {
      StashSpare(std::move(rows_[i]));
      continue;
    }
    if (dst != i) {
      rows_[dst] = std::move(rows_[i]);
      hash_of[dst] = hash_of[i];
    }
    key_index_.emplace(hash_of[dst], dst);
    ++dst;
  }
  rows_.resize(dst);
  return erased;
}

Result<std::vector<Table>> Table::SplitByKeySlot(size_t shards,
                                                 size_t num_slots) const {
  if (shards == 0 || num_slots == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "cannot split into 0 shards/slots");
  }
  std::vector<Table> out;
  out.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    out.emplace_back(name_, schema_);
  }
  for (const Row& row : rows_) {
    size_t shard = (KeyHashOf(row) % num_slots) % shards;
    ADN_RETURN_IF_ERROR(out[shard].Insert(row));
  }
  return out;
}

uint64_t Table::ContentHash() const {
  // XOR of per-row hashes: order-insensitive by construction.
  uint64_t h = 0;
  for (const Row& row : rows_) h ^= HashRow(row);
  return h;
}

std::string Table::DebugString(size_t max_rows) const {
  std::string out = name_ + schema_.DebugString() + " [" +
                    std::to_string(rows_.size()) + " rows]";
  size_t shown = 0;
  for (const Row& row : rows_) {
    if (shown++ >= max_rows) {
      out += "\n  ...";
      break;
    }
    out += "\n  (";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      out += row[i].ToDisplayString();
    }
    out += ")";
  }
  return out;
}

}  // namespace adn::rpc
