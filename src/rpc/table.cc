#include "rpc/table.h"

#include <algorithm>
#include <bit>

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

namespace {
// Hash of a key given as PK values in PK-column order — KeyHashOf of any
// row carrying that key.
uint64_t HashKeyValues(const Row& key) {
  uint64_t h = 0x452821E638D01377ULL;
  for (const Value& v : key) {
    h ^= HashValue(v);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Size of a keyed table's first index: room for 8 rows at load 1/2.
constexpr size_t kMinIndexSlots = 16;

// "h % num_slots == slot" without a division for the power-of-two slot
// counts the pool uses: a 64-bit divide per row would cost more than the
// rest of a slot walk.
struct SlotTest {
  SlotTest(size_t slot, size_t num_slots)
      : slot(slot),
        num_slots(num_slots),
        mask((num_slots & (num_slots - 1)) == 0 ? num_slots - 1 : 0) {}
  bool operator()(uint64_t h) const {
    return (mask != 0 ? h & mask : h % num_slots) == slot;
  }
  size_t slot;
  size_t num_slots;
  uint64_t mask;
};
}  // namespace

template <class Match>
size_t Table::Probe(uint64_t h, const Match& match) const {
  const size_t mask = index_.size() - 1;
  for (size_t pos = Home(h);; pos = (pos + 1) & mask) {
    const IndexSlot& s = index_[pos];
    if (s.row == kNoRow || (s.hash == h && match(rows_[s.row]))) return pos;
  }
}

size_t Table::SlotOfRow(size_t row) const {
  const size_t mask = index_.size() - 1;
  size_t pos = Home(row_hash_[row]);
  while (index_[pos].row != row) pos = (pos + 1) & mask;
  return pos;
}

void Table::ReserveIndex(size_t rows) {
  if (2 * rows <= index_.size()) return;
  size_t slots = std::max(kMinIndexSlots, index_.size());
  while (slots < 2 * rows) slots *= 2;
  index_.resize(slots);
  index_shift_ = 64 - std::countr_zero(slots);
  ReindexAll();
}

void Table::ReindexAll() {
  std::fill(index_.begin(), index_.end(), IndexSlot{});
  const size_t mask = index_.size() - 1;
  for (size_t i = 0; i < rows_.size(); ++i) {
    size_t pos = Home(row_hash_[i]);
    while (index_[pos].row != kNoRow) pos = (pos + 1) & mask;
    index_[pos] = IndexSlot{row_hash_[i], static_cast<uint32_t>(i)};
  }
}

void Table::EraseIndexSlot(size_t pos) {
  const size_t mask = index_.size() - 1;
  size_t hole = pos;
  for (size_t j = (pos + 1) & mask; index_[j].row != kNoRow;
       j = (j + 1) & mask) {
    // Slot j may move back into the hole only if the hole lies on its
    // probe run, i.e. its home is no later than the hole.
    if (((j - Home(index_[j].hash)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].row = kNoRow;
}

Status Table::CheckCell(size_t col, const Value& v) const {
  if (v.is_null() || v.type() == schema_.columns()[col].type) {
    return Status::Ok();
  }
  return Status(ErrorCode::kTypeError,
                "column '" + schema_.columns()[col].name + "' of table " +
                    name_ + " expects " +
                    std::string(ValueTypeName(schema_.columns()[col].type)) +
                    ", got " + std::string(ValueTypeName(v.type())));
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
      return CheckCell(i, row[i]);
    }
  }
  // Keyless tables are append-only logs: nothing ever consults the key
  // index, so skip both the key hash and the index slot.
  if (pk_indexes_.empty()) {
    rows_.push_back(std::move(row));
    return Status::Ok();
  }
  const uint64_t h = KeyHashOf(row);
  InsertKeyed(std::move(row), h);
  return Status::Ok();
}

void Table::InsertKeyed(Row&& row, uint64_t h) {
  ReserveIndex(rows_.size() + 1);
  const size_t pos =
      Probe(h, [&](const Row& r) { return KeysEqual(r, row); });
  if (index_[pos].row != kNoRow) {
    Row& slot = rows_[index_[pos].row];
    Row displaced = std::move(slot);
    slot = std::move(row);  // upsert
    StashSpare(std::move(displaced));
    return;
  }
  index_[pos] = IndexSlot{h, static_cast<uint32_t>(rows_.size())};
  rows_.push_back(std::move(row));
  row_hash_.push_back(h);
}

std::vector<const Row*> Table::LookupByKey(const Row& key) const {
  std::vector<const Row*> out;
  if (pk_indexes_.empty() || index_.empty()) return out;
  if (key.size() != pk_indexes_.size()) return out;
  const size_t pos = Probe(HashKeyValues(key), [&](const Row& row) {
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) return false;
    }
    return true;
  });
  if (index_[pos].row != kNoRow) out.push_back(&rows_[index_[pos].row]);
  return out;
}

const Row* Table::LookupSingleKey(const Value& key) const {
  if (pk_indexes_.size() != 1 || index_.empty()) return nullptr;
  const size_t col = pk_indexes_[0];
  const size_t pos = Probe(HashSingleKey(key), [&](const Row& row) {
    return row[col].EqualsValue(key);
  });
  return index_[pos].row != kNoRow ? &rows_[index_[pos].row] : nullptr;
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
  // One in-order compaction pass: `pred` sees each row once, before any
  // later row moves; cached hashes move with their rows, so the index is
  // refilled without re-hashing a key.
  const bool keyed = !pk_indexes_.empty();
  const size_t n = rows_.size();
  size_t dst = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pred(rows_[i])) {
      StashSpare(std::move(rows_[i]));
      continue;
    }
    if (dst != i) {
      rows_[dst] = std::move(rows_[i]);
      if (keyed) row_hash_[dst] = row_hash_[i];
    }
    ++dst;
  }
  if (dst == n) return 0;
  rows_.resize(dst);
  if (keyed) {
    row_hash_.resize(dst);
    ReindexAll();
  }
  return n - dst;
}

void Table::Clear() {
  for (Row& row : rows_) StashSpare(std::move(row));
  rows_.clear();
  row_hash_.clear();
  std::fill(index_.begin(), index_.end(), IndexSlot{});
}

Row Table::TakeSpareRow() {
  if (spares_.empty()) return Row();
  Row row = std::move(spares_.back());
  spares_.pop_back();
  return row;
}

void Table::StashSpare(Row&& row) {
  // Callers park a row while it still counts in rows_, so this bounds the
  // spares by the live rows the table held at the time.
  if (spares_.size() >= rows_.size()) return;
  row.clear();  // destroy values, keep capacity
  spares_.push_back(std::move(row));
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
  // Same schema: `other`'s rows are already type-checked and its cached key
  // hashes are this table's too.
  if (!pk_indexes_.empty()) ReserveIndex(rows_.size() + other.rows_.size());
  for (size_t i = 0; i < other.rows_.size(); ++i) {
    Row row = TakeSpareRow();
    row.assign(other.rows_[i].begin(), other.rows_[i].end());
    if (pk_indexes_.empty()) {
      rows_.push_back(std::move(row));
    } else {
      InsertKeyed(std::move(row), other.row_hash_[i]);
    }
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
  if (pk_indexes_.empty() || index_.empty()) return 0;
  if (key.size() != pk_indexes_.size()) return 0;
  const size_t pos = Probe(HashKeyValues(key), [&](const Row& row) {
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) return false;
    }
    return true;
  });
  if (index_[pos].row == kNoRow) return 0;
  EraseIndexed(pos, nullptr);
  return 1;
}

size_t Table::EraseSingleKey(const Value& key, Row& erased) {
  if (pk_indexes_.size() != 1 || index_.empty()) return 0;
  const size_t col = pk_indexes_[0];
  const size_t pos = Probe(HashSingleKey(key), [&](const Row& row) {
    return row[col].CompareTo(key) == 0;
  });
  if (index_[pos].row == kNoRow) return 0;
  EraseIndexed(pos, &erased);
  return 1;
}

void Table::EraseIndexed(size_t pos, Row* erased) {
  // Swap-and-pop: the last row fills the hole and its one index slot is
  // re-pointed, so a per-key erase (delta replay, cache eviction) costs
  // O(1) and never touches the rest of the table.
  const size_t hole = index_[pos].row;
  const size_t last = rows_.size() - 1;
  EraseIndexSlot(pos);
  if (erased != nullptr) {
    *erased = std::move(rows_[hole]);
  } else {
    StashSpare(std::move(rows_[hole]));
  }
  if (hole != last) {
    index_[SlotOfRow(last)].row = static_cast<uint32_t>(hole);
    rows_[hole] = std::move(rows_[last]);
    row_hash_[hole] = row_hash_[last];
  }
  rows_.pop_back();
  row_hash_.pop_back();
}

void Table::ForEachKeySlotRow(
    size_t slot, size_t num_slots,
    const std::function<void(const Row&)>& fn) const {
  if (pk_indexes_.empty() || num_slots == 0) return;
  const SlotTest in_slot(slot, num_slots);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (in_slot(row_hash_[i])) fn(rows_[i]);
  }
}

Table Table::SliceByKeySlot(size_t slot, size_t num_slots) const {
  Table out(name_, schema_);
  if (pk_indexes_.empty() || num_slots == 0) return out;
  // Rows of one table have distinct keys: append them with their cached
  // hashes and index once.
  const SlotTest in_slot(slot, num_slots);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!in_slot(row_hash_[i])) continue;
    out.rows_.push_back(rows_[i]);
    out.row_hash_.push_back(row_hash_[i]);
  }
  out.ReserveIndex(out.rows_.size());  // sizes the index and fills it
  return out;
}

size_t Table::EraseKeySlot(size_t slot, size_t num_slots) {
  if (pk_indexes_.empty() || num_slots == 0) return 0;
  // This runs on a live worker right after cutover: one backward pass over
  // the cached hashes, then a swap-and-pop per slot row — no string
  // hashing, no allocation, and the rest of the index stays untouched.
  // Walking backward, the row swapped into position i was already passed.
  const SlotTest in_slot(slot, num_slots);
  size_t erased = 0;
  for (size_t i = rows_.size(); i-- > 0;) {
    if (!in_slot(row_hash_[i])) continue;
    EraseIndexed(SlotOfRow(i), nullptr);
    ++erased;
  }
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
