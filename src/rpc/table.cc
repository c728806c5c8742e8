#include "rpc/table.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "rpc/wire.h"

namespace adn::rpc {

uint64_t HashRow(RowRef row) {
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
  ncols_ = schema_.size();
}

uint64_t HashSingleKey(const Value& key) {
  uint64_t h = 0x452821E638D01377ULL;
  h ^= HashValue(key);
  h *= 0x100000001B3ULL;
  return h;
}

uint64_t Table::KeyHashOf(const Value* row) const {
  if (pk_indexes_.empty()) return HashRow(RowRef(row, ncols_));
  if (pk_indexes_.size() == 1) return HashSingleKey(row[pk_indexes_[0]]);
  uint64_t h = 0x452821E638D01377ULL;
  for (size_t idx : pk_indexes_) {
    h ^= HashValue(row[idx]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool Table::KeysEqual(const Value* a, const Value* b) const {
  if (pk_indexes_.empty()) {
    for (size_t i = 0; i < ncols_; ++i) {
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
uint64_t HashKeyValues(RowRef key) {
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

// The cells a row-reading iterator points at: Append/Put read from
// plain pointers (copy) and from move iterators (move).
const Value* CellPtr(const Value* p) { return p; }
const Value* CellPtr(std::move_iterator<Value*> it) { return it.base(); }

void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}
}  // namespace

template <class Match>
size_t Table::Probe(uint64_t h, const Match& match) const {
  const size_t mask = index_.size() - 1;
  for (size_t pos = Home(h);; pos = (pos + 1) & mask) {
    const IndexSlot& s = index_[pos];
    if (s.row == kNoRow || (s.hash == h && match(CellsAt(s.row)))) return pos;
  }
}

size_t Table::SlotOfRow(size_t row) const {
  const size_t mask = index_.size() - 1;
  size_t pos = Home(row_hash_[row]);
  while (index_[pos].row != row) pos = (pos + 1) & mask;
  return pos;
}

void Table::Reserve(size_t rows) {
  cells_.reserve(rows * ncols_);
  if (pk_indexes_.empty()) return;
  row_hash_.reserve(rows);
  ReserveIndex(rows);
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
  for (size_t i = 0; i < nrows_; ++i) {
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

Status Table::Insert(Row row) { return InsertFrom(row); }

Status Table::InsertFrom(std::span<Value> cells) {
  if (cells.size() != ncols_) {
    return Status(ErrorCode::kInvalidArgument,
                  "row arity " + std::to_string(cells.size()) +
                      " does not match schema arity " +
                      std::to_string(ncols_) + " of table " + name_);
  }
  for (size_t i = 0; i < ncols_; ++i) {
    if (!cells[i].is_null() && cells[i].type() != schema_.columns()[i].type) {
      return CheckCell(i, cells[i]);
    }
  }
  // Keyless tables are append-only logs: nothing ever consults the key
  // index, so skip both the key hash and the index slot.
  if (pk_indexes_.empty()) {
    Append(std::make_move_iterator(cells.data()));
  } else {
    Put(std::make_move_iterator(cells.data()), KeyHashOf(cells.data()));
  }
  return Status::Ok();
}

template <class It>
void Table::Append(It first) {
  cells_.insert(cells_.end(), first, first + ncols_);
  ++nrows_;
}

template <class It>
void Table::Put(It first, uint64_t h) {
  if (pk_indexes_.empty()) {
    Append(first);
    return;
  }
  ReserveIndex(nrows_ + 1);
  const Value* row = CellPtr(first);
  const size_t pos =
      Probe(h, [&](const Value* r) { return KeysEqual(r, row); });
  if (index_[pos].row != kNoRow) {
    std::copy(first, first + ncols_, CellsAt(index_[pos].row));  // upsert
    return;
  }
  index_[pos] = IndexSlot{h, static_cast<uint32_t>(nrows_)};
  row_hash_.push_back(h);
  Append(first);
}

const Value* Table::LookupByKey(RowRef key) const {
  if (pk_indexes_.empty() || index_.empty()) return nullptr;
  if (key.size() != pk_indexes_.size()) return nullptr;
  const size_t pos = Probe(HashKeyValues(key), [&](const Value* row) {
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) return false;
    }
    return true;
  });
  return index_[pos].row != kNoRow ? CellsAt(index_[pos].row) : nullptr;
}

const Value* Table::LookupSingleKey(const Value& key) const {
  if (pk_indexes_.size() != 1 || index_.empty()) return nullptr;
  const size_t col = pk_indexes_[0];
  const size_t pos = Probe(HashSingleKey(key), [&](const Value* row) {
    return row[col].EqualsValue(key);
  });
  return index_[pos].row != kNoRow ? CellsAt(index_[pos].row) : nullptr;
}

uint64_t Table::PrefetchIndexSlot(const Value& key) const {
  if (pk_indexes_.size() != 1 || index_.empty()) return 0;
  const uint64_t h = HashSingleKey(key);
  PrefetchRead(&index_[Home(h)]);
  return h;
}

void Table::PrefetchRowCells(uint64_t key_hash) const {
  if (pk_indexes_.size() != 1 || index_.empty()) return;
  const size_t mask = index_.size() - 1;
  for (size_t pos = Home(key_hash); index_[pos].row != kNoRow;
       pos = (pos + 1) & mask) {
    if (index_[pos].hash != key_hash) continue;
    // A row spans ncols_ cells: warm its first and last line.
    const Value* row = CellsAt(index_[pos].row);
    PrefetchRead(row);
    PrefetchRead(row + ncols_ - 1);
    return;
  }
}

const Value* Table::FindFirst(
    const std::function<bool(RowRef)>& pred) const {
  for (size_t i = 0; i < nrows_; ++i) {
    if (pred(RowRef(CellsAt(i), ncols_))) return CellsAt(i);
  }
  return nullptr;
}

size_t Table::EraseWhere(const std::function<bool(RowRef)>& pred) {
  // One in-order compaction pass: `pred` sees each row once, before any
  // later row moves; cached hashes move with their rows, so the index is
  // refilled without re-hashing a key.
  const bool keyed = !pk_indexes_.empty();
  const size_t n = nrows_;
  size_t dst = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pred(RowRef(CellsAt(i), ncols_))) continue;
    if (dst != i) {
      std::move(CellsAt(i), CellsAt(i + 1), CellsAt(dst));
      if (keyed) row_hash_[dst] = row_hash_[i];
    }
    ++dst;
  }
  if (dst == n) return 0;
  cells_.resize(dst * ncols_);
  nrows_ = dst;
  if (keyed) {
    row_hash_.resize(dst);
    ReindexAll();
  }
  return n - dst;
}

void Table::Clear() {
  cells_.clear();
  nrows_ = 0;
  row_hash_.clear();
  std::fill(index_.begin(), index_.end(), IndexSlot{});
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
  w.WriteVarint(nrows_);
  for (const Value& v : cells_) EncodeValue(v, w);  // row-major
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
  // Every cell encodes to at least one byte, so size the cells and index
  // up front only for a row count the remaining bytes can hold.
  if (ncols > 0 && nrows <= r.remaining() / ncols) table.Reserve(nrows);
  // One scratch row: each decoded row's cells move into the table.
  Row row(ncols);
  for (uint64_t i = 0; i < nrows; ++i) {
    for (uint64_t j = 0; j < ncols; ++j) {
      ADN_ASSIGN_OR_RETURN(row[j],
                           DecodeValue(table.schema().columns()[j].type, r));
    }
    ADN_RETURN_IF_ERROR(table.InsertFrom(row));
  }
  return table;
}

Result<std::vector<Table>> Table::SplitByKeyHash(size_t shards) const {
  if (shards == 0) {
    return Error(ErrorCode::kInvalidArgument, "cannot split into 0 shards");
  }
  return SplitRows(shards, [&](uint64_t h) { return h % shards; });
}

template <class ShardOf>
std::vector<Table> Table::SplitRows(size_t shards,
                                    const ShardOf& shard_of) const {
  // Count first, so each shard's cells, hashes and index are sized once.
  std::vector<size_t> counts(shards, 0);
  for (size_t i = 0; i < nrows_; ++i) ++counts[shard_of(RowHashAt(i))];
  std::vector<Table> out;
  out.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    out.emplace_back(name_, schema_);
    out.back().Reserve(counts[s]);
  }
  for (size_t i = 0; i < nrows_; ++i) {
    const uint64_t h = RowHashAt(i);
    out[shard_of(h)].Put(CellsAt(i), h);
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
  if (pk_indexes_.empty()) {
    cells_.insert(cells_.end(), other.cells_.begin(), other.cells_.end());
    nrows_ += other.nrows_;
    return Status::Ok();
  }
  ReserveIndex(nrows_ + other.nrows_);
  for (size_t i = 0; i < other.nrows_; ++i) {
    Put(other.CellsAt(i), other.row_hash_[i]);
  }
  return Status::Ok();
}

Row Table::KeyOf(RowRef row) const {
  Row key;
  key.reserve(pk_indexes_.size());
  for (size_t idx : pk_indexes_) key.push_back(row[idx]);
  return key;
}

size_t Table::EraseByKey(RowRef key) {
  if (pk_indexes_.empty() || index_.empty()) return 0;
  if (key.size() != pk_indexes_.size()) return 0;
  const size_t pos = Probe(HashKeyValues(key), [&](const Value* row) {
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
  const size_t pos = Probe(HashSingleKey(key), [&](const Value* row) {
    return row[col].CompareTo(key) == 0;
  });
  if (index_[pos].row == kNoRow) return 0;
  EraseIndexed(pos, &erased);
  return 1;
}

void Table::EraseIndexed(size_t pos, Row* erased) {
  // Swap-and-pop: the last row's cells fill the hole and its one index
  // slot is re-pointed, so a per-key erase (delta replay, cache eviction)
  // costs O(1) and never touches the rest of the table.
  const size_t hole = index_[pos].row;
  const size_t last = nrows_ - 1;
  EraseIndexSlot(pos);
  if (erased != nullptr) {
    erased->resize(ncols_);
    std::move(CellsAt(hole), CellsAt(hole + 1), erased->begin());
  }
  if (hole != last) {
    index_[SlotOfRow(last)].row = static_cast<uint32_t>(hole);
    std::move(CellsAt(last), CellsAt(last + 1), CellsAt(hole));
    row_hash_[hole] = row_hash_[last];
  }
  cells_.resize(last * ncols_);
  nrows_ = last;
  row_hash_.pop_back();
}

void Table::ForEachKeySlotRow(
    size_t slot, size_t num_slots,
    const std::function<void(RowRef, uint64_t)>& fn) const {
  if (pk_indexes_.empty() || num_slots == 0) return;
  const SlotTest in_slot(slot, num_slots);
  for (size_t i = 0; i < nrows_; ++i) {
    if (in_slot(row_hash_[i])) fn(RowRef(CellsAt(i), ncols_), row_hash_[i]);
  }
}

Table Table::SliceByKeySlot(size_t slot, size_t num_slots) const {
  Table out(name_, schema_);
  if (pk_indexes_.empty() || num_slots == 0) return out;
  // Rows of one table have distinct keys: count the slot's rows, then
  // append their cells and cached hashes into exactly-sized blocks and
  // index once.
  const SlotTest in_slot(slot, num_slots);
  size_t n = 0;
  for (size_t i = 0; i < nrows_; ++i) n += in_slot(row_hash_[i]) ? 1 : 0;
  out.Reserve(n);
  for (size_t i = 0; i < nrows_; ++i) {
    if (!in_slot(row_hash_[i])) continue;
    out.Append(CellsAt(i));
    out.row_hash_.push_back(row_hash_[i]);
  }
  out.ReindexAll();
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
  for (size_t i = nrows_; i-- > 0;) {
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
  return SplitRows(shards,
                   [&](uint64_t h) { return (h % num_slots) % shards; });
}

uint64_t Table::ContentHash() const {
  // XOR of per-row hashes: order-insensitive by construction.
  uint64_t h = 0;
  for (const RowRef row : rows()) h ^= HashRow(row);
  return h;
}

std::string Table::DebugString(size_t max_rows) const {
  std::string out = name_ + schema_.DebugString() + " [" +
                    std::to_string(nrows_) + " rows]";
  size_t shown = 0;
  for (const RowRef row : rows()) {
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
