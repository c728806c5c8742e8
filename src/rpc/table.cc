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
  slot_pos_.reserve(rows);
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

void Table::LinkRow(uint32_t row) {
  std::vector<uint32_t>& rows = slot_rows_[KeySlotOf(row_hash_[row])];
  slot_pos_[row] = static_cast<uint32_t>(rows.size());
  rows.push_back(row);
}

void Table::UnlinkRow(uint32_t row) {
  std::vector<uint32_t>& rows = slot_rows_[KeySlotOf(row_hash_[row])];
  const uint32_t pos = slot_pos_[row];
  rows[pos] = rows.back();
  slot_pos_[rows[pos]] = pos;
  rows.pop_back();
}

template <class Fn>
void Table::ForEachKeySlot(size_t slot, size_t num_slots,
                           const Fn& fn) const {
  if (pk_indexes_.empty() || slot >= num_slots) return;
  for (size_t s = slot; s < kKeySlots; s += num_slots) fn(s);
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
    Append(cells.data());
  } else {
    Put(cells.data(), KeyHashOf(cells.data()));
  }
  return Status::Ok();
}

void Table::Append(Value* first) {
  cells_.insert(cells_.end(), std::make_move_iterator(first),
                std::make_move_iterator(first + ncols_));
  ++nrows_;
}

void Table::Put(Value* first, uint64_t h) {
  if (pk_indexes_.empty()) {
    Append(first);
    return;
  }
  ReserveIndex(nrows_ + 1);
  const size_t pos =
      Probe(h, [&](const Value* r) { return KeysEqual(r, first); });
  if (index_[pos].row != kNoRow) {
    std::move(first, first + ncols_, CellsAt(index_[pos].row));  // upsert
    return;
  }
  index_[pos] = IndexSlot{h, static_cast<uint32_t>(nrows_)};
  row_hash_.push_back(h);
  slot_pos_.push_back(0);
  LinkRow(static_cast<uint32_t>(nrows_));
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
    slot_pos_.resize(dst);
    ReindexAll();
    for (std::vector<uint32_t>& rows : slot_rows_) rows.clear();
    for (size_t i = 0; i < dst; ++i) LinkRow(static_cast<uint32_t>(i));
  }
  return n - dst;
}

void Table::Clear() {
  cells_.clear();
  nrows_ = 0;
  row_hash_.clear();
  slot_pos_.clear();
  for (std::vector<uint32_t>& rows : slot_rows_) rows.clear();
  std::fill(index_.begin(), index_.end(), IndexSlot{});
}

void Table::WriteHeader(ByteWriter& w) const {
  w.WriteString(name_);
  w.WriteVarint(schema_.size());
  for (const Column& c : schema_.columns()) {
    w.WriteString(c.name);
    w.WriteU8(static_cast<uint8_t>(c.type));
    w.WriteU8(c.primary_key ? 1 : 0);
  }
}

Bytes Table::Snapshot() const {
  Bytes out;
  ByteWriter w(out);
  WriteHeader(w);
  w.WriteVarint(nrows_);
  for (const Value& v : cells_) EncodeValue(v, w);  // row-major
  return out;
}

namespace {
// Reads Snapshot()'s header (name, then schema).
Status ReadHeader(ByteReader& r, std::string& name, Schema& schema) {
  ADN_ASSIGN_OR_RETURN(name, r.ReadString());
  ADN_ASSIGN_OR_RETURN(uint64_t ncols, r.ReadVarint());
  for (uint64_t i = 0; i < ncols; ++i) {
    Column c;
    ADN_ASSIGN_OR_RETURN(c.name, r.ReadString());
    ADN_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
    if (type > static_cast<uint8_t>(ValueType::kBytes)) {
      return Status(ErrorCode::kParseError, "bad column type in snapshot");
    }
    c.type = static_cast<ValueType>(type);
    ADN_ASSIGN_OR_RETURN(uint8_t pk, r.ReadU8());
    c.primary_key = pk != 0;
    ADN_RETURN_IF_ERROR(schema.AddColumn(std::move(c)));
  }
  return Status::Ok();
}
}  // namespace

Status Table::DecodeRows(ByteReader& r, std::vector<Value>& cells) const {
  cells.clear();
  ADN_ASSIGN_OR_RETURN(uint64_t nrows, r.ReadVarint());
  // Every cell (and every row, even one without cells) takes at least one
  // byte, so a count the remaining bytes cannot hold is malformed: sizing
  // the block from it is safe.
  if (nrows > r.remaining() / std::max<size_t>(ncols_, 1)) {
    return Status(ErrorCode::kParseError,
                  "snapshot of " + name_ + " claims more rows than it holds");
  }
  cells.resize(nrows * ncols_);
  for (size_t i = 0; i < cells.size(); i += ncols_) {
    for (size_t j = 0; j < ncols_; ++j) {
      ADN_ASSIGN_OR_RETURN(cells[i + j],
                           DecodeValue(schema_.columns()[j].type, r));
    }
  }
  if (r.remaining() != 0) {
    return Status(ErrorCode::kParseError,
                  "trailing bytes after the snapshot of " + name_);
  }
  return Status::Ok();
}

Result<Table> Table::Restore(std::span<const uint8_t> snapshot) {
  ByteReader r(snapshot);
  std::string name;
  Schema schema;
  ADN_RETURN_IF_ERROR(ReadHeader(r, name, schema));
  Table table(std::move(name), std::move(schema));
  std::vector<Value> cells;
  ADN_RETURN_IF_ERROR(table.DecodeRows(r, cells));
  table.Reserve(cells.size() / std::max<size_t>(table.ncols_, 1));
  table.InsertDecoded(cells);
  return table;
}

Status Table::DecodeSnapshot(std::span<const uint8_t> snapshot,
                             std::vector<Value>& cells) const {
  ByteReader r(snapshot);
  std::string name;
  Schema schema;
  ADN_RETURN_IF_ERROR(ReadHeader(r, name, schema));
  if (!(schema == schema_)) {
    return Status(ErrorCode::kInvalidArgument,
                  "snapshot table " + name + " " + schema.DebugString() +
                      " does not match " + name_ + " " +
                      schema_.DebugString());
  }
  return DecodeRows(r, cells);
}

void Table::InsertDecoded(std::span<Value> cells) {
  if (ncols_ == 0) return;
  const size_t n = cells.size() / ncols_;
  if (pk_indexes_.empty()) {
    cells_.insert(cells_.end(), std::make_move_iterator(cells.begin()),
                  std::make_move_iterator(cells.begin() + n * ncols_));
    nrows_ += n;
    return;
  }
  ReserveIndex(nrows_ + n);
  // Hash every row first (the block is warm), so each row's index home
  // slot can be prefetched a few rows ahead of its probe.
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = KeyHashOf(&cells[i * ncols_]);
  for (size_t i = 0; i < n; ++i) {
    if (i + kRowsAhead < n) PrefetchRead(&index_[Home(hashes[i + kRowsAhead])]);
    Put(&cells[i * ncols_], hashes[i]);
  }
}

Result<std::vector<Bytes>> Table::SnapshotShards(size_t shards) const {
  if (shards == 0) {
    return Error(ErrorCode::kInvalidArgument, "cannot split into 0 shards");
  }
  // Pass 1 places every row and counts each shard's rows, which lead their
  // snapshots; pass 2 encodes each row straight into its shard. A shard
  // number is below kKeySlots, so it fits a byte.
  std::vector<uint8_t> shard_of(nrows_);
  std::vector<size_t> counts(shards, 0);
  for (size_t i = 0; i < nrows_; ++i) {
    shard_of[i] = static_cast<uint8_t>(KeySlotOf(RowHashAt(i)) % shards);
    ++counts[shard_of[i]];
  }
  std::vector<Bytes> out(shards);
  for (size_t s = 0; s < shards; ++s) {
    ByteWriter w(out[s]);
    WriteHeader(w);
    w.WriteVarint(counts[s]);
  }
  for (size_t i = 0; i < nrows_; ++i) {
    ByteWriter w(out[shard_of[i]]);
    for (const Value& v : RowRef(CellsAt(i), ncols_)) EncodeValue(v, w);
  }
  return out;
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
  UnlinkRow(index_[pos].row);
  PopRow(pos, erased);
}

void Table::PopRow(size_t pos, Row* erased) {
  // Swap-and-pop: the last row's cells fill the hole and its one index
  // slot is re-pointed, so a per-key erase (delta replay, cache eviction)
  // costs O(1) and never touches the rest of the table.
  const uint32_t hole = index_[pos].row;
  const uint32_t last = static_cast<uint32_t>(nrows_ - 1);
  EraseIndexSlot(pos);
  if (erased != nullptr) {
    erased->resize(ncols_);
    std::move(CellsAt(hole), CellsAt(hole + 1), erased->begin());
  }
  if (hole != last) {
    index_[SlotOfRow(last)].row = hole;
    std::move(CellsAt(last), CellsAt(last + 1), CellsAt(hole));
    row_hash_[hole] = row_hash_[last];
    // The moved row keeps its place on its slot's list, renumbered.
    slot_pos_[hole] = slot_pos_[last];
    slot_rows_[KeySlotOf(row_hash_[hole])][slot_pos_[hole]] = hole;
  }
  cells_.resize(last * ncols_);
  nrows_ = last;
  row_hash_.pop_back();
  slot_pos_.pop_back();
}

size_t Table::KeySlotRowCount(size_t slot, size_t num_slots) const {
  size_t n = 0;
  ForEachKeySlot(slot, num_slots,
                 [&](size_t s) { n += slot_rows_[s].size(); });
  return n;
}

void Table::PrefetchRow(uint32_t row) const {
  // A row spans ncols_ cells: warm its first and last line, and its
  // cached key hash.
  PrefetchRead(CellsAt(row));
  PrefetchRead(CellsAt(row) + ncols_ - 1);
  PrefetchRead(&row_hash_[row]);
}

template <class Fn>
void Table::ForEachSlotRowNumber(size_t slot, size_t num_slots,
                                 const Fn& fn) const {
  ForEachKeySlot(slot, num_slots, [&](size_t s) {
    const std::vector<uint32_t>& rows = slot_rows_[s];
    for (size_t j = 0; j < rows.size(); ++j) {
      if (j + kRowsAhead < rows.size()) PrefetchRow(rows[j + kRowsAhead]);
      fn(rows[j]);
    }
  });
}

void Table::ForEachKeySlotRow(
    size_t slot, size_t num_slots,
    const std::function<void(RowRef, uint64_t)>& fn) const {
  ForEachSlotRowNumber(slot, num_slots, [&](uint32_t row) {
    fn(RowRef(CellsAt(row), ncols_), row_hash_[row]);
  });
}

Bytes Table::SnapshotKeySlot(size_t slot, size_t num_slots) const {
  Bytes out;
  ByteWriter w(out);
  WriteHeader(w);
  w.WriteVarint(KeySlotRowCount(slot, num_slots));
  ForEachSlotRowNumber(slot, num_slots, [&](uint32_t row) {
    for (const Value& v : RowRef(CellsAt(row), ncols_)) EncodeValue(v, w);
  });
  return out;
}

size_t Table::EraseKeySlot(size_t slot, size_t num_slots) {
  // This runs on a live worker right after cutover: the slot's lists are
  // dropped whole, then a swap-and-pop per slot row — no string hashing,
  // and the rest of the index stays untouched. Highest row first: every
  // row above the one being erased is then outside the slot, so the tail
  // row that fills each hole is never a slot row still to come, and every
  // listed row number stays valid. Each erase pops one row, so the j-th
  // one moves row n - 1 - j: both rows' index slots, the erased row's
  // cells and the moved row's list entry are known ahead and prefetched
  // (the erased row's hash, which locates its index slot, further ahead).
  std::vector<uint32_t> rows;
  rows.reserve(KeySlotRowCount(slot, num_slots));
  ForEachKeySlot(slot, num_slots, [&](size_t s) {
    rows.insert(rows.end(), slot_rows_[s].begin(), slot_rows_[s].end());
  });
  ForEachKeySlot(slot, num_slots, [&](size_t s) { slot_rows_[s].clear(); });
  std::sort(rows.begin(), rows.end(), std::greater<>());
  const size_t n = nrows_;
  for (size_t j = 0; j < rows.size(); ++j) {
    if (j + 2 * kRowsAhead < rows.size()) {
      PrefetchRow(rows[j + 2 * kRowsAhead]);
      PrefetchRead(&slot_pos_[rows[j + 2 * kRowsAhead]]);
    }
    if (j + kRowsAhead < rows.size()) {
      const uint32_t doomed = rows[j + kRowsAhead];
      const size_t moved = n - 1 - j - kRowsAhead;
      PrefetchRead(&index_[Home(row_hash_[doomed])]);
      PrefetchRead(&index_[Home(row_hash_[moved])]);
      const std::vector<uint32_t>& list =
          slot_rows_[KeySlotOf(row_hash_[moved])];
      if (slot_pos_[moved] < list.size()) {
        PrefetchRead(&list[slot_pos_[moved]]);
      }
    }
    PopRow(SlotOfRow(rows[j]), nullptr);
  }
  return rows.size();
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
