#include "rpc/table.h"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <utility>

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
  if (!pk_indexes_.empty()) shards_.resize(kKeySlots);
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

// A shard's first allocation: room for 8 rows, in its cells and hashes and
// (at load 1/2) its index, so a table of a few rows per key slot fills
// with one allocation per array instead of a doubling chain.
constexpr size_t kMinShardRows = 8;
constexpr size_t kMinIndexSlots = 2 * kMinShardRows;

// Rows ahead of a bulk insert whose index home slot is prefetched.
constexpr size_t kRowsAhead = 8;

void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}
}  // namespace

template <class Match>
size_t Table::Probe(const TableShard& s, uint64_t h, const Match& match) const {
  const size_t mask = s.index_.size() - 1;
  for (size_t pos = Home(s, h);; pos = (pos + 1) & mask) {
    const IndexSlot& slot = s.index_[pos];
    if (slot.row == kNoRow || (slot.hash == h && match(CellsAt(s, slot.row)))) {
      return pos;
    }
  }
}

size_t Table::SlotOfRow(const TableShard& s, size_t row) {
  const size_t mask = s.index_.size() - 1;
  size_t pos = Home(s, s.hashes_[row]);
  while (s.index_[pos].row != row) pos = (pos + 1) & mask;
  return pos;
}

void Table::ReserveIndex(TableShard& s, size_t rows) {
  if (2 * rows <= s.index_.size()) return;
  size_t slots = std::max(kMinIndexSlots, s.index_.size());
  while (slots < 2 * rows) slots *= 2;
  s.index_.resize(slots);
  s.index_shift_ = 64 - std::countr_zero(slots);
  ReindexAll(s);
}

void Table::ReindexAll(TableShard& s) {
  std::fill(s.index_.begin(), s.index_.end(), IndexSlot{});
  const size_t mask = s.index_.size() - 1;
  for (size_t i = 0; i < s.nrows_; ++i) {
    size_t pos = Home(s, s.hashes_[i]);
    while (s.index_[pos].row != kNoRow) pos = (pos + 1) & mask;
    s.index_[pos] = IndexSlot{s.hashes_[i], static_cast<uint32_t>(i)};
  }
}

void Table::EraseIndexSlot(TableShard& s, size_t pos) {
  const size_t mask = s.index_.size() - 1;
  size_t hole = pos;
  for (size_t j = (pos + 1) & mask; s.index_[j].row != kNoRow;
       j = (j + 1) & mask) {
    // Slot j may move back into the hole only if the hole lies on its
    // probe run, i.e. its home is no later than the hole.
    if (((j - Home(s, s.index_[j].hash)) & mask) >= ((j - hole) & mask)) {
      s.index_[hole] = s.index_[j];
      hole = j;
    }
  }
  s.index_[hole].row = kNoRow;
}

RowRef RowsView::operator[](size_t i) const {
  const TableShard* s = shards_;
  while (i >= s->nrows_) i -= (s++)->nrows_;
  return RowRef(s->cells_.data() + i * ncols_, ncols_);
}

const Value* Table::RowAt(RowId id) const {
  static_assert(kKeySlots == 64, "RowId keeps the key slot in 6 bits");
  const size_t k = id & (kKeySlots - 1);
  const size_t r = id >> 6;
  if (k >= shards_.size() || r >= shards_[k].nrows_) return nullptr;
  return CellsAt(shards_[k], r);
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
  // Keyless tables are append-only logs: nothing ever consults a key
  // index, so skip both the key hash and the index slot.
  if (pk_indexes_.empty()) {
    Append(shards_[0], cells.data());
  } else {
    Put(cells.data(), KeyHashOf(cells.data()));
  }
  return Status::Ok();
}

void Table::Append(TableShard& s, Value* first) {
  if (s.cells_.capacity() == 0) s.cells_.reserve(kMinShardRows * ncols_);
  s.cells_.insert(s.cells_.end(), std::make_move_iterator(first),
                  std::make_move_iterator(first + ncols_));
  ++s.nrows_;
  ++nrows_;
}

void Table::Put(Value* first, uint64_t h) {
  if (pk_indexes_.empty()) {
    Append(shards_[0], first);
    return;
  }
  TableShard& s = shards_[KeySlotOf(h)];
  ReserveIndex(s, s.nrows_ + 1);
  const size_t pos =
      Probe(s, h, [&](const Value* r) { return KeysEqual(r, first); });
  if (s.index_[pos].row != kNoRow) {
    std::move(first, first + ncols_, CellsAt(s, s.index_[pos].row));  // upsert
    return;
  }
  s.index_[pos] = IndexSlot{h, static_cast<uint32_t>(s.nrows_)};
  if (s.hashes_.capacity() == 0) s.hashes_.reserve(kMinShardRows);
  s.hashes_.push_back(h);
  Append(s, first);
}

const Value* Table::LookupByKey(RowRef key) const {
  if (pk_indexes_.empty() || key.size() != pk_indexes_.size()) return nullptr;
  const uint64_t h = HashKeyValues(key);
  const TableShard& s = shards_[KeySlotOf(h)];
  if (s.index_.empty()) return nullptr;
  const size_t pos = Probe(s, h, [&](const Value* row) {
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) return false;
    }
    return true;
  });
  return s.index_[pos].row != kNoRow ? CellsAt(s, s.index_[pos].row)
                                     : nullptr;
}

const Table::IndexSlot* Table::ProbeSingleKey(const Value& key,
                                              size_t& slot) const {
  if (pk_indexes_.size() != 1) return nullptr;
  const uint64_t h = HashSingleKey(key);
  slot = KeySlotOf(h);
  const TableShard& s = shards_[slot];
  if (s.index_.empty()) return nullptr;
  const size_t col = pk_indexes_[0];
  const size_t pos = Probe(s, h, [&](const Value* row) {
    return row[col].EqualsValue(key);
  });
  return s.index_[pos].row != kNoRow ? &s.index_[pos] : nullptr;
}

const Value* Table::LookupSingleKey(const Value& key) const {
  size_t k;
  const IndexSlot* hit = ProbeSingleKey(key, k);
  return hit != nullptr ? CellsAt(shards_[k], hit->row) : nullptr;
}

Table::RowId Table::FindSingleKey(const Value& key) const {
  size_t k;
  const IndexSlot* hit = ProbeSingleKey(key, k);
  if (hit == nullptr || hit->row >= (kNoRowId >> 6)) return kNoRowId;
  return static_cast<RowId>(hit->row) << 6 | static_cast<RowId>(k);
}

uint64_t Table::PrefetchIndexSlot(const Value& key) const {
  if (pk_indexes_.size() != 1) return 0;
  const uint64_t h = HashSingleKey(key);
  const TableShard& s = shards_[KeySlotOf(h)];
  if (!s.index_.empty()) PrefetchRead(&s.index_[Home(s, h)]);
  return h;
}

void Table::PrefetchRowCells(uint64_t key_hash) const {
  if (pk_indexes_.size() != 1) return;
  const TableShard& s = shards_[KeySlotOf(key_hash)];
  if (s.index_.empty()) return;
  const size_t mask = s.index_.size() - 1;
  for (size_t pos = Home(s, key_hash); s.index_[pos].row != kNoRow;
       pos = (pos + 1) & mask) {
    if (s.index_[pos].hash != key_hash) continue;
    // A row spans ncols_ cells: warm its first and last line.
    const Value* row = CellsAt(s, s.index_[pos].row);
    PrefetchRead(row);
    PrefetchRead(row + ncols_ - 1);
    return;
  }
}

const Value* Table::FindFirst(
    const std::function<bool(RowRef)>& pred) const {
  for (const RowRef row : rows()) {
    if (pred(row)) return row.data();
  }
  return nullptr;
}

size_t Table::EraseWhere(const std::function<bool(RowRef)>& pred) {
  // One in-order compaction pass per shard: `pred` sees each row once, in
  // rows() order, before any later row moves; cached hashes move with
  // their rows, so a shard's index is refilled without re-hashing a key.
  const bool keyed = !pk_indexes_.empty();
  const size_t before = nrows_;
  for (TableShard& s : shards_) {
    const size_t n = s.nrows_;
    size_t dst = 0;
    for (size_t i = 0; i < n; ++i) {
      if (pred(RowRef(CellsAt(s, i), ncols_))) continue;
      if (dst != i) {
        std::move(CellsAt(s, i), CellsAt(s, i + 1), CellsAt(s, dst));
        if (keyed) s.hashes_[dst] = s.hashes_[i];
      }
      ++dst;
    }
    if (dst == n) continue;
    s.cells_.resize(dst * ncols_);
    s.nrows_ = dst;
    nrows_ -= n - dst;
    if (keyed) {
      s.hashes_.resize(dst);
      ReindexAll(s);
    }
  }
  return before - nrows_;
}

void Table::Clear() {
  for (TableShard& s : shards_) {
    s.cells_.clear();
    s.hashes_.clear();
    s.nrows_ = 0;
    std::fill(s.index_.begin(), s.index_.end(), IndexSlot{});
  }
  nrows_ = 0;
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
  for (const TableShard& s : shards_) {
    for (const Value& v : s.cells_) EncodeValue(v, w);  // row-major
  }
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
    TableShard& s = shards_[0];
    s.cells_.insert(s.cells_.end(), std::make_move_iterator(cells.begin()),
                    std::make_move_iterator(cells.begin() + n * ncols_));
    s.nrows_ += n;
    nrows_ += n;
    return;
  }
  // Hash every row first (the block is warm) and count each slot's rows,
  // so every shard is sized once and each row's index home slot can be
  // prefetched a few rows ahead of its probe.
  std::vector<uint64_t> hashes(n);
  std::array<size_t, kKeySlots> counts{};
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = KeyHashOf(&cells[i * ncols_]);
    ++counts[KeySlotOf(hashes[i])];
  }
  for (size_t k = 0; k < kKeySlots; ++k) {
    if (counts[k] == 0) continue;
    TableShard& s = shards_[k];
    const size_t rows = s.nrows_ + counts[k];
    s.cells_.reserve(rows * ncols_);
    s.hashes_.reserve(rows);
    ReserveIndex(s, rows);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kRowsAhead < n) {
      const uint64_t ahead = hashes[i + kRowsAhead];
      const TableShard& s = shards_[KeySlotOf(ahead)];
      PrefetchRead(&s.index_[Home(s, ahead)]);
    }
    Put(&cells[i * ncols_], hashes[i]);
  }
}

Result<std::vector<Bytes>> Table::SnapshotShards(size_t shards) const {
  if (shards == 0) {
    return Error(ErrorCode::kInvalidArgument, "cannot split into 0 shards");
  }
  // Pass 1 places every row and counts each shard's rows, which lead their
  // snapshots; pass 2 encodes each row straight into its shard. A keyed
  // table places whole key slots; a keyless one hashes each row. A shard
  // number is below kKeySlots, so it fits a byte.
  const bool keyed = !pk_indexes_.empty();
  std::vector<uint8_t> row_shard;  // keyless: each row's shard
  std::vector<size_t> counts(shards, 0);
  if (keyed) {
    for (size_t k = 0; k < kKeySlots; ++k) {
      counts[k % shards] += shards_[k].nrows_;
    }
  } else {
    row_shard.resize(nrows_);
    for (size_t i = 0; i < nrows_; ++i) {
      row_shard[i] = static_cast<uint8_t>(
          KeySlotOf(KeyHashOf(CellsAt(shards_[0], i))) % shards);
      ++counts[row_shard[i]];
    }
  }
  std::vector<Bytes> out(shards);
  for (size_t s = 0; s < shards; ++s) {
    ByteWriter w(out[s]);
    WriteHeader(w);
    w.WriteVarint(counts[s]);
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    const TableShard& s = shards_[k];
    for (size_t i = 0; i < s.nrows_; ++i) {
      ByteWriter w(out[keyed ? k % shards : row_shard[i]]);
      for (const Value& v : RowRef(CellsAt(s, i), ncols_)) EncodeValue(v, w);
    }
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
  if (pk_indexes_.empty() || key.size() != pk_indexes_.size()) return 0;
  const uint64_t h = HashKeyValues(key);
  TableShard& s = shards_[KeySlotOf(h)];
  if (s.index_.empty()) return 0;
  const size_t pos = Probe(s, h, [&](const Value* row) {
    for (size_t i = 0; i < pk_indexes_.size(); ++i) {
      if (row[pk_indexes_[i]].CompareTo(key[i]) != 0) return false;
    }
    return true;
  });
  if (s.index_[pos].row == kNoRow) return 0;
  PopRow(s, pos, nullptr);
  return 1;
}

size_t Table::EraseSingleKey(const Value& key, Row& erased) {
  if (pk_indexes_.size() != 1) return 0;
  const uint64_t h = HashSingleKey(key);
  TableShard& s = shards_[KeySlotOf(h)];
  if (s.index_.empty()) return 0;
  const size_t col = pk_indexes_[0];
  const size_t pos = Probe(s, h, [&](const Value* row) {
    return row[col].CompareTo(key) == 0;
  });
  if (s.index_[pos].row == kNoRow) return 0;
  PopRow(s, pos, &erased);
  return 1;
}

void Table::PopRow(TableShard& s, size_t pos, Row* erased) {
  // Swap-and-pop: the shard's last row fills the hole and its one index
  // slot is re-pointed, so a per-key erase (delta replay, cache eviction)
  // costs O(1) and never touches the rest of the table.
  const uint32_t hole = s.index_[pos].row;
  const uint32_t last = static_cast<uint32_t>(s.nrows_ - 1);
  EraseIndexSlot(s, pos);
  if (erased != nullptr) {
    erased->resize(ncols_);
    std::move(CellsAt(s, hole), CellsAt(s, hole + 1), erased->begin());
  }
  if (hole != last) {
    s.index_[SlotOfRow(s, last)].row = hole;
    std::move(CellsAt(s, last), CellsAt(s, last + 1), CellsAt(s, hole));
    s.hashes_[hole] = s.hashes_[last];
  }
  s.cells_.resize(last * ncols_);
  s.hashes_.pop_back();
  s.nrows_ = last;
  --nrows_;
}

TableShard Table::TakeKeySlot(size_t k) {
  if (pk_indexes_.empty() || k >= kKeySlots) return TableShard{};
  nrows_ -= shards_[k].nrows_;
  return std::exchange(shards_[k], TableShard{});
}

void Table::AdoptKeySlot(size_t k, TableShard shard) {
  if (shard.empty()) return;
  if (!pk_indexes_.empty() && k < kKeySlots && shards_[k].empty()) {
    nrows_ += shard.nrows_;
    shards_[k] = std::move(shard);
    return;
  }
  // The slot already holds rows (a table keyed by another field than the
  // route key): upsert each row, its cached hash reused.
  const bool keyed = !pk_indexes_.empty();
  if (keyed && k < kKeySlots) {
    ReserveIndex(shards_[k], shards_[k].nrows_ + shard.nrows_);
  }
  for (size_t i = 0; i < shard.nrows_; ++i) {
    Value* row = CellsAt(shard, i);
    Put(row, keyed ? shard.hashes_[i] : 0);
  }
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
