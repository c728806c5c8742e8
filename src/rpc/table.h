// Table: the internal state of an ADN element (paper §5.1, Figure 4).
//
// Element state is deliberately modeled as relational tables rather than
// arbitrary in-memory data structures. The paper's §5.2 observation — "the
// decoupling of code and state, and the tabular nature of state, enables us
// to reconfigure the network without disrupting applications" — is realized
// here: tables can be snapshotted to bytes, restored, split by key hash for
// scale-out, and merged for scale-in (see controller/migration.h).
//
// Storage layout: one contiguous cell array, `ncols` Values per row, rows in
// append order (an erase moves the last row into the hole). A key index hit
// points straight at the row's cells, so a lookup costs two dependent loads
// (index slot, then cells); an INSERT appends in place; a slice, snapshot or
// restore is one block of cells rather than one heap vector per row. Row
// (an owning vector) stays the value type callers build and receive; reads
// hand out RowRefs and cell pointers into the array.
//
// Every keyed row also belongs to one of kKeySlots key slots (key hash %
// kKeySlots), and the table keeps one list of row numbers per slot, so a
// live-migration step (slice snapshot, baseline, diff, erase) walks only
// the moving slot's rows however large the table is.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "rpc/schema.h"
#include "rpc/value.h"

namespace adn::rpc {

using Row = std::vector<Value>;

// Key slots every keyed table tracks membership of: a row's slot is its key
// hash % kKeySlots. Live migration moves one slot (or slot s of any count
// n: the key slots k with k % n == s) at a time; the EnginePool routes by
// the same slots (EnginePool::kRouteSlots).
inline constexpr size_t kKeySlots = 64;

// Read-only reference to one row's cells: a row inside a table, or a Row.
// Indexes like a Row and converts to one (a copy) where an owning row is
// needed. A default RowRef refers to no row (data() is null).
class RowRef {
 public:
  RowRef() = default;
  RowRef(const Value* cells, size_t size) : cells_(cells), size_(size) {}
  RowRef(const Row& row)  // NOLINT: implicit by design, like std::span
      : cells_(row.data()), size_(row.size()) {}

  const Value& operator[](size_t i) const { return cells_[i]; }
  size_t size() const { return size_; }
  const Value* data() const { return cells_; }
  const Value* begin() const { return cells_; }
  const Value* end() const { return cells_ + size_; }
  operator Row() const { return Row(begin(), end()); }  // NOLINT

 private:
  const Value* cells_ = nullptr;
  size_t size_ = 0;
};

// A table's rows in storage order: a view over its cell array, valid until
// the table next changes.
class RowsView {
 public:
  class Iterator {
   public:
    Iterator(const Value* cells, size_t ncols, size_t row)
        : cells_(cells), ncols_(ncols), row_(row) {}
    RowRef operator*() const { return RowRef(cells_ + row_ * ncols_, ncols_); }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return row_ == o.row_; }

   private:
    const Value* cells_;
    size_t ncols_;
    size_t row_;
  };

  RowsView(const Value* cells, size_t ncols, size_t nrows)
      : cells_(cells), ncols_(ncols), nrows_(nrows) {}

  size_t size() const { return nrows_; }
  bool empty() const { return nrows_ == 0; }
  RowRef operator[](size_t i) const {
    return RowRef(cells_ + i * ncols_, ncols_);
  }
  RowRef front() const { return (*this)[0]; }
  RowRef back() const { return (*this)[nrows_ - 1]; }
  Iterator begin() const { return Iterator(cells_, ncols_, 0); }
  Iterator end() const { return Iterator(cells_, ncols_, nrows_); }

 private:
  const Value* cells_;
  size_t ncols_;
  size_t nrows_;
};

class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t RowCount() const { return nrows_; }
  bool empty() const { return nrows_ == 0; }

  // Rows are append-ordered; an erase moves the last row into the hole.
  RowsView rows() const { return RowsView(cells_.data(), ncols_, nrows_); }
  // Position of the row whose cells start at `row` (a lookup result).
  size_t RowIndex(const Value* row) const {
    return static_cast<size_t>(row - cells_.data()) / ncols_;
  }

  // Insert semantics:
  //  - with a primary key: upsert (replace the row with the same key);
  //  - without: plain append.
  Status Insert(Row row);
  // Insert that moves the cells out of `cells` (left moved-from) instead of
  // consuming a Row, so a caller reusing one scratch row allocates nothing
  // per insert.
  Status InsertFrom(std::span<Value> cells);

  // Point lookup on the primary key (single- or multi-column); `key` holds
  // the PK values in PK-column order. Returns the row's cells, or null.
  // Every returned pointer is valid until the table next changes.
  const Value* LookupByKey(RowRef key) const;

  // Allocation-free point lookup for single-column primary keys — the
  // data-plane hot path (one call per message for every keyed join).
  const Value* LookupSingleKey(const Value& key) const;

  // Two-stage burst prefetch (NDN-DPDK's resolve-then-prefetch per burst),
  // single-column primary keys only. Stage 1 hashes `key`, prefetches its
  // index home slot and returns the hash; stage 2, run once every stage-1
  // load of the burst is in flight, follows that hash's probe run by hash
  // alone and prefetches the first matching row's cells. Pure hints: they
  // compare no cell and change nothing, so every lookup still probes in
  // full and a table mutated in between stays correct.
  uint64_t PrefetchIndexSlot(const Value& key) const;
  void PrefetchRowCells(uint64_t key_hash) const;

  // Insert's per-cell type check: kTypeError, with Insert's exact text,
  // unless `v` is NULL or of column `col`'s declared type.
  Status CheckCell(size_t col, const Value& v) const;
  // Writable cells of a row a lookup on this table just returned — the
  // point UPDATE in place. The caller writes only non-key cells (the index
  // caches the key hash) and type-checks each with CheckCell first.
  Value* MutableRow(const Value* row) {
    return cells_.data() + (row - cells_.data());
  }

  // Linear scan helpers.
  const Value* FindFirst(const std::function<bool(RowRef)>& pred) const;
  size_t EraseWhere(const std::function<bool(RowRef)>& pred);
  // Drops every row; the cell array and index keep their capacity, so
  // refilling to the same size allocates nothing.
  void Clear();

  // --- State migration support (paper §5.2) -------------------------------
  // Snapshot the full table (schema + rows) to a portable byte string.
  Bytes Snapshot() const;
  static Result<Table> Restore(std::span<const uint8_t> snapshot);
  // Decode a Snapshot() of a table with this table's schema into `cells`
  // (`ncols` cells per row, replacing its contents), checking every byte:
  // a schema other than this table's, a malformed cell or a byte left over
  // is an error. Adds nothing to the table, so a caller can validate every
  // blob of a multi-table state before any table changes. With
  // InsertDecoded, this is how a table absorbs a peer's rows: scale-in
  // merges and a live migration's bulk copy.
  Status DecodeSnapshot(std::span<const uint8_t> snapshot,
                        std::vector<Value>& cells) const;
  // Insert rows that DecodeSnapshot produced, moving their cells out: one
  // key hash and one upsert per keyed row, an append per keyless row.
  void InsertDecoded(std::span<Value> cells);

  // Partition the rows into `shards` Snapshot()s: a row goes to shard
  // (RowKeyHash % kKeySlots) % shards, the function EnginePool routes
  // messages by, so shard i holds exactly the keys whose messages route to
  // worker i. Each shard keeps its rows in this table's storage order. Used
  // when scaling OUT a stateful element (pool start-up included): each new
  // instance receives one shard. Zero shards is an error.
  Result<std::vector<Bytes>> SnapshotShards(size_t shards) const;

  // Deterministic content hash (order-insensitive) — used by tests to prove
  // split+merge round-trips state exactly.
  uint64_t ContentHash() const;

  // --- Key-slot slices (live migration; see docs/RECONFIG.md) --------------
  // Slot s of `num_slots` is the union of the key slots k < kKeySlots with
  // k % num_slots == s — the keyed rows of shard s of SnapshotShards
  // (num_slots) — and a slice is one slot's rows. Slices are the unit of
  // shard ownership the EnginePool router moves between workers without
  // draining (num_slots == kKeySlots: one key slot each; num_slots == 1:
  // every keyed row). Every slice operation walks only the slice's rows
  // through the per-slot row lists: no scan of the table, no re-hash. A
  // slot that holds no key slot (slot >= num_slots or slot >= kKeySlots),
  // and every slot of a keyless table, yields an empty slice. Append-log
  // rows are location-independent (the merged state hash XORs across
  // shards), so they never move with a slice.
  bool HasPrimaryKey() const { return !pk_indexes_.empty(); }
  // Key hash of a row OF THIS TABLE (PK hash, whole-row hash when keyless) —
  // exactly the hash slices and shards partition by.
  uint64_t RowKeyHash(RowRef row) const { return KeyHashOf(row.data()); }
  // The row's primary-key values in PK-column order (empty when keyless).
  Row KeyOf(RowRef row) const;
  // Erase the row carrying exactly this key (PK values in PK-column order).
  // Returns rows erased (0 or 1); keyless tables never match. O(1): the
  // last row moves into the hole (append order is not preserved — only
  // keyless append logs rely on it, and they never match here).
  size_t EraseByKey(RowRef key);
  // EraseByKey for a single-column primary key, the mirror of
  // LookupSingleKey: no key row to build, same swap-and-pop. The erased
  // row's cells move into `erased` (resized to the row's width, so a reused
  // Row allocates nothing), values and all, so a caller about to insert a
  // row of the same shape can reuse its payload buffers.
  size_t EraseSingleKey(const Value& key, Row& erased);
  // Rows in slot `slot` of `num_slots`.
  size_t KeySlotRowCount(size_t slot, size_t num_slots) const;
  // Visit every row of slot `slot`, with its cached key hash. Must not
  // mutate the table from inside `fn`.
  void ForEachKeySlotRow(
      size_t slot, size_t num_slots,
      const std::function<void(RowRef, uint64_t key_hash)>& fn) const;
  // Snapshot() of the table holding only slot `slot`'s rows — the same
  // bytes, encoded straight from this table's cells.
  Bytes SnapshotKeySlot(size_t slot, size_t num_slots) const;
  // Drop slot `slot`'s rows locally (post-handoff). Returns the count. A
  // swap-and-pop per slot row: no allocation, no re-hash, and surviving
  // keys keep their index slots (rows from the tail fill the holes, as in
  // EraseByKey).
  size_t EraseKeySlot(size_t slot, size_t num_slots);

  std::string DebugString(size_t max_rows = 10) const;

 private:
  // One open-addressing slot of the key index: a row's cached key hash and
  // its row number (kNoRow when the slot is empty).
  struct IndexSlot {
    uint64_t hash = 0;
    uint32_t row = kNoRow;
  };
  static constexpr uint32_t kNoRow = UINT32_MAX;
  static size_t KeySlotOf(uint64_t h) { return h & (kKeySlots - 1); }

  const Value* CellsAt(size_t row) const {
    return cells_.data() + row * ncols_;
  }
  Value* CellsAt(size_t row) { return cells_.data() + row * ncols_; }
  uint64_t KeyHashOf(const Value* row) const;
  bool KeysEqual(const Value* a, const Value* b) const;
  // Probe start: the hash's high bits (multiply-shift). The pool routes by
  // the hash's low bits, so one worker's table holds a single low-bit
  // residue class that a low-bit mask would pile into 1/64 of the slots.
  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  // Index position holding the row that `h` + `match` (called with the
  // row's cells) identify, or of the empty slot that ends its probe run.
  // Requires a non-empty index.
  template <class Match>
  size_t Probe(uint64_t h, const Match& match) const;
  // Position of the index slot that points at row `row`.
  size_t SlotOfRow(size_t row) const;
  // KeyHashOf row `row`: the cached hash when keyed.
  uint64_t RowHashAt(size_t row) const {
    return pk_indexes_.empty() ? KeyHashOf(CellsAt(row)) : row_hash_[row];
  }
  // Append one type-checked row, moving its cells out of `first`.
  void Append(Value* first);
  // Insert of a type-checked row (cells moved out of `first`) whose key
  // hash is `h`: upsert when keyed, append when keyless.
  void Put(Value* first, uint64_t h);
  // Size an empty table's cells, hashes and index for `rows` rows.
  void Reserve(size_t rows);
  // Grow the index (when needed, then refilled) so `rows` rows keep its
  // load <= 1/2.
  void ReserveIndex(size_t rows);
  // Empty the index and re-place every row from row_hash_ — no re-hash.
  // The index must already fit the rows (ReserveIndex).
  void ReindexAll();
  // Append row `row` (its hash already in row_hash_) to its slot's list.
  void LinkRow(uint32_t row);
  // Take row `row` off its slot's list (the list's last entry fills its
  // place).
  void UnlinkRow(uint32_t row);
  // Visit the key slots that make up slot `slot` of `num_slots` (none for a
  // keyless table).
  template <class Fn>
  void ForEachKeySlot(size_t slot, size_t num_slots, const Fn& fn) const;
  // Call `fn(row)` for every row number of slot `slot` of `num_slots`,
  // prefetching each row's cells kRowsAhead rows ahead so the walk's cache
  // misses overlap instead of queueing one behind another.
  template <class Fn>
  void ForEachSlotRowNumber(size_t slot, size_t num_slots,
                            const Fn& fn) const;
  static constexpr size_t kRowsAhead = 8;
  void PrefetchRow(uint32_t row) const;
  // Decode the rows that follow a snapshot's header into `cells`.
  Status DecodeRows(ByteReader& r, std::vector<Value>& cells) const;
  // Snapshot()'s header: name and schema.
  void WriteHeader(ByteWriter& w) const;
  // Backward-shift delete of index position `pos` (no tombstones).
  void EraseIndexSlot(size_t pos);
  // Swap-and-pop erase of the row at index position `pos`. The row's cells
  // move into `*erased` when given, else they are destroyed.
  void EraseIndexed(size_t pos, Row* erased);
  // EraseIndexed for a row already off its slot's list.
  void PopRow(size_t pos, Row* erased);

  std::string name_;
  Schema schema_;
  std::vector<size_t> pk_indexes_;
  size_t ncols_ = 0;
  size_t nrows_ = 0;
  // Row r's cells are cells_[r * ncols_, (r + 1) * ncols_).
  std::vector<Value> cells_;
  // Key hash of row r, maintained only for keyed tables: keyless tables
  // (append-only logs) never consult the index, so they skip both the hash
  // and the index slot.
  std::vector<uint64_t> row_hash_;
  // Flat key index: power-of-two slot array, linear probing, load <= 1/2.
  // Equal hashes are told apart by comparing the row's key cells.
  std::vector<IndexSlot> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  // Key slot membership (keyed tables only): slot_rows_[s] lists the row
  // numbers of slot s's rows, in no particular order, and slot_pos_[r] is
  // row r's place in its slot's list. Every path that adds, moves or
  // removes a keyed row keeps both; an upsert or point UPDATE keeps the
  // key, so it never moves a row between lists.
  std::array<std::vector<uint32_t>, kKeySlots> slot_rows_;
  std::vector<uint32_t> slot_pos_;
};

uint64_t HashRow(RowRef row);

// Hash of one key value — exactly the hash KeyHashOf/LookupSingleKey use
// for a single-column primary key. Shard routers (mrpc::EnginePool) hash the
// message's shard-key field with this so that worker i's table shard from
// SnapshotShards(n) holds precisely the keys whose messages route to i.
uint64_t HashSingleKey(const Value& key);

}  // namespace adn::rpc
