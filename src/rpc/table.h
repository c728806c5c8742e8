// Table: the internal state of an ADN element (paper §5.1, Figure 4).
//
// Element state is deliberately modeled as relational tables rather than
// arbitrary in-memory data structures. The paper's §5.2 observation — "the
// decoupling of code and state, and the tabular nature of state, enables us
// to reconfigure the network without disrupting applications" — is realized
// here: tables can be snapshotted to bytes and restored (checkpoints, the
// wire), and their key slots handed between instances whole, which is how
// state moves for scale-out, scale-in and pool start-up
// (ElementInstance::MoveStateTo, controller/migration.h).
//
// Storage layout: a keyed table keeps one shard per key slot (key hash %
// kKeySlots); a keyless one keeps a single shard. A shard holds its rows'
// cells contiguously (`ncols` Values per row, append order, an erase moves
// the shard's last row into the hole), each row's cached key hash, and its
// own open-addressing key index, so a row is addressed as (slot, row). A
// key index hit points straight at the row's cells, so a lookup costs the
// shard, its index slot, then the cells; an INSERT appends in place; a
// snapshot or restore walks blocks of cells rather than one heap vector per
// row. Row (an owning vector) stays the value type callers build and
// receive; reads hand out RowRefs and cell pointers into the shards.
//
// Because a key slot owns its storage, every in-process state move hands a
// slot over whole (TakeKeySlot / AdoptKeySlot): no row is copied, diffed or
// erased, however large the table is.
#pragma once

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

// Key slots of every keyed table: a row's slot is its key hash % kKeySlots,
// and each slot is one shard of storage. Live migration moves one slot at a
// time; the EnginePool routes by the same slots (EnginePool::kRouteSlots).
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

// One key slot's rows of a keyed table (every row of a keyless one): their
// cells, `ncols` per row in append order, each row's cached key hash, and
// an open-addressing key index over them. A Table owns one per key slot;
// TakeKeySlot hands one out whole and AdoptKeySlot takes one in, so a slot
// changes tables without a row being copied.
class TableShard {
 public:
  size_t RowCount() const { return nrows_; }
  bool empty() const { return nrows_ == 0; }

 private:
  friend class Table;
  friend class RowsView;

  // One index slot: a row's cached key hash and its row number in the
  // shard (kNoRow when the slot is empty).
  struct IndexSlot {
    uint64_t hash = 0;
    uint32_t row = UINT32_MAX;
  };

  // The lookup path's fields first: index, its shift, then the cells.
  // Power-of-two slots, linear probing, load <= 1/2; equal hashes are told
  // apart by comparing the row's key cells. Keyless shards have no index.
  std::vector<IndexSlot> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  // Row r's cells are cells_[r * ncols, (r + 1) * ncols).
  std::vector<Value> cells_;
  // Key hash of row r (keyed tables only; keyless logs skip it).
  std::vector<uint64_t> hashes_;
  size_t nrows_ = 0;
};

// A table's rows in storage order — key slot ascending, then each slot's
// append order — valid until the table next changes. Indexing walks the
// shards, so prefer iteration.
class RowsView {
 public:
  class Iterator {
   public:
    Iterator(const TableShard* shard, const TableShard* end, size_t ncols)
        : shard_(shard), end_(end), ncols_(ncols) {
      SkipEmpty();
    }
    RowRef operator*() const {
      return RowRef(shard_->cells_.data() + row_ * ncols_, ncols_);
    }
    Iterator& operator++() {
      if (++row_ == shard_->nrows_) {
        ++shard_;
        row_ = 0;
        SkipEmpty();
      }
      return *this;
    }
    bool operator==(const Iterator& o) const {
      return shard_ == o.shard_ && row_ == o.row_;
    }

   private:
    void SkipEmpty() {
      while (shard_ != end_ && shard_->nrows_ == 0) ++shard_;
    }
    const TableShard* shard_;
    const TableShard* end_;
    size_t ncols_;
    size_t row_ = 0;
  };

  RowsView(const TableShard* shards, size_t nshards, size_t ncols,
           size_t nrows)
      : shards_(shards), nshards_(nshards), ncols_(ncols), nrows_(nrows) {}

  size_t size() const { return nrows_; }
  bool empty() const { return nrows_ == 0; }
  RowRef operator[](size_t i) const;
  RowRef front() const { return (*this)[0]; }
  RowRef back() const { return (*this)[nrows_ - 1]; }
  Iterator begin() const {
    return Iterator(shards_, shards_ + nshards_, ncols_);
  }
  Iterator end() const {
    return Iterator(shards_ + nshards_, shards_ + nshards_, ncols_);
  }

 private:
  const TableShard* shards_;
  size_t nshards_;
  size_t ncols_;
  size_t nrows_;
};

class Table {
 public:
  // A row's address: its key slot in the low bits, its row in the slot's
  // shard above them. Valid until the table next changes; RowAt checks it.
  using RowId = uint32_t;
  static constexpr RowId kNoRowId = UINT32_MAX;

  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t RowCount() const { return nrows_; }
  bool empty() const { return nrows_ == 0; }

  RowsView rows() const {
    return RowsView(shards_.data(), shards_.size(), ncols_, nrows_);
  }
  // The cells at `id`, or null when no row is there (any id is safe).
  const Value* RowAt(RowId id) const;

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
  // LookupSingleKey returning the row's address: kNoRowId when no row has
  // the key (or its address does not fit a RowId).
  RowId FindSingleKey(const Value& key) const;

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
  Value* MutableRow(const Value* row) { return const_cast<Value*>(row); }

  // Linear scan helpers, in rows() order.
  const Value* FindFirst(const std::function<bool(RowRef)>& pred) const;
  size_t EraseWhere(const std::function<bool(RowRef)>& pred);
  // Drops every row; the shards keep their capacity, so refilling to the
  // same size allocates nothing.
  void Clear();

  // --- State migration support (paper §5.2) -------------------------------
  // Snapshot the full table (schema + rows, in rows() order) to a portable
  // byte string.
  Bytes Snapshot() const;
  static Result<Table> Restore(std::span<const uint8_t> snapshot);
  // Decode a Snapshot() of a table with this table's schema into `cells`
  // (`ncols` cells per row, replacing its contents), checking every byte:
  // a schema other than this table's, a malformed cell or a byte left over
  // is an error. Adds nothing to the table, so a caller can validate every
  // blob of a multi-table state before any table changes
  // (ElementInstance::RestoreState).
  Status DecodeSnapshot(std::span<const uint8_t> snapshot,
                        std::vector<Value>& cells) const;
  // Insert rows that DecodeSnapshot produced, moving their cells out: one
  // key hash and one upsert per keyed row, an append per keyless row. Each
  // shard is sized once, from the block's row count per key slot.
  void InsertDecoded(std::span<Value> cells);

  // Deterministic content hash (order-insensitive) — used by tests to prove
  // a state move or a snapshot round-trip keeps the rows exactly.
  uint64_t ContentHash() const;

  // --- Key slots (live migration; see docs/RECONFIG.md) --------------------
  bool HasPrimaryKey() const { return !pk_indexes_.empty(); }
  // Key hash of a row OF THIS TABLE (PK hash, whole-row hash when keyless) —
  // exactly the hash key slots and state moves partition by.
  uint64_t RowKeyHash(RowRef row) const { return KeyHashOf(row.data()); }
  // The row's primary-key values in PK-column order (empty when keyless).
  Row KeyOf(RowRef row) const;
  // Erase the row carrying exactly this key (PK values in PK-column order).
  // Returns rows erased (0 or 1); keyless tables never match. O(1): the
  // slot's last row moves into the hole (append order is not preserved —
  // only keyless append logs rely on it, and they never match here).
  size_t EraseByKey(RowRef key);
  // EraseByKey for a single-column primary key, the mirror of
  // LookupSingleKey: no key row to build, same swap-and-pop. The erased
  // row's cells move into `erased` (resized to the row's width, so a reused
  // Row allocates nothing), values and all, so a caller about to insert a
  // row of the same shape can reuse its payload buffers.
  size_t EraseSingleKey(const Value& key, Row& erased);
  // Hand key slot `k`'s shard out whole, leaving the slot empty: O(1), no
  // row is touched. A keyless table, or k >= kKeySlots, hands out an empty
  // shard (append-log rows are location-independent — the merged state
  // hash XORs across shards — so they never move with a slot).
  TableShard TakeKeySlot(size_t k);
  // Take in a shard that TakeKeySlot(k) gave up on a table with this
  // schema. When slot k is empty here the shard becomes the slot as is (its
  // cells stay where they are); otherwise each of its rows upserts by key,
  // as a merge would.
  void AdoptKeySlot(size_t k, TableShard shard);

  std::string DebugString(size_t max_rows = 10) const;

 private:
  using IndexSlot = TableShard::IndexSlot;
  static constexpr uint32_t kNoRow = UINT32_MAX;
  static size_t KeySlotOf(uint64_t h) { return h & (kKeySlots - 1); }

  const Value* CellsAt(const TableShard& s, size_t row) const {
    return s.cells_.data() + row * ncols_;
  }
  Value* CellsAt(TableShard& s, size_t row) {
    return s.cells_.data() + row * ncols_;
  }
  uint64_t KeyHashOf(const Value* row) const;
  bool KeysEqual(const Value* a, const Value* b) const;
  // Probe start: the hash's high bits (multiply-shift). A shard's keys
  // share the hash's low bits (their key slot), which a low-bit mask would
  // pile into a fraction of the slots.
  static size_t Home(const TableShard& s, uint64_t h) {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> s.index_shift_);
  }
  // Index position of `s` holding the row that `h` + `match` (called with
  // the row's cells) identify, or of the empty slot that ends its probe
  // run. Requires a non-empty index.
  template <class Match>
  size_t Probe(const TableShard& s, uint64_t h, const Match& match) const;
  // The key slot and the index entry of the row whose single-column key is
  // `key`; a null entry when no row has it.
  const IndexSlot* ProbeSingleKey(const Value& key, size_t& slot) const;
  // Position of the index slot of `s` that points at row `row`.
  static size_t SlotOfRow(const TableShard& s, size_t row);
  // Append one type-checked row to `s`, moving its cells out of `first`.
  void Append(TableShard& s, Value* first);
  // Insert of a type-checked row (cells moved out of `first`) whose key
  // hash is `h`: upsert when keyed, append when keyless.
  void Put(Value* first, uint64_t h);
  // Grow `s`'s index (when needed, then refilled) so `rows` rows keep its
  // load <= 1/2.
  static void ReserveIndex(TableShard& s, size_t rows);
  // Empty `s`'s index and re-place every row from its hashes — no re-hash.
  // The index must already fit the rows (ReserveIndex).
  static void ReindexAll(TableShard& s);
  // Decode the rows that follow a snapshot's header into `cells`.
  Status DecodeRows(ByteReader& r, std::vector<Value>& cells) const;
  // Snapshot()'s header: name and schema.
  void WriteHeader(ByteWriter& w) const;
  // Backward-shift delete of index position `pos` of `s` (no tombstones).
  static void EraseIndexSlot(TableShard& s, size_t pos);
  // Swap-and-pop erase of the row at index position `pos` of `s`. The
  // row's cells move into `*erased` when given, else they are destroyed.
  void PopRow(TableShard& s, size_t pos, Row* erased);

  std::string name_;
  Schema schema_;
  std::vector<size_t> pk_indexes_;
  size_t ncols_ = 0;
  size_t nrows_ = 0;
  // kKeySlots shards when keyed (shard k holds key slot k), one when
  // keyless.
  std::vector<TableShard> shards_ = std::vector<TableShard>(1);
};

uint64_t HashRow(RowRef row);

// Hash of one key value — exactly the hash KeyHashOf/LookupSingleKey use
// for a single-column primary key. Shard routers (mrpc::EnginePool) hash the
// message's shard-key field with this so that the key slots a state move
// hands worker i hold precisely the keys whose messages route to i.
uint64_t HashSingleKey(const Value& key);

}  // namespace adn::rpc
