// Table: the internal state of an ADN element (paper §5.1, Figure 4).
//
// Element state is deliberately modeled as relational tables rather than
// arbitrary in-memory data structures. The paper's §5.2 observation — "the
// decoupling of code and state, and the tabular nature of state, enables us
// to reconfigure the network without disrupting applications" — is realized
// here: tables can be snapshotted to bytes, restored, split by key hash for
// scale-out, and merged for scale-in (see controller/migration.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "rpc/schema.h"
#include "rpc/value.h"

namespace adn::rpc {

using Row = std::vector<Value>;

class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t RowCount() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Rows are append-ordered; erased slots are compacted immediately.
  const std::vector<Row>& rows() const { return rows_; }

  // Insert semantics:
  //  - with a primary key: upsert (replace the row with the same key);
  //  - without: plain append.
  Status Insert(Row row);

  // Point lookup on the primary key (single- or multi-column). Returns all
  // matching rows (0 or 1 when a PK is declared).
  std::vector<const Row*> LookupByKey(const Row& key) const;

  // Allocation-free point lookup for single-column primary keys — the
  // data-plane hot path (one call per message for every keyed join).
  const Row* LookupSingleKey(const Value& key) const;

  // Burst-mode lookup+prefetch: resolves the row like LookupSingleKey and
  // additionally issues a read prefetch for the row's value storage, so that
  // by the time the burst executor's lookup instruction touches the row its
  // cache lines are warm (the NDN-DPDK PCCT pattern: resolve+prefetch every
  // entry for a burst before processing any of it). The returned pointer is
  // only stable until the next mutation of this table.
  const Row* PrefetchSingleKey(const Value& key) const;

  // Insert's per-cell type check: kTypeError, with Insert's exact text,
  // unless `v` is NULL or of column `col`'s declared type.
  Status CheckCell(size_t col, const Value& v) const;
  // Writable access to a row a lookup on this table just returned — the
  // point UPDATE in place. The caller writes only non-key cells (the index
  // caches the key hash) and type-checks each with CheckCell first.
  Row& MutableRow(const Row* row) {
    return rows_[static_cast<size_t>(row - rows_.data())];
  }

  // Linear scan helpers.
  const Row* FindFirst(const std::function<bool(const Row&)>& pred) const;
  size_t EraseWhere(const std::function<bool(const Row&)>& pred);
  void Clear();

  // Row-capacity recycling (zero-allocation insert path). Rows displaced by
  // Clear(), an upsert or an erase are emptied (values destroyed) and
  // parked; a later TakeSpareRow() returns one with its vector capacity
  // intact, so a steady-state INSERT costs no heap allocation. Parked spares
  // never outnumber the live rows the table held when it parked them, so
  // slot churn cannot grow them past the table's own size. Returns an empty
  // fresh Row when no spare is available.
  Row TakeSpareRow();
  size_t spare_rows() const { return spares_.size(); }

  // --- State migration support (paper §5.2) -------------------------------
  // Snapshot the full table (schema + rows) to a portable byte string.
  Bytes Snapshot() const;
  static Result<Table> Restore(std::span<const uint8_t> snapshot);

  // Partition rows into `shards` tables by hash of the primary key (or of
  // the whole row when no PK is declared). Used when scaling OUT a stateful
  // element: each new instance receives one shard.
  Result<std::vector<Table>> SplitByKeyHash(size_t shards) const;

  // Absorb all rows of `other` (same schema required). Used when scaling IN:
  // surviving instances merge the states of retired ones. Rows are built in
  // parked spares and keep `other`'s cached key hashes (no re-hash).
  Status MergeFrom(const Table& other);

  // Deterministic content hash (order-insensitive) — used by tests to prove
  // split+merge round-trips state exactly.
  uint64_t ContentHash() const;

  // --- Key-slot slices (live migration; see docs/RECONFIG.md) --------------
  // Keyed rows partition into `num_slots` slots by RowKeyHash % num_slots; a
  // slice is one slot's rows. Slices are the unit of shard ownership the
  // EnginePool router moves between workers without draining.
  bool HasPrimaryKey() const { return !pk_indexes_.empty(); }
  // Key hash of a row OF THIS TABLE (PK hash, whole-row hash when keyless) —
  // exactly the hash slices and shard splits partition by.
  uint64_t RowKeyHash(const Row& row) const { return KeyHashOf(row); }
  // The row's primary-key values in PK-column order (empty when keyless).
  Row KeyOf(const Row& row) const;
  // Erase the row carrying exactly this key (PK values in PK-column order).
  // Returns rows erased (0 or 1); keyless tables never match. O(1): the
  // last row swaps into the hole (append order is not preserved — only
  // keyless append logs rely on it, and they never match here).
  size_t EraseByKey(const Row& key);
  // EraseByKey for a single-column primary key, the mirror of
  // LookupSingleKey: no key row to build, same swap-and-pop. The erased row
  // is moved into `erased`, values and all, instead of being parked as a
  // spare, so a caller about to insert a row of the same shape can reuse
  // its payload buffers.
  size_t EraseSingleKey(const Value& key, Row& erased);
  // Visit every keyed row whose key hash lands in slot `slot` — a scan of
  // the contiguous cached-hash column (one integer test per row, no
  // re-hashing, no pointer chasing); only the matching rows are touched.
  // Must not mutate the table from inside `fn`.
  void ForEachKeySlotRow(size_t slot, size_t num_slots,
                         const std::function<void(const Row&)>& fn) const;
  // Copy of this table holding only slot `slot`'s keyed rows. Keyless tables
  // yield an empty copy: append-log rows are location-independent (the
  // merged state hash XORs across shards), so they never move with a slice.
  Table SliceByKeySlot(size_t slot, size_t num_slots) const;
  // Drop slot `slot`'s keyed rows locally (post-handoff). Returns the count.
  // One pass over the cached hashes and a swap-and-pop per slot row: no
  // allocation, no re-hash, and surviving keys keep their index slots
  // (rows from the tail fill the holes, as in EraseByKey).
  size_t EraseKeySlot(size_t slot, size_t num_slots);
  // Two-level split: shard = (RowKeyHash % num_slots) % shards — the same
  // partition EnginePool's slot router applies to message keys, so shard s
  // holds precisely the keys whose messages route to worker s.
  Result<std::vector<Table>> SplitByKeySlot(size_t shards,
                                            size_t num_slots) const;

  std::string DebugString(size_t max_rows = 10) const;

 private:
  // One open-addressing slot of the key index: a row's cached key hash and
  // its position in rows_ (kNoRow when the slot is empty).
  struct IndexSlot {
    uint64_t hash = 0;
    uint32_t row = kNoRow;
  };
  static constexpr uint32_t kNoRow = UINT32_MAX;

  uint64_t KeyHashOf(const Row& row) const;
  bool KeysEqual(const Row& a, const Row& b) const;
  // Probe start: the hash's high bits (multiply-shift). The pool routes by
  // the hash's low bits, so one worker's table holds a single low-bit
  // residue class that a low-bit mask would pile into 1/64 of the slots.
  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  // Index position holding the row that `h` + `match` identify, or of the
  // empty slot that ends its probe run. Requires a non-empty index.
  template <class Match>
  size_t Probe(uint64_t h, const Match& match) const;
  // Position of the index slot that points at row `row`.
  size_t SlotOfRow(size_t row) const;
  // Upsert of a type-checked row of a keyed table whose key hash is `h`.
  void InsertKeyed(Row&& row, uint64_t h);
  // Grow the index (when needed, then refilled) so `rows` rows keep its
  // load <= 1/2.
  void ReserveIndex(size_t rows);
  // Empty the index and re-place every row from row_hash_ — no re-hash.
  // The index must already fit rows_ (ReserveIndex).
  void ReindexAll();
  // Backward-shift delete of index position `pos` (no tombstones).
  void EraseIndexSlot(size_t pos);
  void StashSpare(Row&& row);
  // Swap-and-pop erase of the row at index position `pos`. The row moves
  // into `*erased` when given, else it is parked as a spare.
  void EraseIndexed(size_t pos, Row* erased);

  std::string name_;
  Schema schema_;
  std::vector<size_t> pk_indexes_;
  std::vector<Row> rows_;
  // Key hash of rows_[i], maintained only for keyed tables: keyless tables
  // (append-only logs) never consult the index, so they skip both the hash
  // and the index slot.
  std::vector<uint64_t> row_hash_;
  // Flat key index: power-of-two slot array, linear probing, load <= 1/2.
  // Equal hashes are told apart by comparing the row's key cells.
  std::vector<IndexSlot> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  std::vector<Row> spares_;
};

uint64_t HashRow(const Row& row);

// Hash of one key value — exactly the hash KeyHashOf/LookupSingleKey use
// for a single-column primary key. Shard routers (mrpc::EnginePool) hash the
// message's shard-key field with this so that worker i's table shard from
// SplitByKeyHash(n) holds precisely the keys whose messages route to i.
uint64_t HashSingleKey(const Value& key);

}  // namespace adn::rpc
