// Table: the internal state of an ADN element (paper §5.1, Figure 4).
//
// Element state is deliberately modeled as relational tables rather than
// arbitrary in-memory data structures. The paper's §5.2 observation — "the
// decoupling of code and state, and the tabular nature of state, enables us
// to reconfigure the network without disrupting applications" — is realized
// here: tables can be snapshotted to bytes, restored, split by key hash for
// scale-out, and merged for scale-in (see controller/migration.h).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
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

  // Linear scan helpers.
  const Row* FindFirst(const std::function<bool(const Row&)>& pred) const;
  size_t EraseWhere(const std::function<bool(const Row&)>& pred);
  void Clear();

  // Row-capacity recycling (zero-allocation insert path). Rows displaced by
  // Clear() or an upsert are emptied (values destroyed) and parked; a later
  // TakeSpareRow() returns one with its vector capacity intact, so a
  // steady-state INSERT costs no heap allocation. Returns an empty fresh Row
  // when no spare is available.
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
  // surviving instances merge the states of retired ones.
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
  // Visit every keyed row whose key hash lands in slot `slot` — an index
  // walk over the cached hashes (one integer mod per row, no re-hashing),
  // the primitive that keeps live-cutover work off the full table scan.
  // Must not mutate the table from inside `fn`.
  void ForEachKeySlotRow(size_t slot, size_t num_slots,
                         const std::function<void(const Row&)>& fn) const;
  // Copy of this table holding only slot `slot`'s keyed rows. Keyless tables
  // yield an empty copy: append-log rows are location-independent (the
  // merged state hash XORs across shards), so they never move with a slice.
  Table SliceByKeySlot(size_t slot, size_t num_slots) const;
  // Drop slot `slot`'s keyed rows locally (post-handoff). Returns the count.
  size_t EraseKeySlot(size_t slot, size_t num_slots);
  // Two-level split: shard = (RowKeyHash % num_slots) % shards — the same
  // partition EnginePool's slot router applies to message keys, so shard s
  // holds precisely the keys whose messages route to worker s.
  Result<std::vector<Table>> SplitByKeySlot(size_t shards,
                                            size_t num_slots) const;

  std::string DebugString(size_t max_rows = 10) const;

 private:
  uint64_t KeyHashOf(const Row& row) const;
  bool KeysEqual(const Row& a, const Row& b) const;
  void ReindexAll();
  void StashSpare(Row&& row);
  // Swap-and-pop erase of the row `it` indexes. The row moves into
  // `*erased` when given, else it is parked as a spare.
  void EraseIndexed(std::unordered_multimap<uint64_t, size_t>::iterator it,
                    Row* erased);

  std::string name_;
  Schema schema_;
  std::vector<size_t> pk_indexes_;
  std::vector<Row> rows_;
  // key hash -> row indexes (collision chains resolved by KeysEqual).
  // Maintained only for keyed tables: keyless tables (append-only logs)
  // never consult it, so they skip the per-insert index node entirely.
  std::unordered_multimap<uint64_t, size_t> key_index_;
  std::vector<Row> spares_;
};

uint64_t HashRow(const Row& row);

// Hash of one key value — exactly the hash KeyHashOf/LookupSingleKey use
// for a single-column primary key. Shard routers (mrpc::EnginePool) hash the
// message's shard-key field with this so that worker i's table shard from
// SplitByKeyHash(n) holds precisely the keys whose messages route to i.
uint64_t HashSingleKey(const Value& key);

}  // namespace adn::rpc
