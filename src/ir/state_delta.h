// Reconfiguration toolkit: mutation deltas, key-slot slices and hot-swap
// compatibility checks over element state (paper §5.2).
//
// Live migration moves a shard of tabular state from a running source to a
// destination WITHOUT stopping the source: the bulk of the state is copied
// while the source keeps serving (and keeps mutating its tables), then the
// mutations that happened during the copy window — the delta — are replayed
// at the destination before traffic flips over. The blackout is proportional
// to the delta, not to the state size. This header holds the pieces every
// cutover implementation shares:
//
//  - StateBaseline / StateDelta: capture a per-row fingerprint of an
//    instance's keyed tables, then diff the live instance against it to
//    produce a compact, serializable upsert+delete log that ApplyTo replays
//    on the destination. Keyless tables (append-only logs) are excluded by
//    design: their rows are location-independent — the merged state hash is
//    an XOR over shards, so a log row is correct wherever it was written —
//    and new rows simply accumulate at the destination after the flip.
//  - CheckStateCompatible: the DSL hot-reload gate. New element code may
//    change logic freely but must keep the state-table layout (names and
//    schemas, in order) so the running tables carry over without copying.
//
// See docs/RECONFIG.md for the cutover state machine and the compatibility
// matrix these primitives enforce.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ir/element_ir.h"
#include "ir/exec.h"

namespace adn::ir {

// Hot-reload gate: `next` may replace `running` on a live chain only when
// every state table matches by position, name and schema (so the running
// table vector binds to the new code unchanged). Logic, direction and even
// the element name may differ. Errors carry the first mismatch.
Status CheckStateCompatible(const ElementIr& running, const ElementIr& next);

// The serialized mutation log of one instance between a baseline capture and
// a diff: per keyed table, the rows inserted or changed since the baseline
// (upserts) and the primary keys that vanished (deletes). Replayed in table
// order by ApplyTo; replay is idempotent (upserts overwrite by key).
struct StateDelta {
  Bytes blob;
  uint64_t upserts = 0;
  uint64_t deletes = 0;

  uint64_t replayed() const { return upserts + deletes; }
  size_t bytes() const { return blob.size(); }
  bool empty() const { return upserts == 0 && deletes == 0; }

  // Replay onto `instance` (same element layout as the diffed source).
  Status ApplyTo(ElementInstance& instance) const;
};

// Per-row fingerprint of an instance's keyed tables at one instant,
// optionally restricted to one key slot (see Table::ForEachKeySlotRow).
// Diffing the live instance later yields exactly the mutations the copy
// window saw. Row identity is the 64-bit key hash (the same hash the shard
// router and the table index use); a hash collision would fold two keys
// into one delta entry, which at 2^-64 per pair is below the error floor
// of everything else in the system. Each table's marks are one flat
// open-addressing array keyed by key hash, with the key cells inline in a
// second flat vector, so a capture costs a few allocations per table
// rather than one per row, and the diff finds each row's mark in about one
// probe.
class StateBaseline {
 public:
  // `slot` < 0 captures every keyed row; otherwise only rows whose key hash
  // lands in `slot` of `num_slots` (the moving slice).
  static StateBaseline Capture(const ElementInstance& instance, int slot = -1,
                               size_t num_slots = 0);

  // Mutations of `instance`'s keyed tables since the capture, restricted to
  // the captured slot. Fails when the table layout changed underneath.
  Result<StateDelta> Diff(const ElementInstance& instance) const;

 private:
  static constexpr size_t kNoKey = SIZE_MAX;
  struct RowMark {
    uint64_t key_hash = 0;
    uint64_t row_hash = 0;
    // Offset of the row's PK cells in TableMarks::keys; kNoKey marks an
    // empty slot.
    size_t key = kNoKey;
  };
  struct TableMarks {
    // Power-of-two slots, linear probing from the key hash's high bits
    // (one slot's key hashes share their low bits), load <= 1/2.
    std::vector<RowMark> marks;
    std::vector<rpc::Value> keys;  // PK values in PK-column order, per mark
    size_t key_width = 0;          // PK columns per mark
    size_t count = 0;              // marks in use
    int shift = 64;                // 64 - log2(marks.size())
    // Size for `rows` marks.
    void Reserve(size_t rows);
    void Add(const RowMark& mark);
    // The mark keyed by `key_hash`, or null.
    const RowMark* Find(uint64_t key_hash) const;
    size_t Home(uint64_t key_hash) const {
      return static_cast<size_t>((key_hash * 0x9E3779B97F4A7C15ULL) >> shift);
    }
  };

  // The rows covered: slot slot_ of num_slots_ (0 of 1 is every keyed row).
  size_t slot_ = 0;
  size_t num_slots_ = 1;
  // Index-aligned with the instance's table vector; keyless tables hold no
  // marks.
  std::vector<TableMarks> tables_;
};

}  // namespace adn::ir
