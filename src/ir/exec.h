// ElementInstance: a deployed, stateful instance of a compiled element.
//
// This is the "generated implementation" the data-plane processors execute
// per message. The code (ElementIr) is immutable and shared; the state
// (tables, RNG, nonce counter) is instance-local and fully serializable,
// which is what lets the controller migrate, split and merge instances
// without disrupting the application (paper §5.2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ir/element_ir.h"
#include "rpc/message.h"
#include "rpc/table.h"

namespace adn::obs {
class Histogram;
}

namespace adn::ir {

enum class ProcessOutcome : uint8_t {
  kPass,        // message continues down the chain (possibly modified)
  kDropAbort,   // message dropped; network must answer the caller with error
  kDropSilent,  // message dropped silently
  kReply,       // message rewritten in place into a response (cache hit);
                // the chain stops and the runtime routes it back to the
                // caller as a SUCCESS, never as a drop
};

struct ProcessResult {
  ProcessOutcome outcome = ProcessOutcome::kPass;
  std::string abort_message;  // set when kDropAbort

  static ProcessResult Pass() { return {}; }
};

class ElementInstance {
 public:
  // `seed` drives random() and encryption nonces for this instance.
  ElementInstance(std::shared_ptr<const ElementIr> code, uint64_t seed);
  ~ElementInstance();

  ElementInstance(const ElementInstance&) = delete;
  ElementInstance& operator=(const ElementInstance&) = delete;

  const ElementIr& code() const { return *code_; }
  const std::string& name() const { return code_->name; }

  // Execute the element's statements on `m` in place. `now_ns` is the
  // processor's clock (simulated or wall), exposed to now().
  ProcessResult Process(rpc::Message& m, int64_t now_ns);

  // Does this element run for the given message kind?
  bool AppliesTo(rpc::MessageKind kind) const;

  // --- State access (controller populates rule tables etc.) ---------------
  rpc::Table* FindTable(std::string_view name);
  const rpc::Table* FindTable(std::string_view name) const;
  const std::vector<rpc::Table>& tables() const { return tables_; }

  // --- Compiled-executor API ----------------------------------------------
  // The ChainProgram executor (ir/program.h) runs against this instance's
  // state through index-based handles — resolved per call, so RestoreState
  // swapping the table vector never leaves a dangling handle — and drives
  // the same counters/streams Process would, keeping the two tiers
  // observably identical.
  rpc::Table& TableAt(size_t idx) { return tables_[idx]; }
  Rng& rng() { return rng_; }
  uint64_t BumpNonce() { return ++nonce_counter_; }
  void NoteProcessed() { ++processed_; }
  void NoteDropped() { ++dropped_; }
  // Cache elements' per-message work: request-path lookup (kReply on hit,
  // pending record on miss) and response-path fill with ARC admission/
  // eviction. See docs/ARCHITECTURE.md "Reply-path short-circuit". Counts
  // nothing in processed/dropped: Process and kCacheProbe's kBeginElement
  // do that around it.
  ProcessResult RunCache(rpc::Message& m, int64_t now_ns);

  // --- Migration support ----------------------------------------------------
  // Snapshot/restore every table (format: varint count, then table snaps).
  // Restore and merge decode and check the whole snapshot before any table
  // changes: a malformed one is an error that leaves the state as it was.
  Bytes SnapshotState() const;
  Status RestoreState(std::span<const uint8_t> snapshot);
  // Shard every table into `n` snapshots for scale-out (pool start-up
  // included): shard i holds each table's Table::SnapshotShards(n)[i], the
  // rows whose key EnginePool routes to worker i of n.
  Result<std::vector<Bytes>> SplitState(size_t n) const;
  // Merge a peer's snapshot into this instance (scale-in, and the
  // simulated controller's migration): keyed rows upsert by key.
  Status MergeState(std::span<const uint8_t> snapshot);
  uint64_t StateContentHash() const;

  // --- Live reconfiguration (see docs/RECONFIG.md) --------------------------
  // Hand key slot `k` of every table out whole, one shard per table (a
  // keyless table's is empty — append-log rows never move with a slot), and
  // take such shards in from another instance of the same element. O(tables):
  // no row is copied. See rpc::Table::TakeKeySlot / AdoptKeySlot.
  std::vector<rpc::TableShard> TakeKeySlot(size_t k);
  void AdoptKeySlot(size_t k, std::vector<rpc::TableShard> shards);
  // DSL hot-reload: swap in new element code, keeping the live tables, RNG
  // and counters. Fails (kFailedPrecondition, via CheckStateCompatible)
  // unless the new code declares the same state tables.
  Status ReplaceCode(std::shared_ptr<const ElementIr> new_code);

  // Statistics.
  uint64_t processed() const { return processed_; }
  uint64_t dropped() const { return dropped_; }

  // --- Cache elements (code().IsCache()) ------------------------------------
  // Hit/miss/fill counters for benches and tests; zero for non-cache
  // elements. `cache_hits` counts request-path kReply short-circuits.
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;
  uint64_t cache_fills() const;
  uint64_t cache_expired() const;
  uint64_t cache_evicted() const;

 private:
  struct CacheRuntime;

  ProcessResult RunStatement(const StmtIr& stmt, rpc::Message& m,
                             EvalContext& ctx);
  // ARC recency/frequency metadata lives outside the state table and is
  // rebuilt lazily from the rows after anything replaces or merges the
  // tables (restore/merge/slot take or adopt/hot-reload) — the table alone is the
  // durable state, which is what keeps StateContentHash migration-invariant.
  void InvalidateCacheRuntime();
  // Decode every table blob of a SnapshotState-format `snapshot` into
  // `cells` (one block per table) without changing any table.
  Status DecodeState(std::span<const uint8_t> snapshot,
                     std::vector<std::vector<rpc::Value>>& cells) const;
  CacheRuntime& EnsureCacheRuntime();
  // Resolve the interned span-name id and the element-latency histogram
  // once (construction / ReplaceCode), so Process never builds a label
  // string or takes the registry mutex per message.
  void ResolveObsInstruments();

  std::shared_ptr<const ElementIr> code_;
  uint32_t obs_name_id_ = 0;  // obs::NameId of code_->name
  obs::Histogram* obs_hist_ = nullptr;
  std::vector<rpc::Table> tables_;
  Rng rng_;
  uint64_t nonce_counter_;
  uint64_t processed_ = 0;
  uint64_t dropped_ = 0;
  std::unique_ptr<CacheRuntime> cache_rt_;  // null unless code().IsCache()
};

}  // namespace adn::ir
