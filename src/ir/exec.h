// ElementInstance: a deployed, stateful instance of a compiled element.
//
// This is the "generated implementation" the data-plane processors execute
// per message. The code (ElementIr) is immutable and shared; the state
// (tables, RNG, nonce counter) is instance-local and fully serializable,
// which is what lets the controller move it between instances — scale out,
// scale in, hot update — without disrupting the application (paper §5.2).
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
  // The body of a built-in element — a CACHE, or a FILTER's operator — over
  // this instance's tables: the one implementation both the interpreter's
  // Process and the compiled kBuiltin call. Which body runs is bound with
  // the code (construction, ReplaceCode), never chosen per message. Counts
  // nothing in processed/dropped: Process and kBuiltin's kBeginElement do
  // that around it. Call only when code().IsCache() or code().IsFilter().
  ProcessResult RunBuiltin(rpc::Message& m, int64_t now_ns) {
    return (this->*builtin_)(m, now_ns);
  }

  // --- Migration support ----------------------------------------------------
  // Snapshot/restore every table (format: varint count, then table snaps):
  // the one byte format of element state, for checkpoints and the wire.
  // Restore decodes and checks the whole snapshot before any table changes:
  // a malformed one is an error that leaves the state as it was.
  Bytes SnapshotState() const;
  Status RestoreState(std::span<const uint8_t> snapshot);
  uint64_t StateContentHash() const;

  // --- Moving state (scale-out, scale-in, pool start-up, hot update) --------
  // Move every row of this instance into `to`, leaving this one empty: key
  // slot k of each keyed table goes to to[k % to.size()] whole (TakeKeySlot/
  // AdoptKeySlot, no row copied); each keyless row is copied, row by row, to
  // to[(RowKeyHash % kKeySlots) % to.size()], then the source log is
  // cleared. That is the function EnginePool routes by, so with fresh
  // destinations instance i holds exactly the keys whose messages route to
  // worker i. A row that lands on a key a destination already holds
  // replaces it. Fails, moving nothing, when `to` is empty, names this
  // instance, or holds an instance whose tables do not match this one's
  // (CheckStateCompatible).
  Status MoveStateTo(std::span<ElementInstance* const> to);
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
  struct FilterRuntime;

  ProcessResult RunStatement(const StmtIr& stmt, rpc::Message& m,
                             EvalContext& ctx);
  // Cache elements' per-message work: request-path lookup (kReply on hit,
  // pending record on miss) and response-path fill with ARC admission/
  // eviction. See docs/ARCHITECTURE.md "Reply-path short-circuit".
  ProcessResult RunCache(rpc::Message& m, int64_t now_ns);
  // A FILTER operator's per-message work (docs/DSL.md "Filters").
  ProcessResult RunFilter(rpc::Message& m, int64_t now_ns);
  // A cache's ARC metadata and a filter's log order live outside the state
  // tables and are rebuilt lazily from the rows after anything replaces or
  // moves the tables (restore/move/slot take or adopt/hot-reload) — the
  // tables alone are the durable state, which is what keeps
  // StateContentHash migration-invariant.
  void InvalidateDerivedState();
  CacheRuntime& EnsureCacheRuntime();
  FilterRuntime& EnsureFilterRuntime();
  // Bind, once per code (construction / ReplaceCode), the built-in body,
  // the interned span-name id and the element-latency histogram, so Process
  // never builds a label string or takes the registry mutex per message.
  void BindCode();

  std::shared_ptr<const ElementIr> code_;
  uint32_t obs_name_id_ = 0;  // obs::NameId of code_->name
  obs::Histogram* obs_hist_ = nullptr;
  std::vector<rpc::Table> tables_;
  Rng rng_;
  uint64_t nonce_counter_;
  uint64_t processed_ = 0;
  uint64_t dropped_ = 0;
  ProcessResult (ElementInstance::*builtin_)(rpc::Message&, int64_t) =
      nullptr;  // RunCache / RunFilter; null for SQL elements
  std::unique_ptr<CacheRuntime> cache_rt_;  // null unless code().IsCache()
  std::unique_ptr<FilterRuntime> filter_rt_;  // dedup / circuit_breaker only
};

}  // namespace adn::ir
