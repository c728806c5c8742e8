#include "ir/exec.h"

#include <algorithm>
#include <cstdint>

#include "common/strings.h"
#include "ir/state_delta.h"
#include "obs/intern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/flat_wire.h"

namespace adn::ir {

using rpc::Message;
using rpc::Row;
using rpc::Table;
using rpc::Value;

namespace {

constexpr uint32_t kNone = UINT32_MAX;

// Slots keyed by a 64-bit `.key`, kept in one flat array with a free list
// (chained through `.next`) and found through an open-addressed, linear
// probing index of 4-byte slot numbers. Removal shifts later probes back
// instead of leaving tombstones, so probes stay short under churn. The
// index doubles at half load; once both arrays have grown to the working
// set, nothing here allocates.
template <typename Slot>
class SlotMap {
 public:
  Slot& operator[](uint32_t s) { return slots_[s]; }

  void Clear(size_t expected) {
    slots_.clear();
    slots_.reserve(expected);
    free_ = kNone;
    count_ = 0;
    if (cells_.empty()) cells_.resize(64);
    std::fill(cells_.begin(), cells_.end(), kNone);
  }

  uint32_t Find(uint64_t key) const {
    for (size_t c = Home(key);; c = (c + 1) & Mask()) {
      if (cells_[c] == kNone || slots_[cells_[c]].key == key) return cells_[c];
    }
  }

  // A fresh slot for `key`, which must not be present.
  uint32_t Add(uint64_t key) {
    uint32_t s = free_;
    if (s != kNone) {
      free_ = slots_[s].next;
    } else {
      s = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[s].key = key;
    if (++count_ * 2 > cells_.size()) Grow();
    Place(s);
    return s;
  }

  void Remove(uint32_t s) {
    size_t hole = Home(slots_[s].key);
    while (cells_[hole] != s) hole = (hole + 1) & Mask();
    // Pull back each later cell of the probe run whose home does not lie
    // cyclically in (hole, c].
    for (size_t c = (hole + 1) & Mask(); cells_[c] != kNone;
         c = (c + 1) & Mask()) {
      const size_t home = Home(slots_[cells_[c]].key);
      const bool stays = hole <= c ? (hole < home && home <= c)
                                   : (hole < home || home <= c);
      if (stays) continue;
      cells_[hole] = cells_[c];
      hole = c;
    }
    cells_[hole] = kNone;
    --count_;
    slots_[s].next = free_;
    free_ = s;
  }

 private:
  size_t Mask() const { return cells_.size() - 1; }
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & Mask();
  }
  void Place(uint32_t s) {
    size_t c = Home(slots_[s].key);
    while (cells_[c] != kNone) c = (c + 1) & Mask();
    cells_[c] = s;
  }
  void Grow() {
    std::vector<uint32_t> old = std::move(cells_);
    cells_.assign(old.size() * 2, kNone);
    for (uint32_t s : old) {
      if (s != kNone) Place(s);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> cells_;
  uint32_t free_ = kNone;
  size_t count_ = 0;
};

// Doubly linked list threaded through a SlotMap's slots by slot number.
// `head` is the MRU (newest) end, `tail` the LRU (oldest) end.
struct SlotList {
  uint32_t head = kNone;
  uint32_t tail = kNone;
  size_t size = 0;

  template <typename Slots>
  void PushHead(Slots& slots, uint32_t s) {
    slots[s].prev = kNone;
    slots[s].next = head;
    (head != kNone ? slots[head].prev : tail) = s;
    head = s;
    ++size;
  }
  template <typename Slots>
  void Unlink(Slots& slots, uint32_t s) {
    const uint32_t prev = slots[s].prev;
    const uint32_t next = slots[s].next;
    (prev != kNone ? slots[prev].next : head) = next;
    (next != kNone ? slots[next].prev : tail) = prev;
    --size;
  }
};

}  // namespace

// ARC (adaptive replacement cache) bookkeeping for a cache element. Only the
// response rows live in the state table; this recency/frequency metadata is
// derived, rebuilt from the rows whenever migration machinery replaces them
// (InvalidateCacheRuntime), so the table alone defines the element's
// migratable state. Counters survive rebuilds — they describe the instance,
// not the current rows.
//
// Layout: every key ARC tracks (resident or ghost) owns one slot of a flat
// SlotMap (2 x capacity slots once warm) and the four ARC lists are
// intrusive lists over those slots. In-flight misses live the same way in a
// second SlotMap, linked oldest to newest. Neither a hit nor a fill
// allocates here once warm.
struct ElementInstance::CacheRuntime {
  // Which of the four ARC lists a key is on: T1/T2 hold resident entries
  // (recency / frequency), B1/B2 are ghosts (recently evicted keys, no row).
  enum : uint8_t { kT1 = 0, kT2 = 1, kB1 = 2, kB2 = 3 };
  struct Entry {
    uint64_t key;
    uint32_t prev, next;
    Table::RowId row;  // last known address of a resident key's row (a hint)
    uint8_t list;
  };
  // An in-flight miss, keyed by rpc id.
  struct Pending {
    uint64_t key;
    uint64_t cache_key;
    uint32_t prev, next;
  };

  SlotMap<Entry> entries;
  SlotList lists[4];
  size_t p = 0;  // adaptive target size for T1

  SlotMap<Pending> pending;
  SlotList in_flight;  // head = newest, tail = oldest

  std::vector<rpc::FieldId> key_fids;
  bool built = false;
  // The last evicted row's cells, kept whole so the next fill reuses its
  // blob buffer, and the fill's own scratch row. Both keep their capacity.
  Row spare;
  Row fill;

  uint64_t hits = 0, misses = 0, fills = 0, expired = 0, evicted = 0;

  void Reset(size_t capacity) {
    entries.Clear(2 * capacity);
    for (SlotList& l : lists) l = SlotList{};
    p = 0;
    pending.Clear(0);
    in_flight = SlotList{};
  }

  bool Resident(uint32_t e) { return entries[e].list <= kT2; }

  // Track `key` (not yet tracked) at the MRU end of `list`.
  void PushMru(uint8_t list, uint64_t key, uint32_t row) {
    const uint32_t e = entries.Add(key);
    entries[e].row = row;
    entries[e].list = list;
    lists[list].PushHead(entries, e);
  }

  void MoveToMru(uint32_t e, uint8_t list) {
    lists[entries[e].list].Unlink(entries, e);
    entries[e].list = list;
    lists[list].PushHead(entries, e);
  }

  // Stop tracking the key in slot `e`.
  void Forget(uint32_t e) {
    lists[entries[e].list].Unlink(entries, e);
    entries.Remove(e);
  }

  // The row backing resident slot `e`, or null. The cached row address is
  // checked against the row's key and refreshed from the table's index when
  // rows have moved underneath it, so on return a found row's address is
  // entries[e].row.
  const Value* RowOf(uint32_t e, const Table& table) {
    Entry& entry = entries[e];
    if (const Value* row = table.RowAt(entry.row);
        row != nullptr && row[0].type() == rpc::ValueType::kInt &&
        static_cast<uint64_t>(row[0].AsInt()) == entry.key) {
      return row;
    }
    entry.row = table.FindSingleKey(Value(static_cast<int64_t>(entry.key)));
    return table.RowAt(entry.row);
  }

  // Drop resident slot `e`'s row into `spare`. The row's key slot fills
  // the hole with its last row; that row's entry learns its new address.
  void EraseRow(uint32_t e, Table& table) {
    const Table::RowId hole =
        RowOf(e, table) != nullptr ? entries[e].row : Table::kNoRowId;
    table.EraseSingleKey(Value(static_cast<int64_t>(entries[e].key)), spare);
    const Value* moved = table.RowAt(hole);
    if (moved == nullptr || moved[0].type() != rpc::ValueType::kInt) return;
    const uint32_t m = entries.Find(static_cast<uint64_t>(moved[0].AsInt()));
    if (m != kNone) entries[m].row = hole;
  }

  // ARC REPLACE: evict one resident entry to its ghost list and drop the
  // backing row. `in_b2` is whether the incoming key was a B2 ghost.
  void Replace(Table& table, bool in_b2) {
    const size_t t1 = lists[kT1].size;
    uint32_t victim;
    uint8_t ghost;
    if (t1 > 0 && (t1 > p || (in_b2 && t1 == p))) {
      victim = lists[kT1].tail;
      ghost = kB1;
    } else if (lists[kT2].size > 0) {
      victim = lists[kT2].tail;
      ghost = kB2;
    } else {
      return;
    }
    EraseRow(victim, table);
    MoveToMru(victim, ghost);
    ++evicted;
  }

  void DropLru(uint8_t list) {
    if (lists[list].tail != kNone) Forget(lists[list].tail);
  }

  // Record an in-flight miss. At `bound` entries the oldest is dropped: an
  // unresponsive downstream cannot grow this without limit.
  void AddPending(uint64_t rpc_id, uint64_t cache_key, size_t bound) {
    uint32_t s = pending.Find(rpc_id);
    if (s != kNone) {
      in_flight.Unlink(pending, s);
    } else {
      if (in_flight.size >= bound) RemovePending(in_flight.tail);
      s = pending.Add(rpc_id);
    }
    pending[s].cache_key = cache_key;
    in_flight.PushHead(pending, s);
  }

  void RemovePending(uint32_t s) {
    in_flight.Unlink(pending, s);
    pending.Remove(s);
  }
};

ElementInstance::ElementInstance(std::shared_ptr<const ElementIr> code,
                                 uint64_t seed)
    : code_(std::move(code)), rng_(seed), nonce_counter_(seed) {
  tables_.reserve(code_->state_tables.size());
  for (const auto& [name, schema] : code_->state_tables) {
    tables_.emplace_back(name, schema);
  }
  ResolveObsInstruments();
}

ElementInstance::~ElementInstance() = default;

void ElementInstance::ResolveObsInstruments() {
  obs_name_id_ = obs::InternName(code_->name);
  obs_hist_ = &obs::MetricsRegistry::Default().GetHistogram(
      "adn_element_latency_ns", "element=\"" + code_->name + "\"");
}

bool ElementInstance::AppliesTo(rpc::MessageKind kind) const {
  switch (code_->direction) {
    case dsl::Direction::kRequest:
      return kind == rpc::MessageKind::kRequest;
    case dsl::Direction::kResponse:
      return kind == rpc::MessageKind::kResponse;
    case dsl::Direction::kBoth:
      return kind != rpc::MessageKind::kError;
  }
  return false;
}

Table* ElementInstance::FindTable(std::string_view name) {
  for (Table& t : tables_) {
    if (t.name() == name) return &t;
  }
  return nullptr;
}

const Table* ElementInstance::FindTable(std::string_view name) const {
  for (const Table& t : tables_) {
    if (t.name() == name) return &t;
  }
  return nullptr;
}

ProcessResult ElementInstance::Process(Message& m, int64_t now_ns) {
  ++processed_;
  // Same instrumentation boundary as a compiled element segment
  // (ChainExecutor), so either tier yields the same span tree and feeds the
  // same adn_element_latency_ns series.
  const bool timing = obs::Enabled();
  obs::TraceContext* trace = timing ? obs::CurrentTrace() : nullptr;
  const int64_t seg_start = timing ? obs::NowNs() : 0;
  size_t span = 0;
  if (trace != nullptr) span = trace->OpenSpan(obs_name_id_);
  auto finish = [&] {
    if (timing) {
      obs_hist_->Observe(static_cast<double>(obs::NowNs() - seg_start));
    }
    if (trace != nullptr) trace->CloseSpan(span);
  };
  if (code_->IsCache()) {
    ProcessResult r = RunCache(m, now_ns);
    if (r.outcome != ProcessOutcome::kPass &&
        r.outcome != ProcessOutcome::kReply) {
      ++dropped_;
    }
    finish();
    return r;
  }
  EvalContext ctx;
  ctx.message = &m;
  ctx.fn_ctx.message = &m;
  ctx.fn_ctx.rng = &rng_;
  ctx.fn_ctx.now_ns = now_ns;
  ctx.fn_ctx.nonce = ++nonce_counter_;
  for (const StmtIr& stmt : code_->statements) {
    ProcessResult r = RunStatement(stmt, m, ctx);
    if (r.outcome != ProcessOutcome::kPass) {
      // kReply is a short-circuit success (the message became the response),
      // not a drop; only true drops count.
      if (r.outcome != ProcessOutcome::kReply) ++dropped_;
      finish();
      return r;
    }
  }
  finish();
  return ProcessResult::Pass();
}

namespace {

ProcessResult DropFor(const SelectIr& sel) {
  ProcessResult r;
  r.outcome = sel.on_drop == dsl::DropBehavior::kAbort
                  ? ProcessOutcome::kDropAbort
                  : ProcessOutcome::kDropSilent;
  r.abort_message = sel.abort_message;
  return r;
}

ProcessResult AbortWith(std::string message) {
  ProcessResult r;
  r.outcome = ProcessOutcome::kDropAbort;
  r.abort_message = std::move(message);
  return r;
}

}  // namespace

ProcessResult ElementInstance::RunStatement(const StmtIr& stmt, Message& m,
                                            EvalContext& ctx) {
  switch (stmt.kind) {
    case StmtIr::Kind::kSelect: {
      const SelectIr& sel = *stmt.select;
      ctx.joined_row = {};
      // 1. Join: find the matching state row (or drop).
      if (sel.join.has_value()) {
        Table* table = FindTable(sel.join->table);
        if (table == nullptr) {
          return AbortWith("internal: missing state table " +
                           sel.join->table);
        }
        const Value* match = nullptr;
        if (sel.join->key_is_primary &&
            sel.join->probe.kind == ExprNode::Kind::kInputField) {
          // Fast path: a bare-field probe against a single-column primary
          // key needs no Value copies and no temporary rows.
          match =
              table->LookupSingleKey(m.GetFieldOrNull(sel.join->probe.field));
        } else {
          auto probe = EvaluateExpr(sel.join->probe, ctx);
          if (!probe.ok()) return AbortWith(probe.error().ToString());
          if (sel.join->key_is_primary) {
            match = table->LookupSingleKey(probe.value());
          } else {
            size_t col = sel.join->table_key_col;
            const Value& key = probe.value();
            match = table->FindFirst([&](rpc::RowRef row) {
              return row[col].EqualsValue(key);
            });
          }
        }
        if (match == nullptr) return DropFor(sel);
        ctx.joined_row = rpc::RowRef(match, table->schema().size());
      }
      // 2. WHERE.
      if (sel.where.has_value()) {
        auto pass = EvaluatePredicate(*sel.where, ctx);
        if (!pass.ok()) return AbortWith(pass.error().ToString());
        if (!pass.value()) return DropFor(sel);
      }
      // 3. Projection. Evaluate outputs against the *input* tuple before
      // mutating anything (SQL snapshot semantics).
      std::vector<std::pair<std::string, Value>> computed;
      computed.reserve(sel.outputs.size());
      for (const auto& out : sel.outputs) {
        if (out.identity) continue;  // plain pass-through of same-named field
        auto v = EvaluateExpr(out.expr, ctx);
        if (!v.ok()) return AbortWith(v.error().ToString());
        computed.emplace_back(out.name, std::move(v).value());
      }
      if (!sel.passthrough) {
        // Strict projection: keep only the listed output fields.
        std::vector<rpc::FieldId> keep;
        keep.reserve(sel.outputs.size());
        for (const auto& out : sel.outputs) {
          keep.push_back(rpc::InternFieldName(out.name));
        }
        m.ProjectFields(keep);
      }
      for (auto& [name, value] : computed) {
        m.SetField(name, std::move(value));
      }
      // Routing: honor __destination if the element set it.
      if (const Value* dest = m.FindField(kDestinationField);
          dest != nullptr && dest->type() == rpc::ValueType::kInt) {
        m.set_destination(static_cast<rpc::EndpointId>(dest->AsInt()));
      }
      ctx.joined_row = {};
      return ProcessResult::Pass();
    }

    case StmtIr::Kind::kInsert: {
      const InsertIr& ins = *stmt.insert;
      Table* table = FindTable(ins.table);
      if (table == nullptr) {
        return AbortWith("internal: missing state table " + ins.table);
      }
      Row row;
      row.reserve(ins.values.size());
      for (const ExprNode& e : ins.values) {
        auto v = EvaluateExpr(e, ctx);
        if (!v.ok()) return AbortWith(v.error().ToString());
        row.push_back(std::move(v).value());
      }
      if (Status s = table->Insert(std::move(row)); !s.ok()) {
        return AbortWith(s.ToString());
      }
      return ProcessResult::Pass();
    }

    case StmtIr::Kind::kUpdate: {
      const UpdateIr& upd = *stmt.update;
      Table* table = FindTable(upd.table);
      if (table == nullptr) {
        return AbortWith("internal: missing state table " + upd.table);
      }
      // Point update (WHERE pk = message expr): one index lookup, no scan.
      if (const ExprNode* key_expr = PointUpdateKeyExpr(upd, table->schema());
          key_expr != nullptr) {
        ctx.joined_row = {};
        auto key = EvaluateExpr(*key_expr, ctx);
        if (!key.ok()) return AbortWith(key.error().ToString());
        if (key.value().is_null()) return ProcessResult::Pass();
        const Value* hit = table->LookupSingleKey(key.value());
        if (hit == nullptr) return ProcessResult::Pass();
        const rpc::RowRef row(hit, table->schema().size());
        Row next = row;
        ctx.joined_row = row;
        for (const auto& [col, expr] : upd.assignments) {
          auto v = EvaluateExpr(expr, ctx);
          if (!v.ok()) {
            ctx.joined_row = {};
            return AbortWith(v.error().ToString());
          }
          next[col] = std::move(v).value();
        }
        ctx.joined_row = {};
        if (Status s = table->Insert(std::move(next)); !s.ok()) {
          return AbortWith(s.ToString());
        }
        return ProcessResult::Pass();
      }
      // Two-phase: collect new rows, then re-insert (upsert keeps PK index
      // coherent). Collect first to avoid iterator invalidation.
      std::vector<Row> updated;
      for (const rpc::RowRef row : table->rows()) {
        ctx.joined_row = row;
        bool hit = true;
        if (upd.where.has_value()) {
          auto pass = EvaluatePredicate(*upd.where, ctx);
          if (!pass.ok()) {
            ctx.joined_row = {};
            return AbortWith(pass.error().ToString());
          }
          hit = pass.value();
        }
        if (!hit) continue;
        Row next = row;
        for (const auto& [col, expr] : upd.assignments) {
          auto v = EvaluateExpr(expr, ctx);
          if (!v.ok()) {
            ctx.joined_row = {};
            return AbortWith(v.error().ToString());
          }
          next[col] = std::move(v).value();
        }
        updated.push_back(std::move(next));
      }
      ctx.joined_row = {};
      for (Row& row : updated) {
        if (Status s = table->Insert(std::move(row)); !s.ok()) {
          return AbortWith(s.ToString());
        }
      }
      return ProcessResult::Pass();
    }

    case StmtIr::Kind::kDelete: {
      const DeleteIr& d = *stmt.del;
      Table* table = FindTable(d.table);
      if (table == nullptr) {
        return AbortWith("internal: missing state table " + d.table);
      }
      if (!d.where.has_value()) {
        table->Clear();
        return ProcessResult::Pass();
      }
      // Evaluate predicates up front (EraseWhere's callback cannot
      // propagate errors).
      std::vector<char> doomed(table->RowCount(), 0);
      size_t i = 0;
      for (const rpc::RowRef row : table->rows()) {
        ctx.joined_row = row;
        auto pass = EvaluatePredicate(*d.where, ctx);
        if (!pass.ok()) {
          ctx.joined_row = {};
          return AbortWith(pass.error().ToString());
        }
        doomed[i++] = pass.value() ? 1 : 0;
      }
      ctx.joined_row = {};
      size_t idx = 0;
      table->EraseWhere([&](rpc::RowRef) { return doomed[idx++] != 0; });
      return ProcessResult::Pass();
    }
  }
  return AbortWith("internal: unhandled statement kind");
}

void ElementInstance::InvalidateCacheRuntime() {
  if (cache_rt_ != nullptr) cache_rt_->built = false;
}

ElementInstance::CacheRuntime& ElementInstance::EnsureCacheRuntime() {
  if (cache_rt_ == nullptr) cache_rt_ = std::make_unique<CacheRuntime>();
  CacheRuntime& rt = *cache_rt_;
  if (!rt.built) {
    rt.Reset(code_->cache_op->capacity);
    rt.key_fids.clear();
    for (const std::string& f : code_->cache_op->key_fields) {
      rt.key_fids.push_back(rpc::InternFieldName(f));
    }
    // Rebuild residency from the rows. Recency order did not survive the
    // migration (it is not state), so every key starts on T1; the adaptive
    // policy re-learns frequency from the traffic. Crucially this reads the
    // table without modifying it, keeping StateContentHash invariant across
    // snapshot/restore/split/merge.
    if (const Table* table = FindTable(code_->cache_op->table);
        table != nullptr) {
      for (const rpc::RowRef row : table->rows()) {
        if (row[0].type() != rpc::ValueType::kInt) continue;
        rt.PushMru(CacheRuntime::kT1, static_cast<uint64_t>(row[0].AsInt()),
                   Table::kNoRowId);
      }
    }
    rt.built = true;
  }
  return rt;
}

uint64_t ElementInstance::cache_hits() const {
  return cache_rt_ != nullptr ? cache_rt_->hits : 0;
}
uint64_t ElementInstance::cache_misses() const {
  return cache_rt_ != nullptr ? cache_rt_->misses : 0;
}
uint64_t ElementInstance::cache_fills() const {
  return cache_rt_ != nullptr ? cache_rt_->fills : 0;
}
uint64_t ElementInstance::cache_expired() const {
  return cache_rt_ != nullptr ? cache_rt_->expired : 0;
}
uint64_t ElementInstance::cache_evicted() const {
  return cache_rt_ != nullptr ? cache_rt_->evicted : 0;
}

ProcessResult ElementInstance::RunCache(Message& m, int64_t now_ns) {
  const CacheIr& cfg = *code_->cache_op;
  CacheRuntime& rt = EnsureCacheRuntime();
  Table* table = FindTable(cfg.table);
  if (table == nullptr) {
    return AbortWith("internal: missing cache table " + cfg.table);
  }

  // Cache key: method name mixed with the interned key fields' values.
  // GetFieldOrNull gives absent fields SQL NULL semantics, so requests
  // missing a key field still key consistently.
  uint64_t key = Fnv1a64(m.method());
  for (rpc::FieldId fid : rt.key_fids) {
    key = (key ^ rpc::HashValue(m.GetFieldOrNull(fid))) * 0x100000001B3ULL;
  }

  if (m.kind() == rpc::MessageKind::kRequest) {
    const uint32_t e = rt.entries.Find(key);
    if (e != kNone && rt.Resident(e)) {
      const Value* row = rt.RowOf(e, *table);
      bool stale = row == nullptr;
      if (!stale && cfg.ttl_ns > 0 &&
          now_ns - row[2].AsInt() >= cfg.ttl_ns) {
        ++rt.expired;
        stale = true;
      }
      if (!stale) {
        BytesView blob = row[1].AsBytes();
        Status decoded = rpc::DecodeFieldsFlatInto(
            std::span<const uint8_t>(blob.data(), blob.size()), m);
        if (decoded.ok()) {
          // The request is now the response: flip the kind, bump the entry
          // to the frequency list, stop the chain. Zero heap allocations on
          // arena-backed messages — the decode binds arena slices.
          m.set_kind(rpc::MessageKind::kResponse);
          rt.MoveToMru(e, CacheRuntime::kT2);
          ++rt.hits;
          ProcessResult r;
          r.outcome = ProcessOutcome::kReply;
          return r;
        }
        stale = true;  // unreadable blob: drop the entry, treat as miss
      }
      // Expired or unreadable: remove row + residency (no ghost — the entry
      // did not lose a capacity contest, it timed out).
      rt.EraseRow(e, *table);
      rt.Forget(e);
    }
    ++rt.misses;
    rt.AddPending(m.id(), key, cfg.capacity * 4 + 64);
    return ProcessResult::Pass();
  }

  // Response path: fill the pending entry for this rpc id, if any.
  const uint32_t pending = rt.pending.Find(m.id());
  if (pending == kNone) return ProcessResult::Pass();
  const uint64_t fill_key = rt.pending[pending].cache_key;
  rt.RemovePending(pending);

  // Encode the response straight into the new row's blob. The row holds
  // the last evicted row's cells when there is one, so the blob's buffer is
  // reused; the swap hands `spare` the fill row's buffer for the next
  // eviction to land in, and InsertFrom moves the cells out of `row`.
  std::swap(rt.fill, rt.spare);
  Row& row = rt.fill;
  if (row.size() != 3 || row[1].type() != rpc::ValueType::kBytes ||
      row[1].is_borrowed()) {
    row.resize(3);
    row[1] = Value(Bytes());
  }
  row[0] = Value(static_cast<int64_t>(fill_key));
  row[1].MutableBytes().clear();
  row[2] = Value(now_ns);
  if (!rpc::EncodeFieldsFlat(m, row[1].MutableBytes()).ok()) {
    return ProcessResult::Pass();
  }

  const size_t c = cfg.capacity;
  const uint32_t e = rt.entries.Find(fill_key);
  if (e != kNone && rt.Resident(e)) {
    // A concurrent request already filled it; refresh the row in place.
    (void)table->InsertFrom(row);
    rt.MoveToMru(e, CacheRuntime::kT2);
    ++rt.fills;
    return ProcessResult::Pass();
  }
  const size_t t1 = rt.lists[CacheRuntime::kT1].size;
  const size_t b1 = rt.lists[CacheRuntime::kB1].size;
  const size_t t2 = rt.lists[CacheRuntime::kT2].size;
  const size_t b2 = rt.lists[CacheRuntime::kB2].size;
  uint8_t admit_to = CacheRuntime::kT1;
  if (e != kNone && rt.entries[e].list == CacheRuntime::kB1) {
    // Recency ghost hit: T1 was too small — grow its target.
    const size_t delta = std::max<size_t>(1, b2 / b1);
    rt.p = std::min(c, rt.p + delta);
    rt.Replace(*table, /*in_b2=*/false);
    rt.Forget(e);
    admit_to = CacheRuntime::kT2;
  } else if (e != kNone) {
    // Frequency ghost hit (B2): shrink T1's target.
    const size_t delta = std::max<size_t>(1, b1 / b2);
    rt.p = rt.p > delta ? rt.p - delta : 0;
    rt.Replace(*table, /*in_b2=*/true);
    rt.Forget(e);
    admit_to = CacheRuntime::kT2;
  } else if (t1 + b1 >= c) {
    // Brand-new key, L1 full. A TTL expiry frees a resident row without
    // leaving a ghost, so the directory can be full while the cache is
    // not: REPLACE only when the resident lists are at capacity, or the
    // hole would never refill.
    if (t1 < c) {
      rt.DropLru(CacheRuntime::kB1);
      if (t1 + t2 >= c) rt.Replace(*table, /*in_b2=*/false);
    } else {
      // T1 itself is full: evict its LRU row outright.
      const uint32_t victim = rt.lists[CacheRuntime::kT1].tail;
      rt.EraseRow(victim, *table);
      rt.Forget(victim);
      ++rt.evicted;
    }
  } else if (t1 + b1 + t2 + b2 >= c) {
    if (t1 + b1 + t2 + b2 >= 2 * c) rt.DropLru(CacheRuntime::kB2);
    if (t1 + t2 >= c) rt.Replace(*table, /*in_b2=*/false);
  }
  (void)table->InsertFrom(row);
  rt.PushMru(admit_to, fill_key,
             table->FindSingleKey(Value(static_cast<int64_t>(fill_key))));
  ++rt.fills;
  return ProcessResult::Pass();
}

Bytes ElementInstance::SnapshotState() const {
  Bytes out;
  ByteWriter w(out);
  w.WriteVarint(tables_.size());
  for (const Table& t : tables_) {
    Bytes snap = t.Snapshot();
    w.WriteLengthPrefixed(snap);
  }
  return out;
}

Status ElementInstance::DecodeState(
    std::span<const uint8_t> snapshot,
    std::vector<std::vector<rpc::Value>>& cells) const {
  ByteReader r(snapshot);
  ADN_ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  if (count != tables_.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "snapshot has " + std::to_string(count) +
                      " tables, element " + name() + " expects " +
                      std::to_string(tables_.size()));
  }
  cells.resize(tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    ADN_ASSIGN_OR_RETURN(auto blob, r.ReadLengthPrefixed());
    ADN_RETURN_IF_ERROR(tables_[i].DecodeSnapshot(blob, cells[i]));
  }
  if (r.remaining() != 0) {
    return Status(ErrorCode::kParseError,
                  "trailing bytes after the state of " + name());
  }
  return Status::Ok();
}

Status ElementInstance::RestoreState(std::span<const uint8_t> snapshot) {
  std::vector<std::vector<rpc::Value>> cells;
  ADN_RETURN_IF_ERROR(DecodeState(snapshot, cells));
  for (size_t i = 0; i < tables_.size(); ++i) {
    tables_[i].Clear();
    tables_[i].InsertDecoded(cells[i]);
  }
  InvalidateCacheRuntime();
  return Status::Ok();
}

Result<std::vector<Bytes>> ElementInstance::SplitState(size_t n) const {
  // Shard each table, then assemble per-shard snapshots.
  std::vector<std::vector<Bytes>> per_table_shards;
  per_table_shards.reserve(tables_.size());
  for (const Table& t : tables_) {
    ADN_ASSIGN_OR_RETURN(std::vector<Bytes> shards, t.SnapshotShards(n));
    per_table_shards.push_back(std::move(shards));
  }
  std::vector<Bytes> out(n);
  for (size_t shard = 0; shard < n; ++shard) {
    ByteWriter w(out[shard]);
    w.WriteVarint(tables_.size());
    for (const std::vector<Bytes>& shards : per_table_shards) {
      w.WriteLengthPrefixed(shards[shard]);
    }
  }
  return out;
}

Status ElementInstance::MergeState(std::span<const uint8_t> snapshot) {
  std::vector<std::vector<rpc::Value>> cells;
  ADN_RETURN_IF_ERROR(DecodeState(snapshot, cells));
  for (size_t i = 0; i < tables_.size(); ++i) {
    tables_[i].InsertDecoded(cells[i]);
  }
  InvalidateCacheRuntime();
  return Status::Ok();
}

std::vector<rpc::TableShard> ElementInstance::TakeKeySlot(size_t k) {
  std::vector<rpc::TableShard> shards;
  shards.reserve(tables_.size());
  for (Table& t : tables_) shards.push_back(t.TakeKeySlot(k));
  InvalidateCacheRuntime();
  return shards;
}

void ElementInstance::AdoptKeySlot(size_t k,
                                   std::vector<rpc::TableShard> shards) {
  for (size_t i = 0; i < tables_.size() && i < shards.size(); ++i) {
    tables_[i].AdoptKeySlot(k, std::move(shards[i]));
  }
  InvalidateCacheRuntime();
}

Status ElementInstance::ReplaceCode(std::shared_ptr<const ElementIr> new_code) {
  ADN_RETURN_IF_ERROR(CheckStateCompatible(*code_, *new_code));
  code_ = std::move(new_code);
  ResolveObsInstruments();
  InvalidateCacheRuntime();
  return Status::Ok();
}

uint64_t ElementInstance::StateContentHash() const {
  // Plain XOR over table hashes: decomposable across shards, so that the
  // XOR of the shard instances' hashes equals the source instance's hash
  // when (and only when) the rows partition exactly.
  uint64_t h = 0;
  for (const Table& t : tables_) h ^= t.ContentHash();
  return h;
}

}  // namespace adn::ir
