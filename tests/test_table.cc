// Unit + property tests for the relational element state (rpc::Table):
// upsert semantics, key lookup, snapshot/restore, split/merge invariants,
// and the flat key index checked op by op against a std::map oracle.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/exec.h"
#include "mrpc/engine_pool.h"
#include "rpc/table.h"

namespace adn::rpc {
namespace {

Schema AclSchema() {
  Schema s;
  (void)s.AddColumn({"username", ValueType::kText, true});
  (void)s.AddColumn({"permission", ValueType::kText, false});
  return s;
}

Schema LogSchema() {  // no primary key
  Schema s;
  (void)s.AddColumn({"rpc", ValueType::kInt, false});
  (void)s.AddColumn({"bytes", ValueType::kInt, false});
  return s;
}

TEST(Table, InsertAndLookup) {
  Table t("ac", AclSchema());
  ASSERT_TRUE(t.Insert({Value("alice"), Value("W")}).ok());
  ASSERT_TRUE(t.Insert({Value("bob"), Value("R")}).ok());
  EXPECT_EQ(t.RowCount(), 2u);
  const Value* row = t.LookupByKey(Row{Value("alice")});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row[1].AsText(), "W");
  EXPECT_EQ(t.LookupByKey(Row{Value("nobody")}), nullptr);
}

TEST(Table, PrimaryKeyUpsertReplaces) {
  Table t("ac", AclSchema());
  ASSERT_TRUE(t.Insert({Value("alice"), Value("R")}).ok());
  ASSERT_TRUE(t.Insert({Value("alice"), Value("W")}).ok());
  EXPECT_EQ(t.RowCount(), 1u);
  EXPECT_EQ(t.LookupByKey(Row{Value("alice")})[1].AsText(), "W");
}

TEST(Table, NoPrimaryKeyAppends) {
  Table t("log", LogSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(t.Insert({Value(1), Value(10)}).ok());  // duplicate row fine
  EXPECT_EQ(t.RowCount(), 2u);
}

TEST(Table, ArityAndTypeChecked) {
  Table t("ac", AclSchema());
  EXPECT_FALSE(t.Insert({Value("alice")}).ok());                    // arity
  EXPECT_FALSE(t.Insert({Value(1), Value("W")}).ok());              // type
  EXPECT_TRUE(t.Insert({Value("x"), Value::Null()}).ok());          // NULL ok
}

TEST(Table, EraseWhereReindexes) {
  Table t("ac", AclSchema());
  for (const char* u : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(t.Insert({Value(std::string(u)), Value("W")}).ok());
  }
  size_t erased =
      t.EraseWhere([](RowRef r) { return r[0].AsText() < "c"; });
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(t.RowCount(), 2u);
  // Index still coherent after compaction.
  EXPECT_NE(t.LookupByKey(Row{Value("c")}), nullptr);
  EXPECT_EQ(t.LookupByKey(Row{Value("a")}), nullptr);
}

TEST(Table, FindFirst) {
  Table t("log", LogSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(t.Insert({Value(2), Value(20)}).ok());
  const Value* row = t.FindFirst([](RowRef r) { return r[1].AsInt() > 15; });
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row[0].AsInt(), 2);
  EXPECT_EQ(t.FindFirst([](RowRef) { return false; }), nullptr);
}

TEST(Table, SnapshotRestoreRoundTrip) {
  Table t("ac", AclSchema());
  ASSERT_TRUE(t.Insert({Value("alice"), Value("W")}).ok());
  ASSERT_TRUE(t.Insert({Value("bob"), Value::Null()}).ok());
  Bytes snap = t.Snapshot();
  auto restored = Table::Restore(snap);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  EXPECT_EQ(restored->name(), "ac");
  EXPECT_EQ(restored->RowCount(), 2u);
  EXPECT_EQ(restored->ContentHash(), t.ContentHash());
  // Restored tables keep working (index rebuilt).
  EXPECT_NE(restored->LookupByKey(Row{Value("alice")}), nullptr);
}

TEST(Table, RestoreRejectsGarbage) {
  Bytes garbage = {0xFF, 0x00, 0x13};
  EXPECT_FALSE(Table::Restore(garbage).ok());
}

// Merge `from`'s rows into `into` the way a scale-in merge does:
// through a snapshot, decoded and checked whole, then inserted.
Status Merge(Table& into, const Table& from) {
  std::vector<Value> cells;
  ADN_RETURN_IF_ERROR(into.DecodeSnapshot(from.Snapshot(), cells));
  into.InsertDecoded(cells);
  return Status::Ok();
}

TEST(Table, MergeRequiresSameSchema) {
  Table a("ac", AclSchema());
  Table b("log", LogSchema());
  ASSERT_TRUE(b.Insert({Value(1), Value(2)}).ok());
  EXPECT_FALSE(Merge(a, b).ok());
  EXPECT_TRUE(a.empty());
}

TEST(Table, MergeUpsertsOnKey) {
  Table a("ac", AclSchema());
  Table b("ac", AclSchema());
  ASSERT_TRUE(a.Insert({Value("alice"), Value("R")}).ok());
  ASSERT_TRUE(b.Insert({Value("alice"), Value("W")}).ok());
  ASSERT_TRUE(b.Insert({Value("bob"), Value("R")}).ok());
  ASSERT_TRUE(Merge(a, b).ok());
  EXPECT_EQ(a.RowCount(), 2u);
  EXPECT_EQ(a.LookupByKey(Row{Value("alice")})[1].AsText(), "W");
}

// SnapshotShards(n), each shard restored into a table.
std::vector<Table> Shards(const Table& t, size_t n) {
  std::vector<Table> out;
  auto blobs = t.SnapshotShards(n);
  EXPECT_TRUE(blobs.ok());
  if (!blobs.ok()) return out;
  for (const Bytes& blob : *blobs) {
    auto shard = Table::Restore(blob);
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    out.push_back(shard.ok() ? std::move(shard).value() : Table());
  }
  return out;
}

// Property: splitting into k shards and merging back preserves the exact
// content (hash-equal), for many table sizes and shard counts.
class SplitMergeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitMergeProperty, RoundTripsContent) {
  auto [rows, shards] = GetParam();
  Table t("ac", AclSchema());
  Rng rng(static_cast<uint64_t>(rows * 31 + shards));
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(t.Insert({Value("user" + std::to_string(i)),
                          Value(rng.NextBool(0.5) ? "W" : "R")})
                    .ok());
  }
  const std::vector<Table> split = Shards(t, static_cast<size_t>(shards));
  ASSERT_EQ(split.size(), static_cast<size_t>(shards));

  // Shards partition the rows.
  size_t total = 0;
  uint64_t xor_hash = 0;
  for (const Table& shard : split) {
    total += shard.RowCount();
    xor_hash ^= shard.ContentHash();
  }
  EXPECT_EQ(total, t.RowCount());
  EXPECT_EQ(xor_hash, t.ContentHash());

  // Merging back equals the original.
  Table merged("ac", AclSchema());
  for (const Table& shard : split) {
    ASSERT_TRUE(Merge(merged, shard).ok());
  }
  EXPECT_EQ(merged.ContentHash(), t.ContentHash());
  EXPECT_EQ(merged.RowCount(), t.RowCount());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SplitMergeProperty,
    ::testing::Combine(::testing::Values(0, 1, 7, 64, 513),
                       ::testing::Values(1, 2, 3, 5, 8)));

TEST(Table, SplitIntoZeroShardsRejected) {
  Table t("ac", AclSchema());
  EXPECT_FALSE(t.SnapshotShards(0).ok());
}

TEST(Table, SplitIsDisjointByKey) {
  Table t("ac", AclSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.Insert({Value("u" + std::to_string(i)), Value("W")}).ok());
  }
  const std::vector<Table> split = Shards(t, 4);
  ASSERT_EQ(split.size(), 4u);
  // Any given key appears in exactly one shard.
  for (int i = 0; i < 100; ++i) {
    int hits = 0;
    for (const Table& shard : split) {
      hits +=
          shard.LookupByKey(Row{Value("u" + std::to_string(i))}) != nullptr;
    }
    EXPECT_EQ(hits, 1) << "key u" << i;
  }
}

TEST(Table, ContentHashIsOrderInsensitive) {
  Table a("log", LogSchema());
  Table b("log", LogSchema());
  ASSERT_TRUE(a.Insert({Value(1), Value(10)}).ok());
  ASSERT_TRUE(a.Insert({Value(2), Value(20)}).ok());
  ASSERT_TRUE(b.Insert({Value(2), Value(20)}).ok());
  ASSERT_TRUE(b.Insert({Value(1), Value(10)}).ok());
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
}

// --- Key-slot slices (live migration; docs/RECONFIG.md) --------------------

TEST(Table, KeyIntrospection) {
  Table keyed("ac", AclSchema());
  ASSERT_TRUE(keyed.Insert({Value("alice"), Value("W")}).ok());
  EXPECT_TRUE(keyed.HasPrimaryKey());
  EXPECT_EQ(keyed.RowKeyHash(keyed.rows()[0]), HashSingleKey(Value("alice")));
  const Row key = keyed.KeyOf(keyed.rows()[0]);
  ASSERT_EQ(key.size(), 1u);
  EXPECT_EQ(key[0].AsText(), "alice");

  Table log("log", LogSchema());
  ASSERT_TRUE(log.Insert({Value(1), Value(10)}).ok());
  EXPECT_FALSE(log.HasPrimaryKey());
  EXPECT_TRUE(log.KeyOf(log.rows()[0]).empty());
}

TEST(Table, EraseByKeyRemovesExactlyThatRow) {
  Table t("ac", AclSchema());
  for (const char* u : {"a", "b", "c"}) {
    ASSERT_TRUE(t.Insert({Value(u), Value("W")}).ok());
  }
  EXPECT_EQ(t.EraseByKey(Row{Value("b")}), 1u);
  EXPECT_EQ(t.EraseByKey(Row{Value("b")}), 0u);  // already gone
  EXPECT_EQ(t.RowCount(), 2u);
  EXPECT_NE(t.LookupSingleKey(Value("a")), nullptr);
  EXPECT_EQ(t.LookupSingleKey(Value("b")), nullptr);
  EXPECT_NE(t.LookupSingleKey(Value("c")), nullptr);

  Table log("log", LogSchema());
  ASSERT_TRUE(log.Insert({Value(1), Value(10)}).ok());
  EXPECT_EQ(log.EraseByKey(Row{Value(1)}), 0u);  // keyless: never matches
}

// The first `n` keys "k<i>" whose key slot is `slot`.
std::vector<std::string> KeysInSlot(size_t slot, size_t n) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < n; ++i) {
    std::string key = "k" + std::to_string(i);
    if (HashSingleKey(Value(key)) % kKeySlots == slot) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

TEST(Table, EraseSingleKeyHandsBackTheRowAndKeepsTheIndex) {
  // Three keys of one key slot, so they share one shard.
  const std::vector<std::string> keys = KeysInSlot(5, 3);
  const std::string& a = keys[0];
  const std::string& b = keys[1];
  const std::string& c = keys[2];
  Table t("ac", AclSchema());
  for (const std::string& u : keys) {
    ASSERT_TRUE(t.Insert({Value(u), Value(u + "-perm")}).ok());
  }
  Row erased;
  EXPECT_EQ(t.EraseSingleKey(Value(a), erased), 1u);
  ASSERT_EQ(erased.size(), 2u);
  EXPECT_EQ(erased[1].AsText(), a + "-perm") << "the row moves out whole";
  EXPECT_EQ(t.EraseSingleKey(Value(a), erased), 0u);
  // The slot's last row filled the hole and is still found through the
  // index.
  EXPECT_EQ(t.rows()[0][0].AsText(), c);
  ASSERT_NE(t.LookupSingleKey(Value(c)), nullptr);
  EXPECT_EQ(t.LookupSingleKey(Value(c))[1].AsText(), c + "-perm");
  EXPECT_EQ(t.LookupSingleKey(Value(b))[1].AsText(), b + "-perm");
}

// Key slot `k` of `t`, taken out and adopted by a fresh table.
Table TakeSlot(Table& t, size_t k) {
  Table piece(t.name(), t.schema());
  piece.AdoptKeySlot(k, t.TakeKeySlot(k));
  return piece;
}

TEST(Table, TakeKeySlotPartitionsTheTable) {
  Table t("ac", AclSchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        t.Insert({Value("user" + std::to_string(i)), Value("W")}).ok());
  }
  const uint64_t original = t.ContentHash();
  Table copy = t;
  size_t taken = 0;
  uint64_t xored = 0;
  for (size_t k = 0; k < kKeySlots; ++k) {
    const size_t before = copy.RowCount();
    const Table piece = TakeSlot(copy, k);
    for (const RowRef row : piece.rows()) {
      EXPECT_EQ(t.RowKeyHash(row) % kKeySlots, k);
    }
    EXPECT_EQ(copy.RowCount(), before - piece.RowCount());
    EXPECT_EQ(TakeSlot(copy, k).RowCount(), 0u) << "the slot is left empty";
    taken += piece.RowCount();
    xored ^= piece.ContentHash();
  }
  EXPECT_EQ(taken, 200u);
  EXPECT_EQ(xored, original);  // slots partition the content hash
  EXPECT_TRUE(copy.empty());
  EXPECT_TRUE(copy.rows().empty());

  // A slot past kKeySlots, and every slot of a keyless table, hands out
  // nothing: append-log rows never move with a slot.
  EXPECT_TRUE(t.TakeKeySlot(kKeySlots).empty());
  EXPECT_EQ(t.RowCount(), 200u);
  Table log("log", LogSchema());
  ASSERT_TRUE(log.Insert({Value(1), Value(10)}).ok());
  for (size_t k = 0; k < kKeySlots; ++k) {
    EXPECT_TRUE(log.TakeKeySlot(k).empty());
  }
  EXPECT_EQ(log.RowCount(), 1u);
}

TEST(Table, TakeAdoptRoundTripHandsTheStorageOver) {
  const size_t k = 9;
  const std::vector<std::string> keys = KeysInSlot(k, 40);
  Table src("ac", AclSchema());
  for (const std::string& u : keys) {
    ASSERT_TRUE(src.Insert({Value(u), Value("R")}).ok());
  }
  ASSERT_TRUE(src.Insert({Value("elsewhere"), Value("W")}).ok());
  ASSERT_NE(HashSingleKey(Value("elsewhere")) % kKeySlots, k);
  const Value* cells = src.LookupSingleKey(Value(keys[7]));
  ASSERT_NE(cells, nullptr);

  Table dst("ac", AclSchema());
  TableShard shard = src.TakeKeySlot(k);
  EXPECT_EQ(shard.RowCount(), keys.size());
  EXPECT_EQ(src.RowCount(), 1u);
  EXPECT_EQ(src.LookupSingleKey(Value(keys[7])), nullptr);
  dst.AdoptKeySlot(k, std::move(shard));
  ASSERT_EQ(dst.RowCount(), keys.size());
  // The slot's cells are the very allocation the source gave up: nothing
  // was copied.
  EXPECT_EQ(dst.LookupSingleKey(Value(keys[7])), cells);
  EXPECT_EQ(dst.RowAt(dst.FindSingleKey(Value(keys[7]))), cells);
  EXPECT_EQ(dst.FindSingleKey(Value("elsewhere")), Table::kNoRowId);
  EXPECT_EQ(dst.RowAt(Table::kNoRowId), nullptr);

  // The adopted shard keeps working: lookups, upserts, point UPDATEs,
  // erases and inserts into the slot.
  for (const std::string& u : keys) {
    const Value* row = dst.LookupSingleKey(Value(u));
    ASSERT_NE(row, nullptr) << u;
    EXPECT_EQ(row[1].AsText(), "R");
  }
  ASSERT_TRUE(dst.Insert({Value(keys[0]), Value("W")}).ok());  // upsert
  EXPECT_EQ(dst.LookupSingleKey(Value(keys[0]))[1].AsText(), "W");
  Value* upd = dst.MutableRow(dst.LookupSingleKey(Value(keys[1])));
  ASSERT_TRUE(dst.CheckCell(1, Value("X")).ok());
  upd[1] = Value("X");  // point UPDATE in place
  EXPECT_EQ(dst.LookupByKey(Row{Value(keys[1])})[1].AsText(), "X");
  EXPECT_EQ(dst.EraseByKey(Row{Value(keys[2])}), 1u);
  Row erased;
  EXPECT_EQ(dst.EraseSingleKey(Value(keys[3]), erased), 1u);
  EXPECT_EQ(erased[0].AsText(), keys[3]);
  const std::vector<std::string> more = KeysInSlot(k, 60);
  for (size_t i = 40; i < more.size(); ++i) {
    ASSERT_TRUE(dst.Insert({Value(more[i]), Value("N")}).ok());
  }
  EXPECT_EQ(dst.RowCount(), keys.size() - 2 + 20);
  EXPECT_EQ(dst.LookupSingleKey(Value(keys[2])), nullptr);
  EXPECT_EQ(dst.LookupSingleKey(Value(keys[3])), nullptr);
  for (size_t i = 40; i < more.size(); ++i) {
    ASSERT_NE(dst.LookupSingleKey(Value(more[i])), nullptr) << more[i];
  }

  // And back: the source's slot is empty, so it takes the shard as is.
  const uint64_t moved = dst.ContentHash();
  const Value* back = dst.LookupSingleKey(Value(keys[5]));
  src.AdoptKeySlot(k, dst.TakeKeySlot(k));
  EXPECT_TRUE(dst.empty());
  EXPECT_EQ(src.LookupSingleKey(Value(keys[5])), back);
  EXPECT_EQ(src.RowCount(), 1 + keys.size() - 2 + 20);
  Table elsewhere("ac", AclSchema());
  ASSERT_TRUE(elsewhere.Insert({Value("elsewhere"), Value("W")}).ok());
  EXPECT_EQ(src.ContentHash(), moved ^ elsewhere.ContentHash());
  EXPECT_EQ(Table::Restore(src.Snapshot())->ContentHash(), src.ContentHash());
}

TEST(Table, AdoptIntoAnOccupiedSlotUpserts) {
  // A table keyed by another field than the route key may already hold
  // rows in the slot: the adopted rows upsert by key, the shard's winning.
  const size_t k = 17;
  const std::vector<std::string> keys = KeysInSlot(k, 6);
  Table src("ac", AclSchema());
  Table dst("ac", AclSchema());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(src.Insert({Value(keys[i]), Value("src")}).ok());
  }
  for (size_t i = 2; i < 6; ++i) {
    ASSERT_TRUE(dst.Insert({Value(keys[i]), Value("dst")}).ok());
  }
  dst.AdoptKeySlot(k, src.TakeKeySlot(k));
  EXPECT_TRUE(src.empty());
  ASSERT_EQ(dst.RowCount(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    const Value* row = dst.LookupSingleKey(Value(keys[i]));
    ASSERT_NE(row, nullptr) << keys[i];
    EXPECT_EQ(row[1].AsText(), i < 4 ? "src" : "dst") << keys[i];
  }
  // An empty shard changes nothing.
  dst.AdoptKeySlot(k, TableShard{});
  EXPECT_EQ(dst.RowCount(), 6u);
}

TEST(Table, KeyDeletedWhileItsSlotWasAwayStaysDeleted) {
  // The slot leaves A for B, a key is deleted at B, the slot comes back:
  // A kept no copy of the slot, so the key cannot reappear.
  const size_t k = 33;
  const std::vector<std::string> keys = KeysInSlot(k, 5);
  Table a("ac", AclSchema());
  for (const std::string& u : keys) {
    ASSERT_TRUE(a.Insert({Value(u), Value("W")}).ok());
  }
  Table b("ac", AclSchema());
  b.AdoptKeySlot(k, a.TakeKeySlot(k));
  ASSERT_EQ(b.EraseByKey(Row{Value(keys[1])}), 1u);
  a.AdoptKeySlot(k, b.TakeKeySlot(k));
  EXPECT_EQ(a.RowCount(), 4u);
  EXPECT_EQ(a.LookupSingleKey(Value(keys[1])), nullptr);
  for (const RowRef row : a.rows()) EXPECT_NE(row[0].AsText(), keys[1]);
  EXPECT_TRUE(b.empty());
}

TEST(Table, SplitAgreesWithSlotRouter) {
  // shard = (key hash % kKeySlots) % n, the EnginePool routing function:
  // every row lands on the shard its messages route to, and each shard is
  // the Snapshot() of the table holding its rows in this table's rows()
  // order.
  Table t("ac", AclSchema());
  Table log("log", LogSchema());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(
        t.Insert({Value("user" + std::to_string(i)), Value("R")}).ok());
    ASSERT_TRUE(log.Insert({Value(i), Value(i * 7)}).ok());
  }
  for (size_t n : {size_t{2}, size_t{3}, size_t{5}}) {
    for (const Table* table : {&t, &log}) {
      auto blobs = table->SnapshotShards(n);
      ASSERT_TRUE(blobs.ok());
      ASSERT_EQ(blobs->size(), n);
      size_t total = 0;
      for (size_t s = 0; s < n; ++s) {
        auto shard = Table::Restore((*blobs)[s]);
        ASSERT_TRUE(shard.ok());
        Table expected(table->name(), table->schema());
        for (const RowRef row : table->rows()) {
          if (table->RowKeyHash(row) % kKeySlots % n == s) {
            ASSERT_TRUE(expected.Insert(row).ok());
          }
        }
        EXPECT_EQ((*blobs)[s], expected.Snapshot()) << "n=" << n;
        if (table->HasPrimaryKey()) {
          for (const RowRef row : shard->rows()) {
            EXPECT_EQ(mrpc::EnginePool::SlotOfKey(row[0]) % n, s)
                << row[0].AsText() << " n=" << n;
          }
        }
        total += shard->RowCount();
      }
      EXPECT_EQ(total, 150u);
    }
  }
}

TEST(Table, ClearEmptiesAndKeepsWorking) {
  Table t("ac", AclSchema());
  ASSERT_TRUE(t.Insert({Value("a"), Value("W")}).ok());
  t.Clear();
  EXPECT_TRUE(t.empty());
  ASSERT_TRUE(t.Insert({Value("b"), Value("R")}).ok());
  EXPECT_NE(t.LookupByKey(Row{Value("b")}), nullptr);
}

TEST(Table, SlotChurnRoundTripsContent) {
  // Slots leaving and coming back (live migration ping-pong), now and then
  // through a table already holding some of the slot's keys, so shards
  // move whole or merge row by row while content, count and every key's
  // lookup must not change.
  Table t("ac", AclSchema());
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(
        t.Insert({Value("user" + std::to_string(i)), Value("W")}).ok());
  }
  const uint64_t original = t.ContentHash();
  Table away("ac", AclSchema());
  for (size_t cycle = 0; cycle < 200; ++cycle) {
    const size_t slot = (cycle * 7) % kKeySlots;
    if (cycle % 5 == 0) {
      // Seed `away` with a key of the slot that `t` also holds.
      const Value* row = t.rows()[cycle * 37 % t.RowCount()].data();
      const size_t k = t.RowKeyHash(RowRef(row, 2)) % kKeySlots;
      ASSERT_TRUE(away.Insert(RowRef(row, 2)).ok());
      away.AdoptKeySlot(k, t.TakeKeySlot(k));
      t.AdoptKeySlot(k, away.TakeKeySlot(k));
    }
    away.AdoptKeySlot(slot, t.TakeKeySlot(slot));
    t.AdoptKeySlot(slot, away.TakeKeySlot(slot));
    ASSERT_TRUE(away.empty()) << "cycle " << cycle;
    ASSERT_EQ(t.RowCount(), 10'000u) << "cycle " << cycle;
  }
  EXPECT_EQ(t.ContentHash(), original);
  for (int i = 0; i < 10'000; ++i) {
    const Value* row = t.LookupSingleKey(Value("user" + std::to_string(i)));
    ASSERT_NE(row, nullptr) << "user" << i;
    EXPECT_EQ(row[0].AsText(), "user" + std::to_string(i));
  }

  // A cleared log refills from row 0.
  Table log("log", LogSchema());
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 50'000; ++i) {
      ASSERT_TRUE(log.Insert({Value(i), Value(round)}).ok());
    }
    ASSERT_EQ(log.RowCount(), 50'000u);
    EXPECT_EQ(log.rows().front()[0].AsInt(), 0);
    EXPECT_EQ(log.rows().back()[1].AsInt(), round);
    log.Clear();
    EXPECT_TRUE(log.rows().empty());
  }
}

// --- Snapshot wire format ----------------------------------------------------

Schema MixedSchema() {  // every cell type, INT key
  Schema s;
  (void)s.AddColumn({"id", ValueType::kInt, true});
  (void)s.AddColumn({"name", ValueType::kText, false});
  (void)s.AddColumn({"blob", ValueType::kBytes, false});
  (void)s.AddColumn({"score", ValueType::kFloat, false});
  (void)s.AddColumn({"ok", ValueType::kBool, false});
  return s;
}

std::string Hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(Table, SnapshotBytesAreStable) {
  // The snapshot wire format (and the row order an upsert and a
  // swap-and-pop erase leave) must not drift with the in-memory layout.
  // Keyed rows are written key slot by key slot, so the keyed golden was
  // re-recorded when tables gained per-slot shards; the encoding itself is
  // unchanged, which the golden from before that still restoring to the
  // same content shows.
  Table t("mixed", MixedSchema());
  ASSERT_TRUE(t.Insert({Value(1), Value("alice"), Value(Bytes{1, 2, 3}),
                        Value(1.5), Value(true)})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(2), Value("a name longer than the SSO buffer"),
                        Value(Bytes{}), Value(-0.25), Value(false)})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(3), Value::Null(), Value(Bytes{0xFF}),
                        Value::Null(), Value::Null()})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(-7), Value(""), Value(Bytes(20, 0xA5)),
                        Value(1e300), Value(true)})
                  .ok());
  ASSERT_TRUE(t.Insert({Value(2), Value("bob"), Value(Bytes{9}), Value(2.0),
                        Value::Null()})
                  .ok());  // upsert in place
  ASSERT_EQ(t.EraseByKey(Row{Value(1)}), 1u);  // the last row fills row 0
  Table log("log", LogSchema());
  ASSERT_TRUE(log.Insert({Value(5), Value(50)}).ok());
  ASSERT_TRUE(log.Insert({Value(-1), Value::Null()}).ok());

  const Bytes keyed = t.Snapshot();
  const Bytes keyless = log.Snapshot();
  EXPECT_EQ(Hex(keyed),
            "056d69786564050269640201046e616d65040004626c6f6205000573636f7265"
            "0300026f6b010003010d01000114a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5"
            "a5a5019c7500883ce4377e01010106000101ff000001040103626f6201010901"
            "000000000000004000");
  EXPECT_EQ(Hex(keyless),
            "036c6f6702037270630200056279746573020002010a0164010100");
  auto restored = Table::Restore(keyed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Snapshot(), keyed);

  // The keyed golden recorded before per-slot shards (rows in append
  // order) still restores, to the same content.
  const std::string before_shards =
      "056d69786564050269640201046e616d65040004626c6f6205000573636f7265"
      "0300026f6b010003010d01000114a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5"
      "a5a5019c7500883ce4377e010101040103626f62010109010000000000000040"
      "000106000101ff0000";
  Bytes old_bytes;
  for (size_t i = 0; i < before_shards.size(); i += 2) {
    old_bytes.push_back(
        static_cast<uint8_t>(std::stoi(before_shards.substr(i, 2), nullptr, 16)));
  }
  auto old_restored = Table::Restore(old_bytes);
  ASSERT_TRUE(old_restored.ok());
  EXPECT_EQ(old_restored->ContentHash(), t.ContentHash());
  EXPECT_EQ(old_restored->Snapshot(), keyed);
}

// One key slot's state blob (a SplitState shard), truncated or with one
// byte flipped, must never crash MergeState or merge part of itself: each table blob is decoded and
// checked whole before any row goes in, so an error leaves the state as it
// was. (A flip inside a cell's payload can still decode; such a blob merges
// whole, like any well-formed one.)
TEST(Table, MalformedBlobMergesNothing) {
  auto parsed = dsl::ParseProgram(std::string(elements::AclTableSql()) +
                                  std::string(elements::QuotaTableSql()) +
                                  std::string(elements::AclSql()) +
                                  std::string(elements::QuotaSql()));
  ASSERT_TRUE(parsed.ok());
  auto lowered = compiler::LowerProgram(*parsed);
  ASSERT_TRUE(lowered.ok());
  auto quota = lowered->FindElement("Quota");
  ir::ElementInstance source(quota, 1);
  Table* rows = source.FindTable("quota");
  ASSERT_NE(rows, nullptr);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(rows->Insert({Value("user" + std::to_string(i)),
                              Value(static_cast<int64_t>(i))})
                    .ok());
  }
  auto split = source.SplitState(kKeySlots);
  ASSERT_TRUE(split.ok());
  const Bytes slice = (*split)[9];
  ir::ElementInstance slot9(quota, 4);
  ASSERT_TRUE(slot9.RestoreState(slice).ok());
  const size_t slot9_rows = slot9.FindTable("quota")->RowCount();
  ASSERT_GT(slot9_rows, 0u);

  ir::ElementInstance dest(quota, 2);
  ASSERT_TRUE(dest.FindTable("quota")
                  ->Insert({Value("resident"), Value(static_cast<int64_t>(7))})
                  .ok());
  const uint64_t before = dest.StateContentHash();
  // Every strict prefix is an error.
  for (size_t n = 0; n < slice.size(); ++n) {
    const Bytes cut(slice.begin(), slice.begin() + static_cast<long>(n));
    ASSERT_FALSE(dest.MergeState(cut).ok()) << "prefix " << n;
    ASSERT_EQ(dest.StateContentHash(), before) << "prefix " << n;
  }
  // So is a byte past the end.
  Bytes longer = slice;
  longer.push_back(0);
  EXPECT_FALSE(dest.MergeState(longer).ok());
  EXPECT_EQ(dest.StateContentHash(), before);
  // Each single-byte flip either fails and changes nothing, or decodes to
  // a well-formed slice and merges whole.
  size_t rejected = 0;
  for (size_t i = 0; i < slice.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      Bytes flipped = slice;
      flipped[i] ^= mask;
      ir::ElementInstance probe(quota, 3);
      ASSERT_TRUE(probe.RestoreState(dest.SnapshotState()).ok());
      if (probe.MergeState(flipped).ok()) continue;
      ++rejected;
      ASSERT_EQ(probe.StateContentHash(), before)
          << "byte " << i << " mask " << static_cast<int>(mask);
      ASSERT_EQ(probe.FindTable("quota")->RowCount(), 1u);
    }
  }
  EXPECT_GT(rejected, slice.size()) << "most flips must be caught";
  // The untouched slice still merges.
  ASSERT_TRUE(dest.MergeState(slice).ok());
  EXPECT_EQ(dest.FindTable("quota")->RowCount(), 1 + slot9_rows);
}

// --- Flat key index vs a std::map oracle ------------------------------------

// The oracle keys rows by their key values rendered to text.
std::string OracleKey(const Row& key) {
  std::string out;
  for (const Value& v : key) out += v.ToDisplayString() + '\x1f';
  return out;
}

// One table shape under test: its schema and generators for keys and rows.
struct OracleShape {
  const char* name;
  Schema schema;
  size_t key_space;
  Row (*key)(uint64_t k);
  Row (*row)(uint64_t k, int64_t v);
};

Schema IdSchema() {  // single-column INT key
  Schema s;
  (void)s.AddColumn({"id", ValueType::kInt, true});
  (void)s.AddColumn({"val", ValueType::kInt, false});
  (void)s.AddColumn({"tag", ValueType::kText, false});
  return s;
}

Schema PairSchema() {  // two-column (TEXT, INT) key
  Schema s;
  (void)s.AddColumn({"user", ValueType::kText, true});
  (void)s.AddColumn({"shard", ValueType::kInt, true});
  (void)s.AddColumn({"val", ValueType::kInt, false});
  return s;
}

Schema BlobSchema() {  // INT key, TEXT and BYTES payload cells
  Schema s;
  (void)s.AddColumn({"id", ValueType::kInt, true});
  (void)s.AddColumn({"name", ValueType::kText, false});
  (void)s.AddColumn({"blob", ValueType::kBytes, false});
  return s;
}

std::vector<OracleShape> OracleShapes() {
  return {
      {"single", IdSchema(), 3000,
       [](uint64_t k) { return Row{Value(static_cast<int64_t>(k))}; },
       [](uint64_t k, int64_t v) {
         return Row{Value(static_cast<int64_t>(k)), Value(v),
                    Value("t" + std::to_string(v % 97))};
       }},
      {"pair", PairSchema(), 3000,
       [](uint64_t k) {
         return Row{Value("u" + std::to_string(k / 60)),
                    Value(static_cast<int64_t>(k % 60))};
       },
       [](uint64_t k, int64_t v) {
         return Row{Value("u" + std::to_string(k / 60)),
                    Value(static_cast<int64_t>(k % 60)), Value(v)};
       }},
      // Payload cells on the heap (TEXT past the small-string buffer, BYTES
      // of 0-40 bytes), so moves, swaps and copies of cells are visible.
      {"blob", BlobSchema(), 3000,
       [](uint64_t k) { return Row{Value(static_cast<int64_t>(k))}; },
       [](uint64_t k, int64_t v) {
         return Row{Value(static_cast<int64_t>(k)),
                    Value(std::string(static_cast<size_t>(v % 37), 'n') +
                          std::to_string(v)),
                    Value(Bytes(static_cast<size_t>(v % 41),
                                static_cast<uint8_t>(v)))};
       }},
  };
}

class IndexOracle {
 public:
  explicit IndexOracle(const OracleShape& shape)
      : shape_(shape), table_("t", shape.schema) {}

  void Upsert(uint64_t k, int64_t v) {
    Row row = shape_.row(k, v);
    ASSERT_TRUE(table_.Insert(row).ok());
    model_[OracleKey(shape_.key(k))] = std::move(row);
  }
  void EraseWhereModel(const std::function<bool(RowRef)>& pred) {
    for (auto it = model_.begin(); it != model_.end();) {
      it = pred(it->second) ? model_.erase(it) : std::next(it);
    }
  }

  void Step(Rng& rng) {
    const uint64_t k = rng.NextBelow(shape_.key_space);
    const int64_t v = static_cast<int64_t>(rng.NextBelow(1'000'000));
    const bool single = shape_.schema.PrimaryKeyIndexes().size() == 1;
    const uint64_t op = rng.NextBelow(1000);
    if (op < 650) {  // insert or upsert
      Upsert(k, v);
    } else if (op < 800) {
      const size_t erased = model_.erase(OracleKey(shape_.key(k)));
      ASSERT_EQ(table_.EraseByKey(shape_.key(k)), erased);
    } else if (op < 950) {
      Row out;
      if (!single) {
        ASSERT_EQ(table_.EraseSingleKey(shape_.key(k)[0], out), 0u);
        return;
      }
      auto it = model_.find(OracleKey(shape_.key(k)));
      const size_t erased = table_.EraseSingleKey(shape_.key(k)[0], out);
      ASSERT_EQ(erased, it != model_.end() ? 1u : 0u);
      if (it != model_.end()) {
        ASSERT_EQ(HashRow(out), HashRow(it->second));
        model_.erase(it);
      }
    } else if (op < 965) {
      // A slot handed away for good.
      const size_t slot = rng.NextBelow(64);
      const auto in_slot = [&](RowRef r) {
        return table_.RowKeyHash(r) % 64 == slot;
      };
      const size_t before = model_.size();
      EraseWhereModel(in_slot);
      ASSERT_EQ(table_.TakeKeySlot(slot).RowCount(), before - model_.size());
    } else if (op < 975) {
      const uint64_t mod = rng.NextBelow(5) + 2;
      const auto pred = [&](RowRef r) { return HashRow(r) % mod == 0; };
      const size_t before = model_.size();
      EraseWhereModel(pred);
      ASSERT_EQ(table_.EraseWhere(pred), before - model_.size());
    } else if (op < 978) {
      table_.Clear();
      model_.clear();
    } else if (op < 983) {
      // Re-assemble the table from its SnapshotShards shards.
      auto shards = table_.SnapshotShards(rng.NextBelow(4) + 1);
      ASSERT_TRUE(shards.ok());
      Table whole("t", shape_.schema);
      for (const Bytes& blob : *shards) {
        auto shard = Table::Restore(blob);
        ASSERT_TRUE(shard.ok());
        CheckSlots(*shard);
        ASSERT_TRUE(Merge(whole, *shard).ok());
      }
      table_ = std::move(whole);
    } else if (op < 987) {
      // A slot leaves and comes back, the way a migration moves it; the
      // table may take in new keys (some of that slot) meanwhile, so the
      // shard comes back whole or upserts into the refilled slot, its rows
      // winning.
      const size_t slot = rng.NextBelow(64);
      std::vector<std::pair<std::string, Row>> away;
      for (const auto& [key, row] : model_) {
        if (table_.RowKeyHash(row) % 64 == slot) away.emplace_back(key, row);
      }
      TableShard shard = table_.TakeKeySlot(slot);
      ASSERT_EQ(shard.RowCount(), away.size());
      for (const auto& entry : away) model_.erase(entry.first);
      const size_t fresh = rng.NextBelow(3) == 0 ? rng.NextBelow(300) : 0;
      for (size_t i = 0; i < fresh; ++i) {
        Upsert(rng.NextBelow(shape_.key_space),
               static_cast<int64_t>(rng.NextBelow(1000)));
      }
      table_.AdoptKeySlot(slot, std::move(shard));
      for (auto& [key, row] : away) model_[key] = std::move(row);
    } else if (op < 992) {
      // Merge a batch that both overlaps and extends the current keys.
      Table other("t", shape_.schema);
      const size_t n = rng.NextBelow(400);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t mk = rng.NextBelow(shape_.key_space);
        Row row = shape_.row(mk, static_cast<int64_t>(rng.NextBelow(1000)));
        ASSERT_TRUE(other.Insert(row).ok());
        model_[OracleKey(shape_.key(mk))] = std::move(row);
      }
      ASSERT_TRUE(Merge(table_, other).ok());
    } else {
      auto restored = Table::Restore(table_.Snapshot());
      ASSERT_TRUE(restored.ok());
      table_ = std::move(restored).value();
    }
  }

  // The model's row carrying `row`'s key.
  const Row& ModelRow(RowRef row) {
    auto it = model_.find(OracleKey(table_.KeyOf(row)));
    EXPECT_NE(it, model_.end()) << "row not in the oracle";
    static const Row kNone;
    return it != model_.end() ? it->second : kNone;
  }

  // The rows() view: its size, its ends, and one random row read through
  // operator[] and through the conversion to Row, each against the oracle.
  void CheckView(Rng& rng) {
    const RowsView view = table_.rows();
    ASSERT_EQ(view.size(), model_.size());
    ASSERT_EQ(view.empty(), model_.empty());
    if (view.empty()) return;
    ASSERT_EQ(view.front().data(), view[0].data());
    ASSERT_EQ(view.back().data(), view[view.size() - 1].data());
    ASSERT_EQ(Row(view.front()), ModelRow(view.front()));
    const RowRef some = view[rng.NextBelow(view.size())];
    const Row& want = ModelRow(some);
    ASSERT_EQ(some.size(), want.size());
    for (size_t c = 0; c < some.size(); ++c) {
      ASSERT_EQ(HashValue(some[c]), HashValue(want[c])) << "cell " << c;
    }
    const Row copy = some;
    ASSERT_EQ(copy, want);
  }
  // Every row the view yields, in order, is a distinct oracle row.
  void CheckWholeView() {
    std::set<std::string> seen;
    size_t n = 0;
    for (const RowRef row : table_.rows()) {
      ASSERT_EQ(row.size(), shape_.schema.size());
      ASSERT_EQ(Row(row), ModelRow(row));
      ASSERT_TRUE(seen.insert(OracleKey(table_.KeyOf(row))).second);
      ++n;
    }
    ASSERT_EQ(n, model_.size());
  }

  // Lookups of `probes` random keys plus the table-wide invariants.
  void Check(Rng& rng, size_t probes) {
    ASSERT_EQ(table_.RowCount(), model_.size());
    CheckView(rng);
    uint64_t hash = 0;
    for (const auto& [key, row] : model_) hash ^= HashRow(row);
    ASSERT_EQ(table_.ContentHash(), hash);
    const bool single = shape_.schema.PrimaryKeyIndexes().size() == 1;
    for (size_t i = 0; i < probes; ++i) {
      const uint64_t k = rng.NextBelow(shape_.key_space);
      CheckKey(k, single);
    }
  }
  void CheckKey(uint64_t k, bool single) {
    const Row key = shape_.key(k);
    auto it = model_.find(OracleKey(key));
    const size_t ncols = shape_.schema.size();
    const Value* hit = table_.LookupByKey(key);
    ASSERT_EQ(hit != nullptr, it != model_.end());
    if (hit != nullptr) {
      ASSERT_EQ(HashRow(RowRef(hit, ncols)), HashRow(it->second));
    }
    const Value* row = table_.LookupSingleKey(key[0]);
    if (!single) {
      ASSERT_EQ(row, nullptr);
    } else {
      ASSERT_EQ(row != nullptr, it != model_.end());
      if (row != nullptr) {
        ASSERT_EQ(HashRow(RowRef(row, ncols)), HashRow(it->second));
      }
    }
  }
  void CheckAllKeys() {
    const bool single = shape_.schema.PrimaryKeyIndexes().size() == 1;
    for (uint64_t k = 0; k < shape_.key_space; ++k) CheckKey(k, single);
  }
  // Each of the 64 key slots of `t`, taken from a copy into a table of its
  // own, against a full scan of `t`'s rows.
  static void CheckSlots(const Table& t) {
    std::vector<std::multiset<uint64_t>> want(64);
    for (const RowRef row : t.rows()) {
      want[t.RowKeyHash(row) % 64].insert(HashRow(row));
    }
    Table copy = t;
    for (size_t slot = 0; slot < 64; ++slot) {
      Table piece(t.name(), t.schema());
      piece.AdoptKeySlot(slot, copy.TakeKeySlot(slot));
      std::multiset<uint64_t> got;
      for (const RowRef row : piece.rows()) {
        ASSERT_EQ(piece.RowKeyHash(row) % 64, slot);
        got.insert(HashRow(row));
      }
      ASSERT_EQ(got, want[slot]) << "slot " << slot;
    }
    ASSERT_TRUE(copy.empty());
  }
  void CheckSlots() { CheckSlots(table_); }

  // rows() walks the key slots in ascending order, each row once.
  void CheckSlotOrder() {
    std::set<std::string> seen;
    uint64_t hash = 0;
    size_t last_slot = 0;
    for (const RowRef row : table_.rows()) {
      const size_t slot = table_.RowKeyHash(row) % 64;
      EXPECT_GE(slot, last_slot) << "rows() is slot-major";
      last_slot = slot;
      EXPECT_TRUE(seen.insert(OracleKey(table_.KeyOf(row))).second)
          << "row visited twice";
      hash ^= HashRow(row);
    }
    ASSERT_EQ(seen.size(), table_.RowCount());
    ASSERT_EQ(hash, table_.ContentHash());
  }

  size_t rows() const { return model_.size(); }

 private:
  const OracleShape& shape_;
  Table table_;
  std::map<std::string, Row> model_;
};

TEST(TableOracle, RandomOpsMatchStdMap) {
  const std::vector<OracleShape> shapes = OracleShapes();
  for (const OracleShape& shape : shapes) {
    for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
      SCOPED_TRACE(std::string(shape.name) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      IndexOracle oracle(shape);
      size_t peak = 0;
      for (size_t op = 0; op < 6000; ++op) {
        oracle.Step(rng);
        if (HasFatalFailure()) return;
        oracle.Check(rng, 8);
        if (HasFatalFailure()) return;
        peak = std::max(peak, oracle.rows());
        if (op % 100 == 99) {
          oracle.CheckWholeView();
          oracle.CheckSlots();
          if (HasFatalFailure()) return;
        }
        if (op % 500 == 499) {
          oracle.CheckAllKeys();
          oracle.CheckSlotOrder();
          if (HasFatalFailure()) return;
        }
      }
      // Enough rows to grow the index from 16 slots several times over.
      EXPECT_GE(peak, 800u);
    }
  }
}

}  // namespace
}  // namespace adn::rpc
