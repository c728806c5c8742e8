// Zero-allocation message path: flat field-section round-trips
// (EncodeFieldsFlat/DecodeFieldsFlatInto, the response cache's format),
// arena lease/recycle semantics, the field-name interner, and the
// arena-backed Message API (slices, materialize-on-copy, lease-carrying
// moves).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/arena.h"
#include "rpc/flat_wire.h"
#include "rpc/intern.h"
#include "rpc/message.h"
#include "rpc/value.h"
#include "rpc/wire.h"

namespace adn::rpc {
namespace {

using common::Arena;
using common::ArenaPool;

// CompareTo treats NULL == NULL (EqualsValue keeps SQL's NULL != NULL).
void ExpectSameFields(const Message& a, const Message& b) {
  ASSERT_EQ(a.FieldCount(), b.FieldCount());
  for (size_t i = 0; i < a.FieldCount(); ++i) {
    const Field& fa = a.fields()[i];
    const Field& fb = b.fields()[i];
    EXPECT_EQ(fa.id, fb.id) << "field " << i;
    EXPECT_EQ(fa.value.type(), fb.value.type()) << "field " << fa.name();
    EXPECT_EQ(fa.value.CompareTo(fb.value), 0) << "field " << fa.name();
  }
}

Message SampleMessage() {
  std::vector<Field> fields = {
      {"username", Value(std::string("alice"))},
      {"object_id", Value(int64_t{42})},
      {"score", Value(2.5)},
      {"admin", Value(true)},
      {"payload", Value(Bytes{1, 2, 3, 4, 5})},
      {"note", Value()},  // NULL
  };
  Message m = Message::MakeRequest(7, "Obj.Put", std::move(fields));
  m.set_source(3);
  m.set_destination(9);
  return m;
}

// Bytes of the section header plus the per-field records.
size_t FixedBytes(const Message& m) {
  return 6 + m.FieldCount() * kFlatRecordBytes;
}

// Decodes `wire` into a fresh heap message whose metadata must survive.
Message DecodeOntoHeap(std::span<const uint8_t> wire, Status* status) {
  Message m = Message::MakeRequest(99, "Live.Req", {{"stale", Value(1)}});
  *status = DecodeFieldsFlatInto(wire, m);
  return m;
}

TEST(FlatWire, RoundTripsAllValueTypes) {
  const Message m = SampleMessage();
  Bytes wire;
  ASSERT_TRUE(EncodeFieldsFlat(m, wire).ok());
  EXPECT_EQ(wire.size(), FixedBytes(m) + 5 + 5);  // "alice" + 5 payload bytes

  Status status;
  const Message decoded = DecodeOntoHeap(wire, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSameFields(m, decoded);
  EXPECT_FALSE(decoded.arena_backed());
  // Only the fields are replaced: the live message keeps its metadata.
  EXPECT_EQ(decoded.id(), 99u);
  EXPECT_EQ(decoded.method(), "Live.Req");
}

TEST(FlatWire, ReEncodeIsByteExact) {
  const Message m = SampleMessage();
  Bytes first;
  ASSERT_TRUE(EncodeFieldsFlat(m, first).ok());
  Status status;
  const Message decoded = DecodeOntoHeap(first, &status);
  ASSERT_TRUE(status.ok());
  Bytes second;
  ASSERT_TRUE(EncodeFieldsFlat(decoded, second).ok());
  EXPECT_EQ(first, second);
}

TEST(FlatWire, ArenaDecodeBorrowsFromArena) {
  const Message m = SampleMessage();
  Bytes wire;
  ASSERT_TRUE(EncodeFieldsFlat(m, wire).ok());

  ArenaPool pool(512);
  Message decoded = Message::WithArena(pool);
  decoded.SetText(InternFieldName("stale"), "overwritten");
  ASSERT_TRUE(DecodeFieldsFlatInto(wire, decoded).ok());
  EXPECT_TRUE(decoded.arena_backed());
  ExpectSameFields(m, decoded);

  // TEXT/BYTES came in as slices pointing into the arena's var-section copy.
  const Value* user = decoded.FindField(InternFieldName("username"));
  ASSERT_NE(user, nullptr);
  EXPECT_TRUE(user->is_borrowed());
  const Value* payload = decoded.FindField(InternFieldName("payload"));
  ASSERT_NE(payload, nullptr);
  EXPECT_TRUE(payload->is_borrowed());
  EXPECT_GT(decoded.arena()->bytes_used(), 0u);

  // Re-encoding the borrowed message is identical to encoding the original.
  Bytes again;
  ASSERT_TRUE(EncodeFieldsFlat(decoded, again).ok());
  EXPECT_EQ(wire, again);
}

TEST(FlatWire, RejectsTruncatedFrames) {
  const Message m = SampleMessage();
  Bytes wire;
  ASSERT_TRUE(EncodeFieldsFlat(m, wire).ok());
  // Inside the header, inside the records, and one byte short of the end.
  for (size_t cut : {size_t{0}, size_t{5}, size_t{6} + 3,
                     FixedBytes(m) - 1, wire.size() - 1}) {
    Status status;
    DecodeOntoHeap(std::span<const uint8_t>(wire.data(), cut), &status);
    EXPECT_FALSE(status.ok()) << "cut at " << cut;
  }
}

TEST(FlatWire, RejectsSliceOutsideVarSection) {
  const Message m = SampleMessage();
  Bytes wire;
  ASSERT_TRUE(EncodeFieldsFlat(m, wire).ok());
  // Field 0 is TEXT "alice": its record's len (offset 4) and payload
  // offset (offset 8) each point it past the 10-byte variable section.
  uint8_t* rec = wire.data() + 6;
  ASSERT_EQ(rec[2], static_cast<uint8_t>(ValueType::kText));
  for (const auto& [at, value] : {std::pair<size_t, uint8_t>{4, 11},
                                  std::pair<size_t, uint8_t>{8, 6}}) {
    Bytes bad = wire;
    bad[6 + at] = value;
    Status status;
    DecodeOntoHeap(bad, &status);
    EXPECT_FALSE(status.ok()) << "record byte " << at;
  }
  // A type tag past kBytes is rejected too.
  Bytes bad = wire;
  bad[6 + 2] = static_cast<uint8_t>(ValueType::kBytes) + 1;
  Status status;
  DecodeOntoHeap(bad, &status);
  EXPECT_FALSE(status.ok());
}

Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0: return Value();
    case 1: return Value(static_cast<bool>(rng() & 1));
    case 2: return Value(static_cast<int64_t>(rng()));
    case 3: return Value(static_cast<double>(rng() % 1000) / 7.0);
    case 4: {
      std::string s(rng() % 40, 'x');
      for (char& c : s) c = static_cast<char>('a' + rng() % 26);
      return Value(std::move(s));
    }
    default: {
      Bytes b(rng() % 100);
      for (uint8_t& x : b) x = static_cast<uint8_t>(rng());
      return Value(std::move(b));
    }
  }
}

TEST(FlatWire, RandomizedRoundTripHeapAndArena) {
  std::mt19937_64 rng(20260808);
  ArenaPool pool(1024);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Field> fields;
    const size_t n = rng() % 8;
    size_t var_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      fields.emplace_back("f" + std::to_string(i), RandomValue(rng));
      const Value& v = fields.back().value;
      if (v.type() == ValueType::kText) var_bytes += v.AsText().size();
      if (v.type() == ValueType::kBytes) var_bytes += v.AsBytes().size();
    }
    const Message m = Message::MakeRequest(rng(), "Svc.M", std::move(fields));

    Bytes wire;
    ASSERT_TRUE(EncodeFieldsFlat(m, wire).ok());
    ASSERT_EQ(wire.size(), FixedBytes(m) + var_bytes);

    Status status;
    const Message heap = DecodeOntoHeap(wire, &status);
    ASSERT_TRUE(status.ok());
    ExpectSameFields(m, heap);

    Message borrowed = Message::WithArena(pool);
    ASSERT_TRUE(DecodeFieldsFlatInto(wire, borrowed).ok());
    ExpectSameFields(m, borrowed);
  }
}

// The flat section and the positional codec must agree on content:
// decoding either encoding of the same message yields the same field values.
TEST(FlatWire, AgreesWithLegacyCodecOnRandomMessages) {
  std::mt19937_64 rng(77);
  MethodRegistry methods;
  methods.Intern("Svc.M");
  for (int iter = 0; iter < 100; ++iter) {
    // The positional codec needs a typed HeaderSpec, so draw typed columns.
    HeaderSpec spec;
    std::vector<Field> fields;
    const size_t n = 1 + rng() % 6;
    for (size_t i = 0; i < n; ++i) {
      const std::string name = "c" + std::to_string(i);
      Value v;
      ValueType t = ValueType::kInt;
      switch (rng() % 4) {
        case 0: v = Value(static_cast<int64_t>(rng() % 1'000'000)); break;
        case 1:
          v = Value(std::string(1 + rng() % 20, 'k'));
          t = ValueType::kText;
          break;
        case 2: {
          Bytes b(rng() % 50, static_cast<uint8_t>(iter));
          v = Value(std::move(b));
          t = ValueType::kBytes;
          break;
        }
        default: v = Value(static_cast<bool>(rng() & 1)); t = ValueType::kBool;
      }
      spec.fields.push_back({name, t, false});
      fields.emplace_back(name, std::move(v));
    }
    Message m = Message::MakeRequest(iter + 1, "Svc.M", std::move(fields));

    AdnWireCodec legacy(spec, &methods);
    Bytes legacy_wire;
    ASSERT_TRUE(legacy.Encode(m, legacy_wire).ok());
    auto from_legacy = legacy.Decode(legacy_wire);
    ASSERT_TRUE(from_legacy.ok());

    Bytes flat_wire;
    ASSERT_TRUE(EncodeFieldsFlat(m, flat_wire).ok());
    Status status;
    const Message from_flat = DecodeOntoHeap(flat_wire, &status);
    ASSERT_TRUE(status.ok());

    ExpectSameFields(*from_legacy, from_flat);
  }
}

// --- Arena semantics ---------------------------------------------------------

TEST(Arena, ResetRetainsSlabs) {
  Arena arena(256);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      void* p = arena.Allocate(48, 8);
      ASSERT_NE(p, nullptr);
    }
    const size_t slabs = arena.slab_count();
    arena.Reset();
    EXPECT_EQ(arena.slab_count(), slabs);  // kept for reuse
    EXPECT_EQ(arena.bytes_used(), 0u);
  }
}

TEST(Arena, OversizedRequestGetsDedicatedSlab) {
  Arena arena(128);
  void* big = arena.Allocate(4096, 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xAB, 4096);  // must actually be addressable
  void* small = arena.Allocate(16, 8);
  ASSERT_NE(small, nullptr);
}

TEST(ArenaPool, RecyclesArenasThroughRelease) {
  ArenaPool pool(512);
  Arena* a = pool.Acquire();
  ASSERT_NE(a, nullptr);
  a->Allocate(64, 8);
  pool.Release(a);
  Arena* b = pool.Acquire();
  EXPECT_EQ(a, b);  // LIFO free list hands the same arena back
  EXPECT_EQ(b->bytes_used(), 0u);  // Release reset it
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
  pool.Release(b);
}

TEST(ArenaPool, MessageLeaseReleasesOnDestruction) {
  ArenaPool pool(512);
  {
    Message m = Message::WithArena(pool);
    m.SetText(InternFieldName("k"), "value-text");
    EXPECT_TRUE(m.arena_backed());
    EXPECT_EQ(pool.created(), 1u);
  }
  // Destroyed -> arena back on the free list; next lease reuses it.
  Message m2 = Message::WithArena(pool);
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
  (void)m2;
}

TEST(ArenaMessage, SetTextStoresBorrowedSlice) {
  ArenaPool pool(512);
  Message m = Message::WithArena(pool);
  const FieldId fid = InternFieldName("username");
  m.SetText(fid, "borrowed-text");
  const Value* v = m.FindField(fid);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->is_borrowed());
  EXPECT_EQ(v->AsText(), "borrowed-text");
}

TEST(ArenaMessage, CopyMaterializesToIndependentHeapMessage) {
  ArenaPool pool(512);
  Message copy;
  {
    Message m = Message::WithArena(pool);
    m.SetText(InternFieldName("username"), "alice");
    uint8_t raw[3] = {9, 8, 7};
    m.SetBytes(InternFieldName("payload"), raw);
    copy = m;  // deep copy; slices materialize
  }
  // Original destroyed, its arena reset — the copy must still be intact.
  EXPECT_FALSE(copy.arena_backed());
  const Value* user = copy.FindField(InternFieldName("username"));
  ASSERT_NE(user, nullptr);
  EXPECT_FALSE(user->is_borrowed());
  EXPECT_EQ(user->AsText(), "alice");
  const Value* payload = copy.FindField(InternFieldName("payload"));
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->AsBytes().size(), 3u);
  EXPECT_EQ(payload->AsBytes()[0], 9);
}

TEST(ArenaMessage, MoveCarriesTheLease) {
  ArenaPool pool(512);
  Message a = Message::WithArena(pool);
  a.SetText(InternFieldName("k"), "vvv");
  Message b = std::move(a);
  EXPECT_TRUE(b.arena_backed());
  EXPECT_FALSE(a.arena_backed());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pool.created(), 1u);
  const Value* v = b.FindField(InternFieldName("k"));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->AsText(), "vvv");
}

TEST(ArenaMessage, ProjectFieldsCompactsInPlace) {
  ArenaPool pool(512);
  Message m = Message::WithArena(pool);
  const FieldId keep1 = InternFieldName("a");
  const FieldId drop = InternFieldName("b");
  const FieldId keep2 = InternFieldName("c");
  m.SetField(keep1, Value(int64_t{1}));
  m.SetField(drop, Value(int64_t{2}));
  m.SetField(keep2, Value(int64_t{3}));
  const std::vector<FieldId> keep = {keep1, keep2};
  m.ProjectFields(keep);
  ASSERT_EQ(m.FieldCount(), 2u);
  EXPECT_EQ(m.fields()[0].id, keep1);
  EXPECT_EQ(m.fields()[1].id, keep2);
  EXPECT_FALSE(m.HasField(drop));
}

// --- Interner ----------------------------------------------------------------

TEST(Interner, SameNameSameId) {
  const FieldId a = InternFieldName("interner-test-field");
  const FieldId b = InternFieldName("interner-test-field");
  EXPECT_EQ(a, b);
  EXPECT_EQ(FieldNameOf(a), "interner-test-field");
}

TEST(Interner, DistinctNamesDistinctIds) {
  const FieldId a = InternFieldName("interner-x");
  const FieldId b = InternFieldName("interner-y");
  EXPECT_NE(a, b);
}

TEST(Interner, FindDoesNotIntern) {
  auto& interner = FieldInterner::Global();
  const size_t before = interner.size();
  EXPECT_FALSE(interner.Find("interner-never-seen-name").has_value());
  EXPECT_EQ(interner.size(), before);
  const FieldId id = interner.Intern("interner-now-seen");
  auto found = interner.Find("interner-now-seen");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, id);
}

}  // namespace
}  // namespace adn::rpc
