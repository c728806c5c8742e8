// Unit tests: status/result plumbing, byte codecs, strings, RNG, and the
// real compression/encryption codecs.
#include <gtest/gtest.h>

#include <thread>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace adn {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesError) {
  Status s(ErrorCode::kNotFound, "nope");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: nope");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Error(ErrorCode::kInvalidArgument, "not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  ADN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(DoublePositive(21).value(), 42);
  EXPECT_FALSE(DoublePositive(-1).ok());
  EXPECT_EQ(DoublePositive(-1).error().code(), ErrorCode::kInvalidArgument);
}

TEST(Result, ValueOr) {
  EXPECT_EQ(ParsePositive(-5).value_or(7), 7);
  EXPECT_EQ(ParsePositive(5).value_or(7), 5);
}

// --- ByteWriter / ByteReader ---------------------------------------------------

TEST(Bytes, FixedWidthRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteF64(3.25);

  ByteReader r(buf);
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadF64().value(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  Bytes buf;
  ByteWriter w(buf);
  w.WriteVarint(GetParam());
  ByteReader r(buf);
  EXPECT_EQ(r.ReadVarint().value(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           16383ull, 16384ull, 0xFFFFFFFFull,
                                           0xFFFFFFFFFFFFFFFFull));

class SignedVarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SignedVarintRoundTrip, EncodesAndDecodes) {
  Bytes buf;
  ByteWriter w(buf);
  w.WriteSignedVarint(GetParam());
  ByteReader r(buf);
  EXPECT_EQ(r.ReadSignedVarint().value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, SignedVarintRoundTrip,
    ::testing::Values(int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                      int64_t{63}, int64_t{INT64_MAX}, int64_t{INT64_MIN}));

TEST(Bytes, SmallSignedValuesStaySmall) {
  Bytes buf;
  ByteWriter w(buf);
  w.WriteSignedVarint(-3);
  EXPECT_EQ(buf.size(), 1u);  // zig-zag keeps -3 in one byte
}

TEST(Bytes, ReaderUnderflowIsError) {
  Bytes buf = {0x01};
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadU32().ok());
  // Failed read leaves the cursor usable for shorter reads.
  EXPECT_TRUE(ByteReader(buf).ReadU8().ok());
}

TEST(Bytes, TruncatedVarintIsError) {
  Bytes buf = {0x80, 0x80};  // continuation bits never end
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(Bytes, OverlongVarintIsError) {
  Bytes buf(11, 0x80);
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(Bytes, LengthPrefixedRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.WriteString("hello");
  w.WriteString("");
  ByteReader r(buf);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), "");
}

TEST(Bytes, LengthPrefixExceedingBufferIsError) {
  Bytes buf;
  ByteWriter w(buf);
  w.WriteVarint(1000);  // claims 1000 bytes, provides none
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadLengthPrefixed().ok());
}

TEST(Bytes, PatchU32) {
  Bytes buf = {0, 0, 0, 0, 0xFF};
  ByteWriter w(buf);
  w.PatchU32(0, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
  EXPECT_EQ(buf[4], 0xFF);
}

// --- Strings ---------------------------------------------------------------------

TEST(Strings, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(TrimString("  x \t\n"), "x");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("   "), "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(ToUpperAscii("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreAsciiCase("input", "INPUT"));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("input", "inputs"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("x-user", "x-"));
  EXPECT_FALSE(StartsWith("x", "x-"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "file.cc"));
}

TEST(Strings, Fnv1aIsStable) {
  // Pinned value: the LB hash must not drift across builds, or live
  // migrations would re-shard traffic.
  EXPECT_EQ(Fnv1a64("alice"), Fnv1a64("alice"));
  EXPECT_NE(Fnv1a64("alice"), Fnv1a64("alicf"));
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
}

// --- Rng ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    (void)c.NextU64();
  }
  EXPECT_NE(Rng(42).NextU64(), Rng(43).NextU64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityRoughlyHolds) {
  Rng rng(1234);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.NextBool(0.05)) ++heads;
  }
  EXPECT_NEAR(heads / 100000.0, 0.05, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(99);
  double total = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) total += rng.NextExponential(10.0);
  EXPECT_NEAR(total / kSamples, 10.0, 0.3);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- Compression -----------------------------------------------------------------

class CompressRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(CompressRoundTrip, LosslessAcrossSizes) {
  Rng rng(GetParam() + 1);
  Bytes data(GetParam());
  // Mixed entropy: half repetitive, half random.
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i < data.size() / 2 ? static_cast<uint8_t>(i % 7)
                                  : static_cast<uint8_t>(rng.NextBelow(256));
  }
  Bytes packed = CompressBytes(data);
  auto restored = DecompressBytes(packed);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  EXPECT_EQ(restored.value(), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressRoundTrip,
                         ::testing::Values(0, 1, 3, 4, 63, 64, 255, 1024,
                                           4096, 65536, 200000));

TEST(Compress, RepetitiveDataShrinks) {
  Bytes data(10000, 'a');
  Bytes packed = CompressBytes(data);
  EXPECT_LT(packed.size(), data.size() / 10);
}

TEST(Compress, RandomDataDoesNotExplode) {
  Rng rng(3);
  Bytes data(10000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBelow(256));
  Bytes packed = CompressBytes(data);
  // Literal-run framing adds only token overhead.
  EXPECT_LT(packed.size(), data.size() + data.size() / 8 + 16);
}

TEST(Compress, CorruptStreamRejected) {
  Bytes data(1000, 'x');
  Bytes packed = CompressBytes(data);
  packed[packed.size() / 2] ^= 0xFF;
  auto restored = DecompressBytes(packed);
  // Either a parse error or a size mismatch — never a silent wrong answer.
  if (restored.ok()) {
    EXPECT_NE(restored.value(), data);
  }
}

TEST(Compress, TruncatedStreamRejected) {
  Bytes packed = CompressBytes(Bytes(500, 'y'));
  packed.resize(packed.size() / 2);
  EXPECT_FALSE(DecompressBytes(packed).ok());
}

TEST(Compress, BadTokenRejected) {
  Bytes stream;
  ByteWriter w(stream);
  w.WriteVarint(10);
  w.WriteU8(0x7F);  // unknown token tag
  EXPECT_FALSE(DecompressBytes(stream).ok());
}

// Golden compressor output. The fixtures were produced by the original
// compressor, which cleared a fresh 16Ki-slot table on every call; the
// per-thread table that replaced it must emit the very same token stream.
// Outputs up to 96 bytes are pinned byte for byte; longer ones by length and
// FNV-1a-64 of the output bytes.

Bytes RandomInput(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBelow(256));
  return data;
}

// Text-like input: a few short tokens in random order, so matches are short
// and frequent.
Bytes RepetitiveInput(size_t n, uint64_t seed) {
  static const char* kWords[] = {"user=", "alice", "bob", "&object_id=",
                                 "42",    "1337",  " payload ", "\n"};
  Rng rng(seed);
  Bytes data;
  while (data.size() < n) {
    for (const char* p = kWords[rng.NextBelow(8)];
         *p != '\0' && data.size() < n; ++p) {
      data.push_back(static_cast<uint8_t>(*p));
    }
  }
  return data;
}

std::string Hex(const Bytes& b) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t x : b) {
    out.push_back(kDigits[x >> 4]);
    out.push_back(kDigits[x & 15]);
  }
  return out;
}

struct CompressGolden {
  bool repetitive;
  size_t size;
  size_t packed_size;
  uint64_t packed_fnv;
  const char* packed_hex;  // empty when the output is longer than 96 bytes
};

constexpr CompressGolden kCompressGolden[] = {
    {false, 0, 1, 0xaf63bd4c8601b7dfULL, "00"},
    {false, 1, 4, 0xad2d8f77479a28faULL, "010001a1"},
    {false, 3, 6, 0x1e5ace2282bc0002ULL, "03000395d418"},
    {false, 4, 7, 0x7b8363bf83d8bc54ULL, "0400040b3f7570"},
    {false, 5, 8, 0x4e0a916be91603b6ULL, "05000542b1ff05f4"},
    {false, 64, 67, 0x4b77c4815aae406bULL,
     "400040c6102d4ce88f55d6a7c74c11c44e3c7cb376037a6b396c3fd985c606589c3df7"
     "d884ae794f0adc03551fd218d9d4b2857e49c62769f9ca7afa226a3ef304b3aa"},
    {false, 1024, 1029, 0xf4b143861ecc1dafULL, ""},
    {false, 16384, 16391, 0x404f468eb4f9ad30ULL, ""},
    {false, 70 * 1024, 71687, 0x05536ef8daa93498ULL, ""},
    {true, 0, 1, 0xaf63bd4c8601b7dfULL, "00"},
    {true, 1, 4, 0xad2e4f77479b6f3aULL, "01000161"},
    {true, 3, 6, 0x809931246d646328ULL, "030003313333"},
    {true, 4, 7, 0x634296702a2d2d28ULL, "040004266f626a"},
    {true, 5, 8, 0x4a559b717d709d03ULL, "050005626f62616c"},
    {true, 64, 58, 0x9f13bc9a80107386ULL,
     "400014207061796c6f616420757365723d313333373432010b0500010a010c04011e09"
     "000b0a0a3432616c696365343201140900053432343226"},
    {true, 1024, 509, 0x304480ca409c2156ULL, ""},
    {true, 16384, 7002, 0xded693cd46753c9fULL, ""},
    {true, 70 * 1024, 30405, 0xd9a894b6c6074cb7ULL, ""},
};

void ExpectGolden(const Bytes& packed, const CompressGolden& g) {
  EXPECT_EQ(packed.size(), g.packed_size);
  EXPECT_EQ(Fnv1a64(packed.data(), packed.size()), g.packed_fnv);
  if (g.packed_hex[0] != '\0') {
    EXPECT_EQ(Hex(packed), g.packed_hex);
  }
}

TEST(CompressGoldenOutput, MatchesRecordedStreams) {
  for (const CompressGolden& g : kCompressGolden) {
    SCOPED_TRACE((g.repetitive ? "repetitive " : "random ") +
                 std::to_string(g.size));
    const Bytes input = g.repetitive ? RepetitiveInput(g.size, g.size + 11)
                                     : RandomInput(g.size, g.size + 11);
    const Bytes packed = CompressBytes(input);
    ExpectGolden(packed, g);
    auto restored = DecompressBytes(packed);
    ASSERT_TRUE(restored.ok()) << restored.error().ToString();
    EXPECT_EQ(restored.value(), input);
  }
}

TEST(CompressGoldenOutput, RepeatBeyondWindowIsNotMatched) {
  // The tail repeats bytes 66000 back, past the 65535-byte window: the
  // compressor must not reference them.
  Bytes input = RandomInput(70 * 1024, 7);
  for (size_t i = 66000; i < input.size(); ++i) input[i] = input[i - 66000];
  const Bytes packed = CompressBytes(input);
  EXPECT_EQ(packed.size(), 71692u);
  EXPECT_EQ(Fnv1a64(packed.data(), packed.size()), 0x1c9a43c841baf174ULL);
  auto restored = DecompressBytes(packed);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  EXPECT_EQ(restored.value(), input);
}

TEST(CompressGoldenOutput, LargeCallLeavesNoStaleSlots) {
  // A 16 KiB call fills the calling thread's table; the 64-B call after it
  // must see an empty table, exactly as a fresh thread does.
  const Bytes big = RepetitiveInput(16384, 5);
  const Bytes small = RepetitiveInput(64, 64 + 11);
  Bytes fresh_thread;
  std::thread([&] { fresh_thread = CompressBytes(small); }).join();
  (void)CompressBytes(big);
  const Bytes after_big = CompressBytes(small);
  EXPECT_EQ(after_big, fresh_thread);
  ExpectGolden(after_big, kCompressGolden[14]);
  // Same after a call small enough to be cleaned slot by slot.
  (void)CompressBytes(RandomInput(1024, 9));
  EXPECT_EQ(CompressBytes(small), fresh_thread);
}

// --- Encryption ------------------------------------------------------------------

TEST(Encrypt, RoundTrip) {
  Bytes plain = ToBytes("attack at dawn, bring snacks");
  Bytes cipher = EncryptBytes(plain, "key-1", 777);
  auto restored = DecryptBytes(cipher, "key-1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), plain);
}

TEST(Encrypt, WrongKeyGarbles) {
  Bytes plain = ToBytes("attack at dawn");
  Bytes cipher = EncryptBytes(plain, "key-1", 777);
  auto restored = DecryptBytes(cipher, "key-2");
  ASSERT_TRUE(restored.ok());  // stream cipher: decrypts to wrong bytes
  EXPECT_NE(restored.value(), plain);
}

TEST(Encrypt, DifferentNoncesDifferentCiphertext) {
  Bytes plain = ToBytes("same message");
  EXPECT_NE(EncryptBytes(plain, "k", 1), EncryptBytes(plain, "k", 2));
}

TEST(Encrypt, CiphertextDiffersFromPlaintext) {
  Bytes plain(64, 0);
  Bytes cipher = EncryptBytes(plain, "k", 9);
  EXPECT_EQ(cipher.size(), plain.size() + 8);  // nonce prefix
  bool any_diff = false;
  for (size_t i = 0; i < plain.size(); ++i) {
    any_diff |= cipher[i + 8] != plain[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(Encrypt, TooShortCiphertextRejected) {
  Bytes tiny = {1, 2, 3};
  EXPECT_FALSE(DecryptBytes(tiny, "k").ok());
}

// --- CRC32C -----------------------------------------------------------------------

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: 32 bytes of zeros.
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, DetectsBitFlip) {
  Bytes data = ToBytes("123456789");
  EXPECT_EQ(Crc32c(data), 0xE3069283u);  // canonical check value
  data[4] ^= 1;
  EXPECT_NE(Crc32c(data), 0xE3069283u);
}

}  // namespace
}  // namespace adn
