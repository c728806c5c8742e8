#include "common/codec.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/strings.h"

namespace adn {

namespace {

// --- LZ77 ------------------------------------------------------------------
// Token stream grammar:
//   0x00 len  <len literal bytes>          literal run (len = varint)
//   0x01 dist len                          match (varints), dist in [1,65535]
constexpr size_t kWindow = 65535;
constexpr size_t kMinMatch = 4;
constexpr size_t kHashSize = 1 << 14;

uint32_t HashQuad(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 18;  // top 14 bits
}

// Hash-chain heads: position + 1 of the latest quad with each hash, 0 when
// empty. One table per thread, left all-zero between calls, so a call pays
// for the slots it touches rather than for clearing 16Ki slots up front.
thread_local std::array<uint32_t, kHashSize> t_head{};

}  // namespace

Bytes CompressBytes(std::span<const uint8_t> input) {
  Bytes out;
  // Room for an incompressible input plus its token framing, so the token
  // writes below do not regrow the buffer step by step.
  out.reserve(input.size() + input.size() / 16 + 16);
  ByteWriter w(out);
  w.WriteVarint(input.size());
  if (input.empty()) return out;

  std::array<uint32_t, kHashSize>& head = t_head;

  size_t i = 0;
  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      w.WriteU8(0x00);
      w.WriteVarint(end - literal_start);
      w.WriteBytes(input.subspan(literal_start, end - literal_start));
    }
  };

  while (i + kMinMatch <= input.size()) {
    uint32_t h = HashQuad(&input[i]);
    const uint32_t slot = head[h];
    head[h] = static_cast<uint32_t>(i + 1);

    size_t best_len = 0;
    size_t best_dist = 0;
    if (slot != 0 && i - (slot - 1) <= kWindow &&
        std::memcmp(&input[slot - 1], &input[i], kMinMatch) == 0) {
      const size_t cand = slot - 1;
      size_t len = kMinMatch;
      size_t max_len = input.size() - i;
      const uint8_t* a = &input[cand];
      const uint8_t* b = &input[i];
      while (len < max_len && a[len] == b[len]) ++len;
      best_len = len;
      best_dist = i - cand;
    }

    if (best_len >= kMinMatch) {
      flush_literals(i);
      w.WriteU8(0x01);
      w.WriteVarint(best_dist);
      w.WriteVarint(best_len);
      // Insert hash entries inside the match so later data can reference it.
      size_t stop = std::min(i + best_len, input.size() - kMinMatch);
      for (size_t j = i + 1; j < stop; ++j) {
        head[HashQuad(&input[j])] = static_cast<uint32_t>(j + 1);
      }
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(input.size());

  // Hand the table back empty. Every slot written above is the hash of some
  // quad of the input, so re-hashing the quads finds them all. Each re-hash
  // is a scattered store; past about 2Ki quads one 64 KiB clear is cheaper.
  if (input.size() >= kMinMatch) {
    const size_t quads = input.size() - kMinMatch + 1;
    if (quads > kHashSize / 8) {
      head.fill(0);
    } else {
      for (size_t j = 0; j < quads; ++j) head[HashQuad(&input[j])] = 0;
    }
  }
  return out;
}

Result<Bytes> DecompressBytes(std::span<const uint8_t> compressed) {
  ByteReader r(compressed);
  ADN_ASSIGN_OR_RETURN(uint64_t original_size, r.ReadVarint());
  // Bound the up-front reservation: a corrupt or adversarial stream may
  // declare an absurd size. Growth beyond the declared size is rejected
  // below either way.
  Bytes out;
  out.reserve(static_cast<size_t>(
      std::min<uint64_t>(original_size, 1 << 20)));
  while (!r.AtEnd() && out.size() < original_size) {
    ADN_ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
    if (tag == 0x00) {
      ADN_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
      if (out.size() + len > original_size) {
        return Error(ErrorCode::kParseError,
                     "corrupt compressed stream: literals overrun size");
      }
      ADN_ASSIGN_OR_RETURN(auto lit, r.ReadBytes(len));
      out.insert(out.end(), lit.begin(), lit.end());
    } else if (tag == 0x01) {
      ADN_ASSIGN_OR_RETURN(uint64_t dist, r.ReadVarint());
      ADN_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
      if (dist == 0 || dist > out.size()) {
        return Error(ErrorCode::kParseError,
                     "corrupt compressed stream: bad match distance");
      }
      if (out.size() + len > original_size) {
        return Error(ErrorCode::kParseError,
                     "corrupt compressed stream: match overruns size");
      }
      // Byte-by-byte copy: overlapping matches are legal (RLE-style).
      size_t src = out.size() - dist;
      for (uint64_t k = 0; k < len; ++k) {
        out.push_back(out[src + k]);
      }
    } else {
      return Error(ErrorCode::kParseError,
                   "corrupt compressed stream: unknown token");
    }
  }
  if (out.size() != original_size) {
    return Error(ErrorCode::kParseError,
                 "corrupt compressed stream: size mismatch (" +
                     std::to_string(out.size()) + " vs declared " +
                     std::to_string(original_size) + ")");
  }
  return out;
}

// --- XTEA-CTR ----------------------------------------------------------------
namespace {

struct XteaKey {
  uint32_t k[4];
};

XteaKey DeriveKey(std::string_view key) {
  XteaKey out;
  uint64_t h1 = Fnv1a64(key);
  // Second lane: hash with a domain separator so k[2..3] differ from k[0..1].
  std::string salted = std::string(key) + "#adn-key-lane2";
  uint64_t h2 = Fnv1a64(salted);
  out.k[0] = static_cast<uint32_t>(h1);
  out.k[1] = static_cast<uint32_t>(h1 >> 32);
  out.k[2] = static_cast<uint32_t>(h2);
  out.k[3] = static_cast<uint32_t>(h2 >> 32);
  return out;
}

// One XTEA block encryption (64 rounds standard).
uint64_t XteaEncryptBlock(uint64_t block, const XteaKey& key) {
  uint32_t v0 = static_cast<uint32_t>(block);
  uint32_t v1 = static_cast<uint32_t>(block >> 32);
  uint32_t sum = 0;
  constexpr uint32_t kDelta = 0x9E3779B9;
  for (int round = 0; round < 32; ++round) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key.k[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key.k[(sum >> 11) & 3]);
  }
  return static_cast<uint64_t>(v0) | (static_cast<uint64_t>(v1) << 32);
}

void XorKeystream(std::span<const uint8_t> in, Bytes& out, const XteaKey& key,
                  uint64_t nonce) {
  for (size_t i = 0; i < in.size(); i += 8) {
    uint64_t counter = nonce ^ (static_cast<uint64_t>(i / 8) * 0x9E3779B97F4A7C15ULL);
    uint64_t ks = XteaEncryptBlock(counter, key);
    size_t n = std::min<size_t>(8, in.size() - i);
    for (size_t j = 0; j < n; ++j) {
      out.push_back(in[i + j] ^ static_cast<uint8_t>(ks >> (8 * j)));
    }
  }
}

}  // namespace

Bytes EncryptBytes(std::span<const uint8_t> plaintext, std::string_view key,
                   uint64_t nonce) {
  Bytes out;
  out.reserve(plaintext.size() + 8);
  ByteWriter w(out);
  w.WriteU64(nonce);
  XorKeystream(plaintext, out, DeriveKey(key), nonce);
  return out;
}

Result<Bytes> DecryptBytes(std::span<const uint8_t> ciphertext,
                           std::string_view key) {
  ByteReader r(ciphertext);
  ADN_ASSIGN_OR_RETURN(uint64_t nonce, r.ReadU64());
  Bytes out;
  out.reserve(ciphertext.size() - 8);
  XorKeystream(ciphertext.subspan(8), out, DeriveKey(key), nonce);
  return out;
}

// --- CRC32C ------------------------------------------------------------------
uint32_t Crc32c(std::span<const uint8_t> data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t b : data) {
    crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace adn
