// Real byte-transform implementations backing the ADN user-defined functions
// compress/decompress/encrypt/decrypt (paper §5.1: "operations like
// compression and encryption ... modeled as user-defined functions for which
// developers provide platform-specific implementations").
//
// These run for real on actual bytes — both in unit tests and inside the
// simulated processors — so payload-size-dependent behaviour (Figure 2's
// "don't compress the field the load balancer reads" reordering) is exercised
// by genuine code, not a cost-model fiction.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace adn {

// LZ-class byte compressor (greedy LZ77 with a 64Ki window and a small hash
// chain). Format: varint original size, then a token stream of literal runs
// and (distance, length) matches. The hash-chain heads live in a per-thread
// table that each call leaves empty again, so a call costs O(input) rather
// than a 16Ki-slot clear. Output is deterministic: the same input gives the
// same bytes on any thread, whatever that thread compressed before.
Bytes CompressBytes(std::span<const uint8_t> input);
Result<Bytes> DecompressBytes(std::span<const uint8_t> compressed);

// XTEA-CTR stream cipher. Key material is derived from `key` via FNV-based
// expansion; the nonce is carried in the first 8 output bytes. Encryption and
// decryption are length-preserving modulo the 8-byte nonce prefix.
Bytes EncryptBytes(std::span<const uint8_t> plaintext, std::string_view key,
                   uint64_t nonce);
Result<Bytes> DecryptBytes(std::span<const uint8_t> ciphertext,
                           std::string_view key);

// CRC32C (software, table-driven) — used for optional integrity trailers.
uint32_t Crc32c(std::span<const uint8_t> data);

}  // namespace adn
