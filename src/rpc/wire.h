// ADN minimal wire format (paper §3/§5.2: "How the RPC message is packaged on
// the wire and what headers are needed are automatically determined").
//
// The compiler computes a HeaderSpec per link: the exact set of fields the
// downstream processors need, in a fixed order. On the wire a message is:
//
//   [u8  kind][u64 id][u32 method_id][u32 src][u32 dst]   <- 21-byte base
//   [field values, positional, in HeaderSpec order]
//
// No field names, no HTTP-style key:value headers, no nested protocol
// envelopes. Fields the downstream does not need are simply not sent
// (dead-field elimination) — or, for fields only the far application needs,
// carried as one opaque length-prefixed blob.
//
// Contrast with src/stack/ which implements the general-purpose layered
// encoding (protobuf-in-gRPC-in-HTTP/2-in-TCP) the paper argues against.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "rpc/message.h"
#include "rpc/schema.h"

namespace adn::rpc {

// Fields carried on a link and their order. Produced by the compiler's header
// synthesis pass (see compiler/header_gen.h); hand-writable for tests.
struct HeaderSpec {
  std::vector<Column> fields;
  // Interned id per column (parallel to `fields`), resolved once at
  // compile/spec-construction time so codecs access message fields by
  // integer id instead of scanning names. Filled by ResolveFieldIds();
  // header_gen calls it on every spec it emits.
  std::vector<FieldId> field_ids;

  // Intern every column name into `field_ids`. Idempotent; cheap.
  void ResolveFieldIds();

  // Fixed bytes before the field section.
  static constexpr size_t kBaseHeaderBytes = 1 + 8 + 4 + 4 + 4;

  std::string DebugString() const;
};

// Maps method names <-> compact ids so the wire carries 4 bytes, not text.
// Built by the controller from the application's service definitions.
class MethodRegistry {
 public:
  // Returns the id (registering if new).
  uint32_t Intern(std::string_view method);
  Result<uint32_t> Lookup(std::string_view method) const;
  Result<std::string> Reverse(uint32_t id) const;
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
};

class AdnWireCodec {
 public:
  AdnWireCodec(HeaderSpec spec, const MethodRegistry* methods)
      : spec_(std::move(spec)), methods_(methods) {
    spec_.ResolveFieldIds();
  }

  const HeaderSpec& spec() const { return spec_; }

  // Encodes exactly the HeaderSpec fields; absent fields encode as NULL.
  // Fields on the message that are NOT in the spec are dropped (the compiler
  // guarantees no downstream element reads them).
  Status Encode(const Message& m, Bytes& out) const;

  Result<Message> Decode(std::span<const uint8_t> wire) const;

 private:
  HeaderSpec spec_;
  const MethodRegistry* methods_;  // not owned
};

// Encode/decode a single Value with a 1-byte presence/type tag. Exposed for
// the state-migration snapshot format, which reuses the same cell encoding.
void EncodeValue(const Value& v, ByteWriter& w);
Result<Value> DecodeValue(ValueType declared, ByteReader& r);

}  // namespace adn::rpc
