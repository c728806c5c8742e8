// Protobuf-style serialization of RPC messages — the first layer of the
// general-purpose stack the paper's baseline uses (gRPC payload encoding).
//
// This is a real tag/length/value codec operating on real bytes: varint keys
// (field_number << 3 | wire_type), varint ints, length-delimited strings and
// bytes, little-endian doubles. The simulated Envoy path encodes and decodes
// through it on every hop, exactly the repeated marshalling the paper
// blames for service-mesh overhead (§2, [66]).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "rpc/message.h"
#include "rpc/schema.h"

namespace adn::stack {

// A .proto-like message schema: maps field names to numbers and types.
class ProtoSchema {
 public:
  ProtoSchema() = default;
  // Field numbers are assigned 1..N in the given order.
  explicit ProtoSchema(const rpc::Schema& schema);

  struct ProtoField {
    std::string name;
    uint32_t number;
    rpc::ValueType type;
  };

  const std::vector<ProtoField>& fields() const { return fields_; }
  const ProtoField* FindByNumber(uint32_t number) const;

 private:
  std::vector<ProtoField> fields_;
};

// Encode the message's schema fields (payload only; RPC metadata travels in
// HTTP/2 headers on this stack).
Result<Bytes> ProtoEncode(const rpc::Message& message,
                          const ProtoSchema& schema);

// Decode into a fresh message (metadata left default). Unknown fields are
// skipped, as protobuf requires.
Result<rpc::Message> ProtoDecode(std::span<const uint8_t> wire,
                                 const ProtoSchema& schema);

}  // namespace adn::stack
