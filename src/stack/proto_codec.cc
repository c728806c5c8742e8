#include "stack/proto_codec.h"

namespace adn::stack {

namespace {
// Protobuf wire types.
constexpr uint32_t kVarint = 0;
constexpr uint32_t kFixed64 = 1;
constexpr uint32_t kLengthDelimited = 2;

uint32_t WireTypeFor(rpc::ValueType type) {
  switch (type) {
    case rpc::ValueType::kBool:
    case rpc::ValueType::kInt:
      return kVarint;
    case rpc::ValueType::kFloat:
      return kFixed64;
    default:
      return kLengthDelimited;
  }
}
}  // namespace

ProtoSchema::ProtoSchema(const rpc::Schema& schema) {
  uint32_t number = 1;
  for (const rpc::Column& c : schema.columns()) {
    fields_.push_back(ProtoField{c.name, number++, c.type});
  }
}

const ProtoSchema::ProtoField* ProtoSchema::FindByNumber(
    uint32_t number) const {
  for (const auto& f : fields_) {
    if (f.number == number) return &f;
  }
  return nullptr;
}

Result<Bytes> ProtoEncode(const rpc::Message& message,
                          const ProtoSchema& schema) {
  Bytes out;
  ByteWriter w(out);
  for (const auto& field : schema.fields()) {
    const rpc::Value* v = message.FindField(field.name);
    if (v == nullptr || v->is_null()) continue;  // proto3: absent = default
    if (v->type() != field.type) {
      return Error(ErrorCode::kTypeError,
                   "proto field '" + field.name + "' expects " +
                       std::string(rpc::ValueTypeName(field.type)) +
                       ", message has " +
                       std::string(rpc::ValueTypeName(v->type())));
    }
    w.WriteVarint((field.number << 3) | WireTypeFor(field.type));
    switch (field.type) {
      case rpc::ValueType::kBool:
        w.WriteVarint(v->AsBool() ? 1 : 0);
        break;
      case rpc::ValueType::kInt:
        // proto int64: two's complement varint (10 bytes when negative).
        w.WriteVarint(static_cast<uint64_t>(v->AsInt()));
        break;
      case rpc::ValueType::kFloat:
        w.WriteF64(v->AsFloat());
        break;
      case rpc::ValueType::kText:
        w.WriteString(v->AsText());
        break;
      case rpc::ValueType::kBytes:
        w.WriteLengthPrefixed(v->AsBytes());
        break;
      case rpc::ValueType::kNull:
        break;
    }
  }
  return out;
}

Result<rpc::Message> ProtoDecode(std::span<const uint8_t> wire,
                                 const ProtoSchema& schema) {
  rpc::Message out;
  ByteReader r(wire);
  while (!r.AtEnd()) {
    ADN_ASSIGN_OR_RETURN(uint64_t key, r.ReadVarint());
    uint32_t number = static_cast<uint32_t>(key >> 3);
    uint32_t wire_type = static_cast<uint32_t>(key & 7);
    const ProtoSchema::ProtoField* field = schema.FindByNumber(number);
    if (field == nullptr) {
      // Unknown field: skip per wire type.
      switch (wire_type) {
        case kVarint: {
          ADN_ASSIGN_OR_RETURN(uint64_t ignored, r.ReadVarint());
          (void)ignored;
          break;
        }
        case kFixed64:
          ADN_RETURN_IF_ERROR(r.Skip(8));
          break;
        case kLengthDelimited: {
          ADN_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
          ADN_RETURN_IF_ERROR(r.Skip(len));
          break;
        }
        default:
          return Error(ErrorCode::kParseError,
                       "unsupported proto wire type " +
                           std::to_string(wire_type));
      }
      continue;
    }
    if (wire_type != WireTypeFor(field->type)) {
      return Error(ErrorCode::kParseError,
                   "proto field '" + field->name + "' has wire type " +
                       std::to_string(wire_type) + ", expected " +
                       std::to_string(WireTypeFor(field->type)));
    }
    switch (field->type) {
      case rpc::ValueType::kBool: {
        ADN_ASSIGN_OR_RETURN(uint64_t v, r.ReadVarint());
        out.SetField(field->name, rpc::Value(v != 0));
        break;
      }
      case rpc::ValueType::kInt: {
        ADN_ASSIGN_OR_RETURN(uint64_t v, r.ReadVarint());
        out.SetField(field->name, rpc::Value(static_cast<int64_t>(v)));
        break;
      }
      case rpc::ValueType::kFloat: {
        ADN_ASSIGN_OR_RETURN(double v, r.ReadF64());
        out.SetField(field->name, rpc::Value(v));
        break;
      }
      case rpc::ValueType::kText: {
        ADN_ASSIGN_OR_RETURN(std::string v, r.ReadString());
        out.SetField(field->name, rpc::Value(std::move(v)));
        break;
      }
      case rpc::ValueType::kBytes: {
        ADN_ASSIGN_OR_RETURN(auto v, r.ReadLengthPrefixed());
        out.SetField(field->name, rpc::Value(Bytes(v.begin(), v.end())));
        break;
      }
      case rpc::ValueType::kNull:
        break;
    }
  }
  return out;
}

}  // namespace adn::stack
