#include "rpc/wire.h"

namespace adn::rpc {

namespace {
// Cell tags: 0 = NULL, 1 = present (type comes from the spec).
constexpr uint8_t kCellNull = 0;
constexpr uint8_t kCellPresent = 1;
}  // namespace

void HeaderSpec::ResolveFieldIds() {
  if (field_ids.size() == fields.size()) return;
  field_ids.clear();
  field_ids.reserve(fields.size());
  for (const Column& c : fields) {
    field_ids.push_back(InternFieldName(c.name));
  }
}

std::string HeaderSpec::DebugString() const {
  std::string out = "HeaderSpec[";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields[i].name;
    out += ":";
    out += ValueTypeName(fields[i].type);
  }
  out += "]";
  return out;
}

uint32_t MethodRegistry::Intern(std::string_view method) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == method) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(method);
  return static_cast<uint32_t>(names_.size() - 1);
}

Result<uint32_t> MethodRegistry::Lookup(std::string_view method) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == method) return static_cast<uint32_t>(i);
  }
  return Error(ErrorCode::kNotFound,
               "method '" + std::string(method) + "' not registered");
}

Result<std::string> MethodRegistry::Reverse(uint32_t id) const {
  if (id >= names_.size()) {
    return Error(ErrorCode::kNotFound,
                 "method id " + std::to_string(id) + " not registered");
  }
  return names_[id];
}

void EncodeValue(const Value& v, ByteWriter& w) {
  if (v.is_null()) {
    w.WriteU8(kCellNull);
    return;
  }
  w.WriteU8(kCellPresent);
  switch (v.type()) {
    case ValueType::kNull:
      break;  // unreachable, handled above
    case ValueType::kBool:
      w.WriteU8(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      w.WriteSignedVarint(v.AsInt());
      break;
    case ValueType::kFloat:
      w.WriteF64(v.AsFloat());
      break;
    case ValueType::kText:
      w.WriteString(v.AsText());
      break;
    case ValueType::kBytes:
      w.WriteLengthPrefixed(v.AsBytes());
      break;
  }
}

Result<Value> DecodeValue(ValueType declared, ByteReader& r) {
  ADN_ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
  if (tag == kCellNull) return Value::Null();
  if (tag != kCellPresent) {
    return Error(ErrorCode::kParseError,
                 "bad cell tag " + std::to_string(tag));
  }
  switch (declared) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      ADN_ASSIGN_OR_RETURN(uint8_t b, r.ReadU8());
      return Value(b != 0);
    }
    case ValueType::kInt: {
      ADN_ASSIGN_OR_RETURN(int64_t i, r.ReadSignedVarint());
      return Value(i);
    }
    case ValueType::kFloat: {
      ADN_ASSIGN_OR_RETURN(double d, r.ReadF64());
      return Value(d);
    }
    case ValueType::kText: {
      ADN_ASSIGN_OR_RETURN(auto span, r.ReadLengthPrefixed());
      return Value(std::string_view(reinterpret_cast<const char*>(span.data()),
                                    span.size()));
    }
    case ValueType::kBytes: {
      ADN_ASSIGN_OR_RETURN(auto span, r.ReadLengthPrefixed());
      return Value(Bytes(span.begin(), span.end()));
    }
  }
  return Error(ErrorCode::kInternal, "unhandled declared type");
}

Status AdnWireCodec::Encode(const Message& m, Bytes& out) const {
  ByteWriter w(out);
  w.WriteU8(static_cast<uint8_t>(m.kind()));
  w.WriteU64(m.id());
  uint32_t method_id = 0;
  if (methods_ != nullptr) {
    auto r = methods_->Lookup(m.method());
    if (!r.ok()) return r.error();
    method_id = r.value();
  }
  w.WriteU32(method_id);
  w.WriteU32(m.source());
  w.WriteU32(m.destination());
  for (size_t i = 0; i < spec_.fields.size(); ++i) {
    const Column& c = spec_.fields[i];
    const Value& v = m.GetFieldOrNull(spec_.field_ids[i]);
    if (!v.is_null() && v.type() != c.type) {
      return Status(ErrorCode::kTypeError,
                    "field '" + c.name + "' has type " +
                        std::string(ValueTypeName(v.type())) +
                        ", spec expects " +
                        std::string(ValueTypeName(c.type)));
    }
    EncodeValue(v, w);
  }
  if (m.kind() == MessageKind::kError) {
    ByteWriter(out).WriteString(m.error_detail());
  }
  return Status::Ok();
}

Result<Message> AdnWireCodec::Decode(std::span<const uint8_t> wire) const {
  ByteReader r(wire);
  Message m;
  ADN_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind > static_cast<uint8_t>(MessageKind::kError)) {
    return Error(ErrorCode::kParseError,
                 "bad message kind " + std::to_string(kind));
  }
  m.set_kind(static_cast<MessageKind>(kind));
  ADN_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
  m.set_id(id);
  ADN_ASSIGN_OR_RETURN(uint32_t method_id, r.ReadU32());
  if (methods_ != nullptr) {
    ADN_ASSIGN_OR_RETURN(std::string method, methods_->Reverse(method_id));
    m.set_method(std::move(method));
  }
  ADN_ASSIGN_OR_RETURN(uint32_t src, r.ReadU32());
  m.set_source(src);
  ADN_ASSIGN_OR_RETURN(uint32_t dst, r.ReadU32());
  m.set_destination(dst);
  for (size_t i = 0; i < spec_.fields.size(); ++i) {
    ADN_ASSIGN_OR_RETURN(Value v, DecodeValue(spec_.fields[i].type, r));
    if (!v.is_null()) m.SetField(spec_.field_ids[i], std::move(v));
  }
  if (m.kind() == MessageKind::kError) {
    ADN_ASSIGN_OR_RETURN(std::string detail, r.ReadString());
    m.set_error_detail(std::move(detail));
  }
  return m;
}

}  // namespace adn::rpc
