#include "rpc/flat_wire.h"

#include <cstring>

namespace adn::rpc {

namespace {

void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

struct VarPayload {
  const uint8_t* data = nullptr;
  uint32_t size = 0;
};

// Inline payload + optional var-section span for one value.
bool FlattenValue(const Value& v, uint64_t& payload, uint32_t& len,
                  VarPayload& var) {
  switch (v.type()) {
    case ValueType::kNull:
      payload = 0;
      len = 0;
      return true;
    case ValueType::kBool:
      payload = v.AsBool() ? 1 : 0;
      len = 0;
      return true;
    case ValueType::kInt:
      payload = static_cast<uint64_t>(v.AsInt());
      len = 0;
      return true;
    case ValueType::kFloat: {
      double d = v.AsFloat();
      std::memcpy(&payload, &d, sizeof(payload));
      len = 0;
      return true;
    }
    case ValueType::kText: {
      std::string_view s = v.AsText();
      var.data = reinterpret_cast<const uint8_t*>(s.data());
      var.size = static_cast<uint32_t>(s.size());
      len = var.size;
      return true;
    }
    case ValueType::kBytes: {
      BytesView b = v.AsBytes();
      var.data = b.data();
      var.size = static_cast<uint32_t>(b.size());
      len = var.size;
      return true;
    }
  }
  return false;
}

}  // namespace

Status EncodeFieldsFlat(const Message& m, Bytes& out) {
  if (m.FieldCount() > 0xFFFF) {
    return Status(ErrorCode::kInvalidArgument, "too many fields for u16");
  }
  size_t var_total = 0;
  for (const Field& f : m.fields()) {
    if (f.value.type() == ValueType::kText) var_total += f.value.AsText().size();
    if (f.value.type() == ValueType::kBytes) {
      var_total += f.value.AsBytes().size();
    }
  }
  const size_t base = out.size();
  out.resize(base + 6 + m.FieldCount() * kFlatRecordBytes + var_total);
  uint8_t* p = out.data() + base;
  PutU16(p, static_cast<uint16_t>(m.FieldCount()));
  PutU32(p + 2, static_cast<uint32_t>(var_total));
  uint8_t* rec = p + 6;
  uint8_t* var = rec + m.FieldCount() * kFlatRecordBytes;
  uint8_t* var_cursor = var;
  for (const Field& f : m.fields()) {
    uint64_t payload = 0;
    uint32_t len = 0;
    VarPayload vp;
    if (!FlattenValue(f.value, payload, len, vp)) {
      return Status(ErrorCode::kInternal, "unhandled value type");
    }
    PutU16(rec, f.id);
    rec[2] = static_cast<uint8_t>(f.value.type());
    rec[3] = 0;
    PutU32(rec + 4, len);
    if (f.value.type() == ValueType::kText ||
        f.value.type() == ValueType::kBytes) {
      payload = static_cast<uint64_t>(var_cursor - var);
      if (vp.size > 0) std::memcpy(var_cursor, vp.data, vp.size);
      var_cursor += vp.size;
    }
    PutU64(rec + 8, payload);
    rec += kFlatRecordBytes;
  }
  return Status::Ok();
}

Status DecodeFieldsFlatInto(std::span<const uint8_t> wire, Message& m) {
  ByteReader r(wire);
  ADN_ASSIGN_OR_RETURN(uint16_t nfields, r.ReadU16());
  ADN_ASSIGN_OR_RETURN(uint32_t var_len, r.ReadU32());
  ADN_ASSIGN_OR_RETURN(auto records,
                       r.ReadBytes(size_t{nfields} * kFlatRecordBytes));
  ADN_ASSIGN_OR_RETURN(auto var, r.ReadBytes(var_len));

  // Check every record before the message changes: a bad type tag or a
  // slice outside the variable section is an error that leaves `m` as it
  // was. A record is {u16 field id, u8 type, u8 pad, u32 len, u64 payload}.
  for (uint16_t i = 0; i < nfields; ++i) {
    const uint8_t* rec = records.data() + size_t{i} * kFlatRecordBytes;
    const uint8_t type = rec[2];
    if (type > static_cast<uint8_t>(ValueType::kBytes)) {
      return Error(ErrorCode::kParseError,
                   "bad flat value type " + std::to_string(type));
    }
    const uint32_t len = GetU32(rec + 4);
    const uint64_t payload = GetU64(rec + 8);
    const bool sliced = type == static_cast<uint8_t>(ValueType::kText) ||
                        type == static_cast<uint8_t>(ValueType::kBytes);
    if (sliced && (payload > var_len || len > var_len - payload)) {
      return Error(ErrorCode::kParseError, "flat slice out of range");
    }
  }

  common::Arena* arena = m.arena();
  const uint8_t* var_base = var.data();
  if (arena != nullptr && var_len > 0) {
    var_base = arena->CopyBytes(var.data(), var_len);
  }

  // Destroy the current fields in place (allocation-free), then graft the
  // decoded ones.
  m.ProjectFields({});
  for (uint16_t i = 0; i < nfields; ++i) {
    const uint8_t* rec = records.data() + size_t{i} * kFlatRecordBytes;
    const uint16_t fid = GetU16(rec);
    const uint8_t type = rec[2];
    const uint32_t len = GetU32(rec + 4);
    const uint64_t payload = GetU64(rec + 8);
    const ValueType vt = static_cast<ValueType>(type);
    switch (vt) {
      case ValueType::kNull:
        m.AppendField(fid, Value::Null());
        break;
      case ValueType::kBool:
        m.AppendField(fid, Value(payload != 0));
        break;
      case ValueType::kInt:
        m.AppendField(fid, Value(static_cast<int64_t>(payload)));
        break;
      case ValueType::kFloat: {
        double d;
        std::memcpy(&d, &payload, sizeof(d));
        m.AppendField(fid, Value(d));
        break;
      }
      case ValueType::kText:
      case ValueType::kBytes: {
        const uint8_t* data = var_base + payload;
        if (arena != nullptr) {
          m.AppendField(fid, vt == ValueType::kText
                                 ? Value::BorrowText(
                                       reinterpret_cast<const char*>(data),
                                       len)
                                 : Value::BorrowBytes(data, len));
        } else {
          m.AppendField(
              fid, vt == ValueType::kText
                       ? Value(std::string_view(
                             reinterpret_cast<const char*>(data), len))
                       : Value(Bytes(data, data + len)));
        }
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace adn::rpc
