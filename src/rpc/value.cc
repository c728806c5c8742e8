#include "rpc/value.h"

#include <algorithm>

#include "common/strings.h"

namespace adn::rpc {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kBool: return "BOOL";
    case ValueType::kInt: return "INT";
    case ValueType::kFloat: return "FLOAT";
    case ValueType::kText: return "TEXT";
    case ValueType::kBytes: return "BYTES";
  }
  return "?";
}

Result<ValueType> ParseValueType(std::string_view name) {
  std::string upper = ToUpperAscii(name);
  if (upper == "BOOL" || upper == "BOOLEAN") return ValueType::kBool;
  if (upper == "INT" || upper == "INTEGER" || upper == "BIGINT") {
    return ValueType::kInt;
  }
  if (upper == "FLOAT" || upper == "DOUBLE" || upper == "REAL") {
    return ValueType::kFloat;
  }
  if (upper == "TEXT" || upper == "STRING" || upper == "VARCHAR") {
    return ValueType::kText;
  }
  if (upper == "BYTES" || upper == "BLOB") return ValueType::kBytes;
  return Error(ErrorCode::kTypeError,
               "unknown type name '" + std::string(name) + "'");
}

void Value::CopyFrom(const Value& other) {
  // Materialize borrowed slices into owned storage; plain copy otherwise.
  if (const auto* t = std::get_if<TextSlice>(&other.repr_)) {
    repr_.emplace<std::string>(t->data, t->size);
  } else if (const auto* b = std::get_if<BytesSlice>(&other.repr_)) {
    repr_.emplace<Bytes>(b->data, b->data + b->size);
  } else {
    repr_ = other.repr_;
  }
}

bool Value::EqualsValue(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (IsNumeric() && other.IsNumeric()) {
    if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
      return AsInt() == other.AsInt();
    }
    return NumericAsDouble() == other.NumericAsDouble();
  }
  if (type() != other.type()) return false;
  // Compare through the type()-level views so owned values and arena slices
  // of equal content are equal regardless of representation.
  switch (type()) {
    case ValueType::kBool: return AsBool() == other.AsBool();
    case ValueType::kText: return AsText() == other.AsText();
    case ValueType::kBytes: return AsBytes() == other.AsBytes();
    default: return false;
  }
}

int Value::CompareTo(const Value& other) const {
  // NULL sorts first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (IsNumeric() && other.IsNumeric()) {
    if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
      int64_t a = AsInt();
      int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = NumericAsDouble();
    double b = other.NumericAsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) {
    // Heterogeneous non-numeric: order by type tag for a stable total order.
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kBool:
      return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
    case ValueType::kText: {
      int c = AsText().compare(other.AsText());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kBytes: {
      const BytesView a = AsBytes();
      const BytesView b = other.AsBytes();
      if (auto c = std::lexicographical_compare_three_way(
              a.begin(), a.end(), b.begin(), b.end());
          c != 0) {
        return c < 0 ? -1 : 1;
      }
      return 0;
    }
    default:
      return 0;
  }
}

std::string Value::ToDisplayString() const {
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kBool: return AsBool() ? "true" : "false";
    case ValueType::kInt: return std::to_string(AsInt());
    case ValueType::kFloat: return std::to_string(AsFloat());
    case ValueType::kText: return "'" + std::string(AsText()) + "'";
    case ValueType::kBytes:
      return "<" + std::to_string(AsBytes().size()) + " bytes>";
  }
  return "?";
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x9AE16A3B2F90404FULL;
    case ValueType::kBool:
      return v.AsBool() ? 0x5851F42D4C957F2DULL : 0x14057B7EF767814FULL;
    case ValueType::kInt: {
      uint64_t x = static_cast<uint64_t>(v.AsInt());
      // Mix (splitmix finalizer).
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      return x ^ (x >> 31);
    }
    case ValueType::kFloat: {
      double d = v.AsFloat();
      // Hash the integer value identically when exactly representable so
      // INT/FLOAT equality implies equal hashes for integral doubles.
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return HashValue(Value(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return Fnv1a64(&bits, sizeof(bits));
    }
    case ValueType::kText:
      return Fnv1a64(v.AsText());
    case ValueType::kBytes:
      return Fnv1a64(v.AsBytes().data(), v.AsBytes().size());
  }
  return 0;
}

}  // namespace adn::rpc
