// Dynamically-typed field values for RPC-as-tuple messages (paper §5.1).
//
// ADN views each RPC as a tuple with one or more named fields; elements read
// and write those fields. Value is the cell type of that tuple: a compact
// tagged union over the types the DSL supports (BOOL, INT, FLOAT, TEXT,
// BYTES, plus NULL for absent results of outer operations).
//
// Zero-allocation path: in addition to OWNED text/bytes (std::string/Bytes),
// a Value can be a borrowed SLICE — a pointer+length into an arena the
// enclosing Message is bound to (common/arena.h). Slices report the same
// type() as their owned counterparts and read through the same AsText()/
// AsBytes() views, so consumers cannot tell them apart; the difference is
// purely ownership. Copying a Value MATERIALIZES slices into owned storage
// (a slice never escapes the lifetime of its arena via copy — this is the
// invariant that lets state tables store copies of message fields safely);
// moving preserves the slice, which is safe because slices only move
// together with the message/arena that backs them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/bytes.h"
#include "common/status.h"

namespace adn::rpc {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,    // 64-bit signed
  kFloat = 3,  // IEEE double
  kText = 4,   // UTF-8 string
  kBytes = 5,  // opaque payload
};

std::string_view ValueTypeName(ValueType t);

// Parse a DSL type name ("INT", "TEXT", ...; case-insensitive).
Result<ValueType> ParseValueType(std::string_view name);

class Value {
 public:
  Value() = default;  // null
  Value(bool b) : repr_(b) {}                        // NOLINT: implicit by design
  Value(int64_t i) : repr_(i) {}                     // NOLINT
  Value(int i) : repr_(static_cast<int64_t>(i)) {}   // NOLINT
  Value(double d) : repr_(d) {}                      // NOLINT
  Value(std::string s) : repr_(std::move(s)) {}      // NOLINT
  Value(std::string_view s) : repr_(std::in_place_type<std::string>, s) {}  // NOLINT
  Value(const char* s) : repr_(std::in_place_type<std::string>, s) {}  // NOLINT
  Value(Bytes b) : repr_(std::move(b)) {}            // NOLINT

  // Copying materializes slices (see file comment); moving preserves them.
  Value(const Value& other) { CopyFrom(other); }
  Value& operator=(const Value& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  ~Value() = default;

  static Value Null() { return Value(); }

  // Borrowed slices into caller-managed storage (normally a message arena).
  // The caller guarantees the storage outlives every move of this Value.
  static Value BorrowText(const char* data, size_t size) {
    Value v;
    v.repr_.emplace<TextSlice>(TextSlice{data, static_cast<uint32_t>(size)});
    return v;
  }
  static Value BorrowBytes(const uint8_t* data, size_t size) {
    Value v;
    v.repr_.emplace<BytesSlice>(BytesSlice{data, static_cast<uint32_t>(size)});
    return v;
  }

  ValueType type() const {
    // Slice alternatives (indexes 6/7) report as TEXT/BYTES.
    static constexpr ValueType kTypeOfIndex[] = {
        ValueType::kNull,  ValueType::kBool,  ValueType::kInt,
        ValueType::kFloat, ValueType::kText,  ValueType::kBytes,
        ValueType::kText,  ValueType::kBytes,
    };
    return kTypeOfIndex[repr_.index()];
  }
  bool is_null() const { return type() == ValueType::kNull; }
  // True when this value borrows storage it does not own (arena slice).
  bool is_borrowed() const { return repr_.index() >= kTextSliceIndex; }

  // Unchecked accessors; callers verify type() first (the DSL type checker
  // guarantees this on compiled paths).
  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsFloat() const { return std::get<double>(repr_); }
  std::string_view AsText() const {
    if (const auto* s = std::get_if<std::string>(&repr_)) return *s;
    const TextSlice& t = std::get<TextSlice>(repr_);
    return {t.data, t.size};
  }
  BytesView AsBytes() const {
    if (const auto* b = std::get_if<Bytes>(&repr_)) return BytesView(*b);
    const BytesSlice& s = std::get<BytesSlice>(repr_);
    return {s.data, s.size};
  }
  // Owned-storage mutation (throws on slices; compiled hot paths never
  // mutate in place).
  Bytes& MutableBytes() { return std::get<Bytes>(repr_); }
  std::string& MutableText() { return std::get<std::string>(repr_); }

  // Numeric coercion used by comparison operators: INT compares with FLOAT.
  bool IsNumeric() const {
    return type() == ValueType::kInt || type() == ValueType::kFloat;
  }
  double NumericAsDouble() const {
    return type() == ValueType::kInt ? static_cast<double>(AsInt())
                                     : AsFloat();
  }

  // SQL-style three-valued comparisons are flattened to two-valued here:
  // comparisons involving NULL are false; Equals(NULL, NULL) is false.
  bool EqualsValue(const Value& other) const;
  // Ordering for ORDER BY / MIN / MAX and b-tree state tables.
  // NULL sorts before everything; cross-type numeric compares allowed.
  int CompareTo(const Value& other) const;

  // Debug/display rendering.
  std::string ToDisplayString() const;

  bool operator==(const Value& other) const { return EqualsValue(other); }

 private:
  struct TextSlice {
    const char* data;
    uint32_t size;
  };
  struct BytesSlice {
    const uint8_t* data;
    uint32_t size;
  };
  static constexpr size_t kTextSliceIndex = 6;

  void CopyFrom(const Value& other);

  std::variant<std::monostate, bool, int64_t, double, std::string, Bytes,
               TextSlice, BytesSlice>
      repr_;
};

// Hash compatible with EqualsValue (numeric INT/FLOAT with equal value hash
// alike only when exactly representable; our group-by keys are same-typed so
// this is sufficient and documented in the IR type checker).
uint64_t HashValue(const Value& v);

}  // namespace adn::rpc
