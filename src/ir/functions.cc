#include "ir/functions.h"

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <optional>

#include "common/codec.h"
#include "common/rng.h"
#include "common/strings.h"

namespace adn::ir {

namespace {

using rpc::Value;
using rpc::ValueType;

Error WrongType(std::string_view fn, std::string_view what) {
  return Error(ErrorCode::kTypeError,
               std::string(fn) + ": unexpected argument type (" +
                   std::string(what) + ")");
}

// Payload UDFs read their arguments through unchecked accessors, and a
// message field may carry any type at run time. Returns the result such a
// call must give instead of running: NULL when an argument is NULL (SQL
// semantics), a type error (which aborts the RPC with its reason) when one
// has the wrong type, nothing when all arguments match `want`.
std::optional<Result<Value>> RejectArgs(std::string_view fn,
                                        const std::vector<Value>& args,
                                        std::initializer_list<ValueType> want) {
  bool any_null = false;
  size_t i = 0;
  for (ValueType t : want) {
    const Value& arg = args[i++];
    if (arg.is_null()) {
      any_null = true;
    } else if (arg.type() != t) {
      return WrongType(fn, "want " + std::string(rpc::ValueTypeName(t)) +
                               ", got " +
                               std::string(rpc::ValueTypeName(arg.type())));
    }
  }
  if (any_null) return Result<Value>(Value::Null());
  return std::nullopt;
}

// Canonical byte image of a value for hashing (stable across runs/platforms).
uint64_t HashValueCanonical(const Value& v) {
  switch (v.type()) {
    case ValueType::kText: return Fnv1a64(v.AsText());
    case ValueType::kBytes:
      return Fnv1a64(v.AsBytes().data(), v.AsBytes().size());
    case ValueType::kInt: {
      int64_t x = v.AsInt();
      return Fnv1a64(&x, sizeof(x));
    }
    case ValueType::kBool: {
      uint8_t b = v.AsBool() ? 1 : 0;
      return Fnv1a64(&b, 1);
    }
    case ValueType::kFloat: {
      double d = v.AsFloat();
      return Fnv1a64(&d, sizeof(d));
    }
    case ValueType::kNull: return 0;
  }
  return 0;
}

FunctionDef Simple(std::string name, std::vector<ValueType> args,
                   ValueType result, EvalCallback eval) {
  FunctionDef def;
  def.name = std::move(name);
  def.arg_types = std::move(args);
  def.result_type = result;
  def.eval = std::move(eval);
  return def;
}

std::shared_ptr<FunctionRegistry> BuildBuiltins() {
  auto reg = std::make_shared<FunctionRegistry>();
  auto add = [&](FunctionDef def) {
    Status s = reg->Register(std::move(def));
    (void)s;  // built-in names are unique by construction
  };

  // hash(any) -> INT. Offloadable everywhere: eBPF helpers and P4 hash units
  // both provide hashing, which is what makes LB-on-switch possible (§2).
  {
    auto def = Simple("hash", {ValueType::kNull}, ValueType::kInt,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        return Value(static_cast<int64_t>(
                            HashValueCanonical(args[0]) >> 1));
                      });
    def.arg_types[0] = ValueType::kNull;  // NULL spec slot = any type
    def.ebpf_ok = true;
    def.p4_ok = true;
    add(std::move(def));
  }

  // len(TEXT|BYTES) -> INT
  {
    auto def = Simple("len", {ValueType::kNull}, ValueType::kInt,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        const Value& v = args[0];
                        if (v.type() == ValueType::kText) {
                          return Value(static_cast<int64_t>(v.AsText().size()));
                        }
                        if (v.type() == ValueType::kBytes) {
                          return Value(
                              static_cast<int64_t>(v.AsBytes().size()));
                        }
                        return WrongType("len", "want TEXT or BYTES");
                      });
    def.ebpf_ok = true;
    def.p4_ok = true;
    add(std::move(def));
  }

  // min/max/abs over numerics.
  {
    auto def = Simple("min", {ValueType::kNull, ValueType::kNull},
                      ValueType::kNull,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (!args[0].IsNumeric() || !args[1].IsNumeric()) {
                          return WrongType("min", "want numeric");
                        }
                        return args[0].CompareTo(args[1]) <= 0
                                   ? std::move(args[0])
                                   : std::move(args[1]);
                      });
    def.variadic_numeric = true;
    def.ebpf_ok = true;
    add(std::move(def));
  }
  {
    auto def = Simple("max", {ValueType::kNull, ValueType::kNull},
                      ValueType::kNull,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (!args[0].IsNumeric() || !args[1].IsNumeric()) {
                          return WrongType("max", "want numeric");
                        }
                        return args[0].CompareTo(args[1]) >= 0
                                   ? std::move(args[0])
                                   : std::move(args[1]);
                      });
    def.variadic_numeric = true;
    def.ebpf_ok = true;
    add(std::move(def));
  }
  {
    auto def = Simple("abs", {ValueType::kNull}, ValueType::kNull,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (args[0].type() == ValueType::kInt) {
                          return Value(std::abs(args[0].AsInt()));
                        }
                        if (args[0].type() == ValueType::kFloat) {
                          return Value(std::fabs(args[0].AsFloat()));
                        }
                        return WrongType("abs", "want numeric");
                      });
    def.variadic_numeric = true;
    def.ebpf_ok = true;
    add(std::move(def));
  }

  // Conversions.
  add(Simple("to_text", {ValueType::kNull}, ValueType::kText,
             [](const FunctionContext&, std::vector<Value>& args)
                 -> Result<Value> {
               switch (args[0].type()) {
                 case ValueType::kText: return std::move(args[0]);
                 case ValueType::kInt:
                   return Value(std::to_string(args[0].AsInt()));
                 case ValueType::kFloat:
                   return Value(std::to_string(args[0].AsFloat()));
                 case ValueType::kBool:
                   return Value(args[0].AsBool() ? std::string("true")
                                                 : std::string("false"));
                 case ValueType::kBytes:
                   return Value(std::string(AsStringView(args[0].AsBytes())));
                 case ValueType::kNull: return Value(std::string("NULL"));
               }
               return WrongType("to_text", "?");
             }));
  add(Simple("to_int", {ValueType::kNull}, ValueType::kInt,
             [](const FunctionContext&, std::vector<Value>& args)
                 -> Result<Value> {
               switch (args[0].type()) {
                 case ValueType::kInt: return std::move(args[0]);
                 case ValueType::kFloat:
                   return Value(static_cast<int64_t>(args[0].AsFloat()));
                 case ValueType::kBool:
                   return Value(static_cast<int64_t>(args[0].AsBool()));
                 case ValueType::kText: {
                   errno = 0;
                   char* end = nullptr;
                   const std::string s(args[0].AsText());
                   long long v = std::strtoll(s.c_str(), &end, 10);
                   if (end != s.c_str() + s.size() || errno != 0) {
                     return Error(ErrorCode::kInvalidArgument,
                                  "to_int: '" + s + "' is not an integer");
                   }
                   return Value(static_cast<int64_t>(v));
                 }
                 default:
                   return WrongType("to_int", "want scalar");
               }
             }));

  // Nondeterministic builtins.
  {
    auto def = Simple("random", {}, ValueType::kFloat,
                      [](const FunctionContext& ctx, std::vector<Value>&)
                          -> Result<Value> {
                        if (ctx.rng == nullptr) {
                          return Error(ErrorCode::kFailedPrecondition,
                                       "random(): no RNG in context");
                        }
                        return Value(ctx.rng->NextDouble());
                      });
    def.deterministic = false;
    def.ebpf_ok = true;  // bpf_get_prandom_u32
    def.p4_ok = true;    // RNG externs exist on Tofino-class switches
    add(std::move(def));
  }
  {
    auto def = Simple("now", {}, ValueType::kInt,
                      [](const FunctionContext& ctx, std::vector<Value>&)
                          -> Result<Value> { return Value(ctx.now_ns); });
    def.deterministic = false;
    def.ebpf_ok = true;  // bpf_ktime_get_ns
    def.p4_ok = true;
    add(std::move(def));
  }

  // Metadata readers.
  auto add_meta = [&](std::string name, ValueType type, auto getter,
                      bool p4_ok) {
    auto def = Simple(std::move(name), {}, type,
                      [getter](const FunctionContext& ctx,
                               std::vector<Value>&) -> Result<Value> {
                        if (ctx.message == nullptr) {
                          return Error(ErrorCode::kFailedPrecondition,
                                       "metadata builtin: no message bound");
                        }
                        return getter(*ctx.message);
                      });
    def.reads_metadata = true;
    def.ebpf_ok = true;
    def.p4_ok = p4_ok;
    add(std::move(def));
  };
  add_meta("rpc_id", ValueType::kInt,
           [](const rpc::Message& m) {
             return Value(static_cast<int64_t>(m.id()));
           },
           true);
  add_meta("method", ValueType::kText,
           [](const rpc::Message& m) { return Value(m.method()); }, false);
  add_meta("source", ValueType::kInt,
           [](const rpc::Message& m) {
             return Value(static_cast<int64_t>(m.source()));
           },
           true);
  add_meta("destination", ValueType::kInt,
           [](const rpc::Message& m) {
             return Value(static_cast<int64_t>(m.destination()));
           },
           true);

  // Payload UDFs — real byte transforms from common/codec.h. Not offloadable
  // to P4 (arbitrary payload rewriting exceeds match-action), compression is
  // too stateful for the eBPF verifier model we target; encryption is allowed
  // on eBPF (fixed-round block cipher, bounded loops).
  {
    auto def = Simple("compress", {ValueType::kBytes}, ValueType::kBytes,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (auto r = RejectArgs("compress", args,
                                                {ValueType::kBytes})) {
                          return *std::move(r);
                        }
                        return Value(CompressBytes(args[0].AsBytes()));
                      });
    def.per_byte_cost_ns = 1.9;
    add(std::move(def));
  }
  {
    auto def = Simple("decompress", {ValueType::kBytes}, ValueType::kBytes,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (auto r = RejectArgs("decompress", args,
                                                {ValueType::kBytes})) {
                          return *std::move(r);
                        }
                        ADN_ASSIGN_OR_RETURN(
                            Bytes plain, DecompressBytes(args[0].AsBytes()));
                        return Value(std::move(plain));
                      });
    def.per_byte_cost_ns = 0.9;
    add(std::move(def));
  }
  {
    auto def = Simple("encrypt", {ValueType::kBytes, ValueType::kText},
                      ValueType::kBytes,
                      [](const FunctionContext& ctx, std::vector<Value>& args)
                          -> Result<Value> {
                        if (auto r = RejectArgs(
                                "encrypt", args,
                                {ValueType::kBytes, ValueType::kText})) {
                          return *std::move(r);
                        }
                        return Value(EncryptBytes(args[0].AsBytes(),
                                                  args[1].AsText(),
                                                  ctx.nonce));
                      });
    def.per_byte_cost_ns = 2.4;
    def.deterministic = false;  // fresh nonce per message
    def.ebpf_ok = true;
    add(std::move(def));
  }
  {
    auto def = Simple("decrypt", {ValueType::kBytes, ValueType::kText},
                      ValueType::kBytes,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (auto r = RejectArgs(
                                "decrypt", args,
                                {ValueType::kBytes, ValueType::kText})) {
                          return *std::move(r);
                        }
                        ADN_ASSIGN_OR_RETURN(
                            Bytes plain,
                            DecryptBytes(args[0].AsBytes(), args[1].AsText()));
                        return Value(std::move(plain));
                      });
    def.per_byte_cost_ns = 2.4;
    def.ebpf_ok = true;
    add(std::move(def));
  }
  {
    auto def = Simple("crc32", {ValueType::kBytes}, ValueType::kInt,
                      [](const FunctionContext&, std::vector<Value>& args)
                          -> Result<Value> {
                        if (auto r = RejectArgs("crc32", args,
                                                {ValueType::kBytes})) {
                          return *std::move(r);
                        }
                        return Value(static_cast<int64_t>(
                            Crc32c(args[0].AsBytes())));
                      });
    def.per_byte_cost_ns = 0.3;
    def.ebpf_ok = true;
    def.p4_ok = true;  // checksum units
    add(std::move(def));
  }

  return reg;
}

}  // namespace

std::shared_ptr<const FunctionRegistry> FunctionRegistry::Builtins() {
  static const std::shared_ptr<const FunctionRegistry> kRegistry =
      BuildBuiltins();
  return kRegistry;
}

Status FunctionRegistry::Register(FunctionDef def) {
  if (Find(def.name) != nullptr) {
    return Status(ErrorCode::kAlreadyExists,
                  "function '" + def.name + "' already registered");
  }
  functions_.push_back(std::move(def));
  return Status::Ok();
}

const FunctionDef* FunctionRegistry::Find(std::string_view name) const {
  for (const auto& f : functions_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(functions_.size());
  for (const auto& f : functions_) out.push_back(f.name);
  return out;
}

}  // namespace adn::ir
