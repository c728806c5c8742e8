// Message: an RPC viewed as a tuple of named fields (paper §5.1), plus the
// routing metadata every processor needs (ids, kind, endpoints).
//
// Elements read/modify/drop Messages. Field storage is FLAT: a contiguous
// buffer of (FieldId, Value) pairs. Field names are interned process-wide
// (rpc/intern.h), so the per-field cost of a lookup is an integer compare —
// RPCs have a handful of fields, so a linear id scan beats hashing, and
// iteration order is stable, which the codecs rely on.
//
// Storage comes in two modes:
//  - HEAP (default): the field buffer is a normal heap allocation and every
//    Value owns its payload. This is the legacy path the sim/mesh tiers use.
//  - ARENA: the message is bound to a common::Arena; the field buffer and
//    all TEXT/BYTES payloads written through SetText/SetBytes are bump-
//    allocated there, so a steady-state message costs zero heap allocations.
//    When the arena was leased from an ArenaPool, the message carries the
//    lease: moving the message moves the lease (this is how SpscRing slots
//    hand a message across threads without copying), and whichever thread
//    destroys the message releases the arena back to its pool.
// Copying a message always produces an independent HEAP message (Value's
// copy materializes arena slices), so snapshots and table writes are safe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "rpc/intern.h"
#include "rpc/value.h"

namespace adn::rpc {

// Flat endpoint identifier on the virtual L2 substrate (paper §3: a flat id
// "such as a MAC address"). Assigned by the cluster manager.
using EndpointId = uint32_t;
inline constexpr EndpointId kInvalidEndpoint = 0xFFFFFFFF;

enum class MessageKind : uint8_t {
  kRequest = 0,
  kResponse = 1,
  kError = 2,  // generated by the network (e.g. fault injection abort)
};

struct Field {
  FieldId id = 0;
  Value value;

  Field() = default;
  Field(FieldId field_id, Value v) : id(field_id), value(std::move(v)) {}
  // Compat constructor: interns the name (setup/test paths; hot paths carry
  // ids).
  Field(std::string_view field_name, Value v)
      : id(InternFieldName(field_name)), value(std::move(v)) {}

  std::string_view name() const { return FieldNameOf(id); }
};

class Message {
 public:
  Message() = default;
  Message(const Message& other);
  Message& operator=(const Message& other);
  Message(Message&& other) noexcept;
  Message& operator=(Message&& other) noexcept;
  ~Message();

  // --- Arena binding ------------------------------------------------------
  // Lease an arena from `pool` for this message's field storage; the lease
  // travels with the message and is released (arena reset + returned to the
  // pool) wherever the message is destroyed.
  static Message WithArena(common::ArenaPool& pool);
  // Bind to a caller-managed arena (no lease; caller controls Reset()).
  void BindArena(common::Arena* arena);
  common::Arena* arena() const { return arena_; }
  bool arena_backed() const { return arena_ != nullptr; }

  // --- Metadata -----------------------------------------------------------
  uint64_t id() const { return id_; }
  void set_id(uint64_t id) { id_ = id; }

  MessageKind kind() const { return kind_; }
  void set_kind(MessageKind k) { kind_ = k; }

  // RPC method name, e.g. "ObjectStore.Get". Part of the tuple conceptually,
  // kept out-of-band because every element keys on it.
  const std::string& method() const { return method_; }
  void set_method(std::string m) { method_ = std::move(m); }

  EndpointId source() const { return source_; }
  void set_source(EndpointId e) { source_ = e; }
  EndpointId destination() const { return destination_; }
  void set_destination(EndpointId e) { destination_ = e; }

  // Network-generated error detail (kError only).
  const std::string& error_detail() const { return error_detail_; }
  void set_error_detail(std::string d) { error_detail_ = std::move(d); }

  // --- Fields (id-based: the hot path) ------------------------------------
  std::span<const Field> fields() const { return {fields_, nfields_}; }
  size_t FieldCount() const { return nfields_; }

  bool HasField(FieldId id) const { return Find(id) != nullptr; }
  const Value* FindField(FieldId id) const { return Find(id); }
  // Value of field, or NULL value if absent (SQL semantics for missing
  // cols). The NULL is a function-local static — never constructed per call.
  const Value& GetFieldOrNull(FieldId id) const;
  // Insert or overwrite.
  void SetField(FieldId id, Value value);
  // Append without the duplicate scan (decoders; caller guarantees no dup).
  void AppendField(FieldId id, Value value);
  // Write a TEXT/BYTES field. Arena mode: payload is copied into the arena
  // and stored as a slice (zero heap allocations); heap mode: owned copy.
  void SetText(FieldId id, std::string_view text);
  void SetBytes(FieldId id, std::span<const uint8_t> bytes);
  bool RemoveField(FieldId id);
  // Keep exactly the fields whose ids are in `keep` (original order
  // preserved); destroy the rest in place. Allocation-free.
  void ProjectFields(std::span<const FieldId> keep);

  // --- Fields (name-based compat; interns/looks up then delegates) --------
  bool HasField(std::string_view name) const;
  const Value* FindField(std::string_view name) const;
  const Value& GetFieldOrNull(std::string_view name) const;
  void SetField(std::string_view name, Value value);
  bool RemoveField(std::string_view name);

  std::string DebugString() const;

  // --- Convenience constructors -------------------------------------------
  static Message MakeRequest(uint64_t id, std::string method,
                             std::vector<Field> fields);
  static Message MakeResponse(const Message& request, std::vector<Field> fields);
  static Message MakeNetworkError(const Message& request, std::string detail);

 private:
  const Value* Find(FieldId id) const {
    for (uint32_t i = 0; i < nfields_; ++i) {
      if (fields_[i].id == id) return &fields_[i].value;
    }
    return nullptr;
  }
  Field* FindMutable(FieldId id) {
    for (uint32_t i = 0; i < nfields_; ++i) {
      if (fields_[i].id == id) return &fields_[i];
    }
    return nullptr;
  }
  // Grow the flat buffer to hold at least `want` fields (arena bump or heap
  // realloc depending on mode).
  void Reserve(uint32_t want);
  void EmplaceField(FieldId id, Value&& value);
  void DestroyFields();
  void ReleaseArena();
  void StealFrom(Message&& other) noexcept;
  void CopyMetaFrom(const Message& other);

  uint64_t id_ = 0;
  MessageKind kind_ = MessageKind::kRequest;
  std::string method_;
  EndpointId source_ = kInvalidEndpoint;
  EndpointId destination_ = kInvalidEndpoint;
  std::string error_detail_;

  Field* fields_ = nullptr;
  uint32_t nfields_ = 0;
  uint32_t fcap_ = 0;
  common::Arena* arena_ = nullptr;      // null = heap mode
  common::ArenaPool* lease_pool_ = nullptr;  // non-null = we release arena_
};

}  // namespace adn::rpc
