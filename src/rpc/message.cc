#include "rpc/message.h"

#include <new>
#include <utility>

namespace adn::rpc {

// --- Storage management -----------------------------------------------------

void Message::Reserve(uint32_t want) {
  if (want <= fcap_) return;
  uint32_t cap = fcap_ == 0 ? 4 : fcap_ * 2;
  if (cap < want) cap = want;
  void* raw = arena_ != nullptr
                  ? arena_->Allocate(cap * sizeof(Field), alignof(Field))
                  : ::operator new(cap * sizeof(Field));
  Field* next = static_cast<Field*>(raw);
  for (uint32_t i = 0; i < nfields_; ++i) {
    new (next + i) Field(std::move(fields_[i]));
    fields_[i].~Field();
  }
  if (arena_ == nullptr && fields_ != nullptr) {
    ::operator delete(fields_);
  }
  // Arena mode: the old buffer is abandoned in the arena until Reset().
  fields_ = next;
  fcap_ = cap;
}

void Message::EmplaceField(FieldId id, Value&& value) {
  Reserve(nfields_ + 1);
  new (fields_ + nfields_) Field(id, std::move(value));
  ++nfields_;
}

void Message::DestroyFields() {
  for (uint32_t i = 0; i < nfields_; ++i) fields_[i].~Field();
  if (arena_ == nullptr && fields_ != nullptr) {
    ::operator delete(fields_);
  }
  fields_ = nullptr;
  nfields_ = 0;
  fcap_ = 0;
}

void Message::ReleaseArena() {
  if (lease_pool_ != nullptr) {
    lease_pool_->Release(arena_);
    lease_pool_ = nullptr;
  }
  arena_ = nullptr;
}

void Message::CopyMetaFrom(const Message& other) {
  id_ = other.id_;
  kind_ = other.kind_;
  method_ = other.method_;
  source_ = other.source_;
  destination_ = other.destination_;
  error_detail_ = other.error_detail_;
}

void Message::StealFrom(Message&& other) noexcept {
  id_ = other.id_;
  kind_ = other.kind_;
  method_ = std::move(other.method_);
  source_ = other.source_;
  destination_ = other.destination_;
  error_detail_ = std::move(other.error_detail_);
  fields_ = other.fields_;
  nfields_ = other.nfields_;
  fcap_ = other.fcap_;
  arena_ = other.arena_;
  lease_pool_ = other.lease_pool_;
  other.fields_ = nullptr;
  other.nfields_ = 0;
  other.fcap_ = 0;
  other.arena_ = nullptr;
  other.lease_pool_ = nullptr;
}

Message::Message(const Message& other) {
  // Copies are always independent heap messages; Value's copy materializes
  // any arena slices.
  CopyMetaFrom(other);
  Reserve(other.nfields_);
  for (uint32_t i = 0; i < other.nfields_; ++i) {
    new (fields_ + i) Field(other.fields_[i]);
  }
  nfields_ = other.nfields_;
}

Message& Message::operator=(const Message& other) {
  if (this == &other) return *this;
  DestroyFields();
  ReleaseArena();
  CopyMetaFrom(other);
  Reserve(other.nfields_);
  for (uint32_t i = 0; i < other.nfields_; ++i) {
    new (fields_ + i) Field(other.fields_[i]);
  }
  nfields_ = other.nfields_;
  return *this;
}

Message::Message(Message&& other) noexcept { StealFrom(std::move(other)); }

Message& Message::operator=(Message&& other) noexcept {
  if (this == &other) return *this;
  DestroyFields();
  ReleaseArena();
  StealFrom(std::move(other));
  return *this;
}

Message::~Message() {
  DestroyFields();
  ReleaseArena();
}

Message Message::WithArena(common::ArenaPool& pool) {
  Message m;
  m.arena_ = pool.Acquire();
  m.lease_pool_ = &pool;
  return m;
}

void Message::BindArena(common::Arena* arena) {
  DestroyFields();
  ReleaseArena();
  arena_ = arena;
}

// --- Id-based field access --------------------------------------------------

const Value& Message::GetFieldOrNull(FieldId id) const {
  static const Value kNull;
  const Value* v = Find(id);
  return v != nullptr ? *v : kNull;
}

void Message::SetField(FieldId id, Value value) {
  if (Field* f = FindMutable(id)) {
    f->value = std::move(value);
    return;
  }
  EmplaceField(id, std::move(value));
}

void Message::AppendField(FieldId id, Value value) {
  EmplaceField(id, std::move(value));
}

void Message::SetText(FieldId id, std::string_view text) {
  if (arena_ != nullptr) {
    std::string_view copy = arena_->CopyString(text);
    SetField(id, Value::BorrowText(copy.data(), copy.size()));
  } else {
    SetField(id, Value(text));
  }
}

void Message::SetBytes(FieldId id, std::span<const uint8_t> bytes) {
  if (arena_ != nullptr) {
    const uint8_t* copy = arena_->CopyBytes(bytes.data(), bytes.size());
    SetField(id, Value::BorrowBytes(copy, bytes.size()));
  } else {
    SetField(id, Value(Bytes(bytes.begin(), bytes.end())));
  }
}

bool Message::RemoveField(FieldId id) {
  for (uint32_t i = 0; i < nfields_; ++i) {
    if (fields_[i].id != id) continue;
    for (uint32_t j = i + 1; j < nfields_; ++j) {
      fields_[j - 1] = std::move(fields_[j]);
    }
    fields_[nfields_ - 1].~Field();
    --nfields_;
    return true;
  }
  return false;
}

void Message::ProjectFields(std::span<const FieldId> keep) {
  uint32_t out = 0;
  for (uint32_t i = 0; i < nfields_; ++i) {
    bool kept = false;
    for (FieldId k : keep) {
      if (fields_[i].id == k) {
        kept = true;
        break;
      }
    }
    if (!kept) continue;
    if (out != i) fields_[out] = std::move(fields_[i]);
    ++out;
  }
  for (uint32_t i = out; i < nfields_; ++i) fields_[i].~Field();
  nfields_ = out;
}

// --- Name-based compat ------------------------------------------------------

bool Message::HasField(std::string_view name) const {
  return FindField(name) != nullptr;
}

const Value* Message::FindField(std::string_view name) const {
  auto id = FieldInterner::Global().Find(name);
  if (!id.has_value()) return nullptr;
  return Find(*id);
}

const Value& Message::GetFieldOrNull(std::string_view name) const {
  static const Value kNull;
  const Value* v = FindField(name);
  return v != nullptr ? *v : kNull;
}

void Message::SetField(std::string_view name, Value value) {
  SetField(InternFieldName(name), std::move(value));
}

bool Message::RemoveField(std::string_view name) {
  auto id = FieldInterner::Global().Find(name);
  if (!id.has_value()) return false;
  return RemoveField(*id);
}

// --- Misc -------------------------------------------------------------------

std::string Message::DebugString() const {
  std::string out;
  out += kind_ == MessageKind::kRequest
             ? "REQ"
             : (kind_ == MessageKind::kResponse ? "RSP" : "ERR");
  out += " #" + std::to_string(id_) + " " + method_ + " {";
  for (uint32_t i = 0; i < nfields_; ++i) {
    if (i > 0) out += ", ";
    out += std::string(fields_[i].name()) + "=" +
           fields_[i].value.ToDisplayString();
  }
  out += "}";
  if (kind_ == MessageKind::kError) out += " detail=" + error_detail_;
  return out;
}

Message Message::MakeRequest(uint64_t id, std::string method,
                             std::vector<Field> fields) {
  Message m;
  m.id_ = id;
  m.kind_ = MessageKind::kRequest;
  m.method_ = std::move(method);
  m.Reserve(static_cast<uint32_t>(fields.size()));
  for (Field& f : fields) m.EmplaceField(f.id, std::move(f.value));
  return m;
}

Message Message::MakeResponse(const Message& request,
                              std::vector<Field> fields) {
  Message m;
  m.id_ = request.id();
  m.kind_ = MessageKind::kResponse;
  m.method_ = request.method();
  m.source_ = request.destination();
  m.destination_ = request.source();
  m.Reserve(static_cast<uint32_t>(fields.size()));
  for (Field& f : fields) m.EmplaceField(f.id, std::move(f.value));
  return m;
}

Message Message::MakeNetworkError(const Message& request, std::string detail) {
  Message m;
  m.id_ = request.id();
  m.kind_ = MessageKind::kError;
  m.method_ = request.method();
  m.source_ = request.destination();
  m.destination_ = request.source();
  m.error_detail_ = std::move(detail);
  return m;
}

}  // namespace adn::rpc
