// Flat field section: a message's fields serialized in their in-memory
// layout. The response cache stores each response as one such section and
// grafts it onto the live request on a hit, whose id/method/endpoints must
// survive the rewrite, so the section carries fields only.
//
//   [u16 nfields][u32 var_len]
//   nfields x [u16 fid][u8 type][u8 0][u32 len][u64 payload]
//   [var_len bytes of TEXT/BYTES payloads]
//
// One fixed-width 16-byte record per field carries the interned FieldId,
// the type and an inline payload (numerics) or an (offset, length) slice
// into the trailing variable section (TEXT/BYTES) — exactly how an
// arena-backed Message lays fields out. Encode is a sequence of bulk
// copies with no per-field heap traffic; decode into an arena-backed
// message is ONE copy of the variable section plus slice binding.
//
// FieldIds are the process-global interned ids: the section is an
// intra-deployment format whose ends share the compiler's intern table.
#pragma once

#include <span>

#include "common/bytes.h"
#include "common/status.h"
#include "rpc/message.h"

namespace adn::rpc {

// Fixed bytes per field record.
inline constexpr size_t kFlatRecordBytes = 16;

// Appends the section for `m`'s fields to `out`.
Status EncodeFieldsFlat(const Message& m, Bytes& out);
// Replaces `m`'s fields with the decoded section; metadata is untouched.
// Arena-backed messages get one bulk arena copy plus slice binding (zero
// heap allocations); heap messages get per-field owned copies. A truncated
// section or a slice past the variable section is a kParseError.
Status DecodeFieldsFlatInto(std::span<const uint8_t> wire, Message& m);

}  // namespace adn::rpc
