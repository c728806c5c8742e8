// Chain -> ChainProgram lowering: the last stage of the compiler.
//
// After the optimization passes (reorder, fusion) and header synthesis have
// fixed the element order and the minimal wire schemas, this pass flattens
// the whole chain into one register-based instruction stream
// (ir/program.h): expressions become straight-line register code, AND/OR
// become jumps, join probes become indexed table lookups, and every field
// name is interned to an ID once — the per-message string comparisons the
// tree-walking interpreter pays disappear at compile time.
//
// Field-ID assignment is seeded from the chain's header schemas so that the
// program's IDs enumerate the minimal header layout in wire order; IDs for
// fields that exist only mid-chain (computed outputs) follow after.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/element_ir.h"
#include "ir/program.h"

namespace adn::compiler {

struct ChainCompileOptions {
  // Interning seed: field IDs 0..n-1 are assigned to these names in order
  // (the chain's wire-header field order from header_gen). Names the chain
  // touches beyond the seed get fresh IDs after it.
  std::vector<std::string> field_order_hint;
};

// Lower an ordered element list (an optimized chain) into one ChainProgram.
// Each element is wrapped in a message-kind guard, so one program serves
// requests and responses (the pool and the mesh-path tier run whole chains
// this way). SQL elements lower to register code; a CACHE or FILTER element
// lowers to a single kBuiltin. A `retry` or `timeout` filter runs in the
// client library (core/client_policy.h), not in a chain: passing one is a
// kUnsupported error naming the element.
Result<std::shared_ptr<const ir::ChainProgram>> CompileChainProgram(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const ChainCompileOptions& options = {});

// Single-element convenience used by the engine's GeneratedStage: element
// index 0 and no kind guard (the stage checks AppliesTo() before
// dispatching, keeping Process() semantics identical to the interpreter's).
Result<std::shared_ptr<const ir::ChainProgram>> CompileElementProgram(
    const ir::ElementIr& element);

}  // namespace adn::compiler
