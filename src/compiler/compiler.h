// Top-level ADN compiler: DSL source -> optimized, deployable chains.
//
// Mirrors the paper's Figure 3 control-plane split: Compile() is the pure
// code path (parse, lower, optimize, synthesize headers, check platform
// feasibility); the runtime controller (src/controller) consumes the result
// to place processors and manage state.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "compiler/backend.h"
#include "compiler/chain_compile.h"
#include "compiler/header_gen.h"
#include "compiler/lower.h"
#include "compiler/passes.h"
#include "ir/program.h"

namespace adn::compiler {

struct CompileOptions {
  PassOptions passes;
  // Fields the caller application emits for this chain's RPCs. Used for
  // schema validation and header minimization. Empty => derive from the
  // union of element input schemas (permissive mode for tests/tools).
  rpc::Schema request_schema;
  // Fields the callee application reads; empty => all delivered fields.
  std::vector<std::string> app_reads;
};

struct CompiledElement {
  std::shared_ptr<const ir::ElementIr> ir;
  // Feasibility per target, precomputed for the controller's placement.
  FeasibilityReport ebpf;
  FeasibilityReport p4;
  // Emitted artifacts (only for feasible targets; native needs none).
  std::string ebpf_code;
  std::string p4_code;
};

struct CompiledChain {
  std::string name;
  std::string caller_service;
  std::string callee_service;
  std::vector<CompiledElement> elements;
  std::vector<dsl::LocationConstraint> constraints;
  std::vector<int> parallel_groups;
  ChainHeaders headers;
  std::vector<PassReport> pass_reports;

  // Schema the caller must emit (request_schema or the derived union).
  rpc::Schema request_schema;

  // Whole-chain compiled program (ir/program.h), field IDs seeded from the
  // wire-header field order.
  std::shared_ptr<const ir::ChainProgram> program;
};

struct CompiledProgram {
  std::vector<CompiledChain> chains;
  std::shared_ptr<const ir::FunctionRegistry> functions;

  const CompiledChain* FindChain(std::string_view name) const;
};

class Compiler {
 public:
  explicit Compiler(std::shared_ptr<const ir::FunctionRegistry> functions =
                        ir::FunctionRegistry::Builtins())
      : functions_(std::move(functions)) {}

  // Parse + lower + optimize + synthesize every chain in `source`.
  Result<CompiledProgram> CompileSource(std::string_view source,
                                        const CompileOptions& options) const;

  // Same, starting from an already-parsed program.
  Result<CompiledProgram> CompileProgram(const dsl::Program& program,
                                         const CompileOptions& options) const;

 private:
  Result<CompiledChain> CompileChain(const ChainIr& chain,
                                     const CompileOptions& options) const;

  std::shared_ptr<const ir::FunctionRegistry> functions_;
};

// Derive a permissive request schema: the union of all element input
// schemas of the chain (what the chain's first consumer could need).
rpc::Schema DeriveRequestSchema(const ChainIr& chain);

}  // namespace adn::compiler
