// Lowering: dsl::Program (AST) -> typed IR with effect summaries.
//
// This is the front half of the ADN compiler (paper §5.2: "the compiler
// first converts the program into an intermediate representation"). Lowering
// resolves names, type-checks every expression, normalizes joins into
// probe/key form, computes each element's EffectSummary, and validates
// chains (referenced elements exist, directions are sane, filter operators
// are known).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dsl/ast.h"
#include "ir/element_ir.h"
#include "ir/functions.h"

namespace adn::compiler {

struct ChainIr {
  std::string name;
  std::string caller_service;
  std::string callee_service;
  std::vector<std::shared_ptr<const ir::ElementIr>> elements;
  std::vector<dsl::LocationConstraint> constraints;  // parallel to elements
};

struct ProgramIr {
  std::vector<std::shared_ptr<const ir::ElementIr>> elements;
  std::vector<ChainIr> chains;
  std::shared_ptr<const ir::FunctionRegistry> functions;

  std::shared_ptr<const ir::ElementIr> FindElement(
      std::string_view name) const;
  const ChainIr* FindChain(std::string_view name) const;
};

Result<ProgramIr> LowerProgram(
    const dsl::Program& program,
    std::shared_ptr<const ir::FunctionRegistry> functions =
        ir::FunctionRegistry::Builtins());

// Lower a single element declaration (exposed for tests and tooling).
Result<ir::ElementIr> LowerElement(
    const dsl::ElementDecl& decl, const dsl::Program& program,
    const ir::FunctionRegistry& functions);

}  // namespace adn::compiler
