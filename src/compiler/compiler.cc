#include "compiler/compiler.h"

#include "dsl/parser.h"

namespace adn::compiler {

const CompiledChain* CompiledProgram::FindChain(std::string_view name) const {
  for (const auto& c : chains) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

rpc::Schema DeriveRequestSchema(const ChainIr& chain) {
  rpc::Schema schema;
  for (const auto& element : chain.elements) {
    for (const rpc::Column& c : element->input.columns()) {
      if (schema.FindColumn(c.name) == nullptr) {
        (void)schema.AddColumn({c.name, c.type, false});
      }
    }
  }
  return schema;
}

Result<CompiledProgram> Compiler::CompileSource(
    std::string_view source, const CompileOptions& options) const {
  ADN_ASSIGN_OR_RETURN(dsl::Program program, dsl::ParseProgram(source));
  return CompileProgram(program, options);
}

Result<CompiledProgram> Compiler::CompileProgram(
    const dsl::Program& program, const CompileOptions& options) const {
  ADN_ASSIGN_OR_RETURN(ProgramIr ir, LowerProgram(program, functions_));
  CompiledProgram out;
  out.functions = functions_;
  for (const ChainIr& chain : ir.chains) {
    ADN_ASSIGN_OR_RETURN(CompiledChain compiled,
                         CompileChain(chain, options));
    out.chains.push_back(std::move(compiled));
  }
  return out;
}

Result<CompiledChain> Compiler::CompileChain(
    const ChainIr& chain, const CompileOptions& options) const {
  ADN_ASSIGN_OR_RETURN(OptimizedChain optimized,
                       RunPasses(chain, options.passes));

  CompiledChain out;
  out.name = chain.name;
  out.caller_service = chain.caller_service;
  out.callee_service = chain.callee_service;
  out.constraints = optimized.chain.constraints;
  out.parallel_groups = optimized.parallel_groups;
  out.pass_reports = std::move(optimized.reports);

  out.request_schema = options.request_schema.empty()
                           ? DeriveRequestSchema(optimized.chain)
                           : options.request_schema;

  // Front-load hardware-offloadable elements' read sets in header layouts so
  // switch/NIC parse windows can reach them.
  std::vector<std::string> priority_fields;
  for (const auto& element : optimized.chain.elements) {
    if (CheckFeasible(*element, TargetPlatform::kP4Switch).feasible) {
      for (const std::string& f : element->effects.fields_read) {
        priority_fields.push_back(f);
      }
    }
  }

  ADN_ASSIGN_OR_RETURN(
      out.headers,
      ComputeChainHeaders(optimized.chain, out.request_schema,
                          options.app_reads, priority_fields));

  // Lower the whole optimized chain to one flat ChainProgram, with field IDs
  // following the wire-header field order just synthesized. A chain with a
  // client-library filter (retry/timeout) does not compile.
  ChainCompileOptions cc_options;
  if (!out.headers.schemas.empty()) {
    for (const rpc::Column& c : out.headers.schemas[0].columns()) {
      cc_options.field_order_hint.push_back(c.name);
    }
  }
  ADN_ASSIGN_OR_RETURN(
      out.program, CompileChainProgram(optimized.chain.elements, cc_options));

  for (size_t i = 0; i < optimized.chain.elements.size(); ++i) {
    const auto& element = optimized.chain.elements[i];
    CompiledElement ce;
    ce.ir = element;
    ce.ebpf = CheckFeasible(*element, TargetPlatform::kEbpf);
    ce.p4 = CheckFeasible(*element, TargetPlatform::kP4Switch);
    if (ce.p4.feasible) {
      // Parse-depth check against the element's inbound link header.
      FeasibilityReport depth = CheckP4ParseDepth(
          *element, out.headers.link_specs[i],
          sim::CostModel::Default().p4_parse_depth_bytes);
      if (!depth.feasible) ce.p4 = depth;
    }
    if (ce.ebpf.feasible) ce.ebpf_code = EmitEbpfC(*element);
    if (ce.p4.feasible) {
      ce.p4_code = EmitP4(*element, out.headers.link_specs[i]);
    }
    out.elements.push_back(std::move(ce));
  }
  return out;
}

}  // namespace adn::compiler
