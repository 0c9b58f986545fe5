// The construction-time description of a fine-level viscous kernel.
//
// A KernelSpec names the back-end, the cross-element SIMD batch width and
// the optional subdomain engine; make_viscous_backend (stokes/viscous_ops.hpp)
// turns it into an operator. The header names no operator class, so option
// structs and config parsing can carry a spec without the kernels.
#pragma once

#include <string>

namespace ptatin {

class SubdomainEngine;

/// The interchangeable fine-level viscous back-ends (Table I row labels).
enum class FineOperatorType { kAssembled, kMatrixFree, kTensor, kTensorC };

/// Canonical short token ("asmb" | "mf" | "tens" | "tensc") — the spelling
/// used by -backend (which accepts the first three) and kernel labels.
const char* fine_operator_token(FineOperatorType t);

/// Table-I-style display name ("Asmb" | "MF" | "Tens" | "TensC").
const char* fine_operator_display(FineOperatorType t);

/// Parse a -backend token (asmb | mf | tens: the back-ends the solver stack
/// runs; TensC is a standalone Table I operator); throws a typed Error with
/// the valid set on anything else.
FineOperatorType parse_fine_operator(const std::string& token);

/// The one construction-time description of a viscous kernel, consumed by
/// make_viscous_backend, StokesSolverOptions, GmgOptions, and SolverConfig.
struct KernelSpec {
  FineOperatorType type = FineOperatorType::kTensor;
  /// Cross-element SIMD batch width (0 = scalar; 8 = SoA lanes). The
  /// default names the scalar path, the reference of the bitwise tests; the
  /// solver stack runs kSolverBatchWidth (common/aligned.hpp). The assembled
  /// back-end checks and ignores it (a global SpMV has no element batches).
  int batch_width = 0;
  /// Subdomain-parallel execution engine (borrowed, may be null). Its
  /// per-subdomain sweeps run at batch_width, as the global loop does.
  const SubdomainEngine* engine = nullptr;
};

/// "type/bW/mode" — "tens/b8/global", or "tens/b8/subdomain" when the spec
/// carries an engine. The driver reports it as the solver report's
/// meta.kernel.
std::string kernel_label(const KernelSpec& spec);

} // namespace ptatin
