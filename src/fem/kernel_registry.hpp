// Kernel-dispatch registry: one specialization table for every viscous
// element-kernel variant (the MFEM fem/kernel_dispatch.hpp idea, PAPERS.md
// "High-performance finite elements with MFEM").
//
// A kernel is addressed by a four-part key
//
//     (backend, polynomial order k, SIMD batch width W, engine mode)
//
// and construction happens in exactly one place: callers describe what they
// want in a KernelSpec, make_viscous_backend (stokes/viscous_ops.hpp)
// resolves it here, and the registered factory builds the operator. Hot
// combinations (k = 2 at every width, all matrix-free back-ends, both engine
// modes) are compile-time specializations registered by static registrar
// objects at load time; Qk tensor kernels cover k = 3, 4; a runtime
// generic-order fallback serves the remaining matrix-free orders. Unknown
// keys fail with an error that lists the nearest registered keys, so a typo
// or an unsupported combination is a diagnosis, not a default.
//
// This header is the bottom of the kernel stack: it names the back-end enum
// and the spec, and forward-declares the stokes-layer types its factories
// traffic in, so fem/, mg/, saddle/ and ptatin/ can all consume KernelSpec
// without a dependency on the concrete operator classes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin {

class DirichletBc;
class QuadCoefficients;
class StructuredMesh;
class SubdomainEngine;
class ViscousOperatorBase;

/// The interchangeable fine-level viscous back-ends (Table I row labels).
/// Lives here (not stokes/viscous_ops.hpp) so the dispatch layer below every
/// consumer can name it; viscous_ops.hpp re-exports it for existing sites.
enum class FineOperatorType { kAssembled, kMatrixFree, kTensor, kTensorC };

/// Canonical short token ("asmb" | "mf" | "tens" | "tensc") — the spelling
/// used by -backend, job specs, and registry keys.
const char* fine_operator_token(FineOperatorType t);

/// Table-I-style display name ("Asmb" | "MF" | "Tens" | "TensC").
const char* fine_operator_display(FineOperatorType t);

/// Parse a back-end token; throws a typed Error with the valid set on
/// anything else.
FineOperatorType parse_fine_operator(const std::string& token);

/// Whether the operator apply sweeps elements globally (colored loops /
/// batched lanes) or per-subdomain through a SubdomainEngine
/// (docs/PARALLELISM.md). Derived from KernelSpec::engine, never set by hand.
enum class EngineMode { kGlobal, kSubdomain };

/// The one construction-time description of a viscous kernel, consumed by
/// make_viscous_backend, StokesSolverOptions, GmgOptions, and SolverConfig.
/// Collapses the former ViscousBackendSpec plus the backend / batch-width /
/// engine knobs that were duplicated across the option structs.
struct KernelSpec {
  FineOperatorType type = FineOperatorType::kTensor;
  /// Polynomial order k of the Qk velocity space. The full solver stack
  /// (Stokes/GMG/saddle) runs k = 2; k = 3, 4 select the standalone
  /// matrix-free applies (accuracy-per-DOF axis, docs/KERNELS.md).
  int order = 2;
  /// Cross-element SIMD batch width (0 = scalar; 4 / 8 = SoA lanes). The
  /// default names the scalar path, the reference of the bitwise tests; the
  /// solver stack runs kSolverBatchWidth (common/aligned.hpp). The assembled
  /// back-end accepts and ignores it (a global SpMV has no element batches).
  int batch_width = 0;
  /// Subdomain-parallel execution engine (borrowed, may be null). Its
  /// per-subdomain sweeps run at batch_width, as the global loop does.
  const SubdomainEngine* engine = nullptr;

  EngineMode engine_mode() const {
    return engine == nullptr ? EngineMode::kGlobal : EngineMode::kSubdomain;
  }
};

/// A fully-resolved registry key. str() renders the canonical spelling used
/// in error messages and docs: "tens/k2/b8/global".
struct KernelKey {
  FineOperatorType type = FineOperatorType::kTensor;
  int order = 2;
  int batch_width = 0;
  EngineMode mode = EngineMode::kGlobal;

  static KernelKey of(const KernelSpec& s) {
    return {s.type, s.order, s.batch_width, s.engine_mode()};
  }
  std::string str() const;
  bool operator<(const KernelKey& o) const;
  bool operator==(const KernelKey& o) const;
};

/// Kernel factory: builds the operator for a resolved spec. Plain function
/// pointer — all state arrives through the arguments, so registrars are
/// constant-initializable and never race at load time.
using KernelFactory = std::unique_ptr<ViscousOperatorBase> (*)(
    const KernelSpec&, const StructuredMesh&, const QuadCoefficients&,
    const DirichletBc*);

/// What resolve() found: the factory plus whether it is a compile-time
/// specialization (exact key) or the runtime generic-order fallback.
struct KernelResolution {
  KernelFactory factory = nullptr;
  bool specialized = false;
  KernelKey key; ///< the registered key that matched (fallback keys carry
                 ///< the wildcard order 0)
};

class KernelRegistry {
public:
  static KernelRegistry& instance();

  /// Register a compile-time specialization under an exact key. Re-adding an
  /// existing key throws (two registrars claiming one key is a bug).
  void add(const KernelKey& key, KernelFactory factory);

  /// Register a runtime generic-order fallback for (type, width, mode)
  /// serving every order in [min_order, max_order] that has no exact entry.
  void add_fallback(FineOperatorType type, int batch_width, EngineMode mode,
                    int min_order, int max_order, KernelFactory factory);

  /// Resolve a spec: exact key first, then the generic-order fallback.
  /// Throws a typed Error naming the nearest registered keys on a miss.
  KernelResolution resolve(const KernelSpec& spec) const;

  /// Resolve, skipping exact entries — the generic-order fallback only.
  /// Lets tests and benches pit the fallback against a specialization that
  /// would otherwise shadow it. Throws like resolve() when absent.
  KernelResolution resolve_fallback(const KernelSpec& spec) const;

  /// True when resolve() would succeed (exact or fallback).
  bool is_registered(const KernelSpec& spec) const;

  /// Every exact (specialized) key, sorted. Fallback coverage is separate —
  /// see fallback_ranges().
  std::vector<KernelKey> keys() const;

  /// Human-readable fallback coverage lines ("mf/k2..k4/b0/global").
  std::vector<std::string> fallback_ranges() const;

  /// The "unknown key" diagnosis for a spec: nearest registered keys by
  /// component distance, closest first.
  std::string nearest_keys_message(const KernelSpec& spec,
                                   std::size_t count = 3) const;

private:
  KernelRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Static registrar for one exact key. File-scope instances in the kernel
/// translation units populate the table before main() runs:
///   PT_REGISTER_KERNEL(tens_k2_b8, kTensor, 2, 8, kGlobal, &make_tens_b8);
class KernelRegistrar {
public:
  KernelRegistrar(FineOperatorType type, int order, int batch_width,
                  EngineMode mode, KernelFactory factory) {
    KernelRegistry::instance().add({type, order, batch_width, mode}, factory);
  }
};

/// Static registrar for a generic-order fallback range.
class KernelFallbackRegistrar {
public:
  KernelFallbackRegistrar(FineOperatorType type, int batch_width,
                          EngineMode mode, int min_order, int max_order,
                          KernelFactory factory) {
    KernelRegistry::instance().add_fallback(type, batch_width, mode, min_order,
                                            max_order, factory);
  }
};

#define PT_REGISTER_KERNEL(name, type, order, width, mode, factory)       \
  static const ::ptatin::KernelRegistrar name(                            \
      ::ptatin::FineOperatorType::type, order, width,                     \
      ::ptatin::EngineMode::mode, factory)

#define PT_REGISTER_KERNEL_FALLBACK(name, type, width, mode, lo, hi,      \
                                    factory)                              \
  static const ::ptatin::KernelFallbackRegistrar name(                    \
      ::ptatin::FineOperatorType::type, width, ::ptatin::EngineMode::mode, \
      lo, hi, factory)

} // namespace ptatin
