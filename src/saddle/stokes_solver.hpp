// High-level variable-viscosity Stokes solver: wires the coupled operator,
// the velocity multigrid (geometric or algebraic), the viscosity-scaled
// Schur preconditioner, and the outer flexible Krylov method into the
// configurations evaluated in §IV.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "amg/sa_amg.hpp"
#include "common/aligned.hpp"
#include "ksp/settings.hpp"
#include "mg/gmg.hpp"
#include "saddle/block_pc.hpp"
#include "saddle/scr.hpp"
#include "saddle/stokes_operator.hpp"

namespace ptatin {

enum class VelocityPcType {
  kGmg,   ///< geometric MG hierarchy (with pluggable coarse solve)
  kSaAmg, ///< pure smoothed-aggregation AMG on the assembled fine matrix
};

enum class GmgCoarseSolve {
  kAmg,         ///< SA-AMG V(2,2) on the coarsest level (§IV-A production)
  kBJacobiLu,   ///< block-Jacobi with exact LU per subdomain
  kAsmCg,       ///< CG preconditioned by 1-level ASM(ILU0) (§V-A rifting)
};

enum class OuterKrylov { kGcr, kFgmres };

struct StokesSolverOptions {
  /// The fine-level kernel description — backend, SIMD batch width, and
  /// subdomain engine in one spec (fem/kernel_spec.hpp). The solver builds
  /// one operator from it, the Krylov operator's J_uu, which GMG's finest
  /// level borrows. The width is kSolverBatchWidth, in the global loop and
  /// in the engine's sweeps alike. When `kernel.engine` is set,
  /// solve_stacked records the engine's halo/timing stats in the solver
  /// report's `decomposition` section.
  KernelSpec kernel{.batch_width = kSolverBatchWidth};
  VelocityPcType velocity_pc = VelocityPcType::kGmg;
  GmgOptions gmg;               ///< used when velocity_pc == kGmg
  GmgCoarseSolve coarse_solve = GmgCoarseSolve::kAmg;
  Index coarse_bjacobi_blocks = 4;
  AmgOptions amg;               ///< coarse AMG / standalone SA-AMG settings
  OuterKrylov outer = OuterKrylov::kGcr;
  KrylovSettings krylov;        ///< outer tolerance; paper: rtol 1e-5
  bool newton_operator = false; ///< Newton term in the Krylov operator only
  BlockPcOptions block_pc;
  /// Recreates the model's boundary conditions on coarse meshes (defaults to
  /// the sinker free-slip/free-surface rule when unset).
  BcFactory bc_factory;

  StokesSolverOptions() {
    krylov.rtol = 1e-5;
    krylov.max_it = 500;
    // Buoyancy-driven solves traverse a long momentum/pressure equilibration
    // plateau (Fig. 2); a short restart truncates the Krylov space exactly
    // there. 100 vectors ~ 2 x 100 x ndof reals of storage.
    krylov.restart = 100;
  }
};

struct StokesSolveResult {
  SolveStats stats;
  std::vector<Real> momentum_residuals; ///< ||F_u|| per iteration (GCR only)
  std::vector<Real> pressure_residuals; ///< ||F_p|| per iteration (GCR only)
  double setup_seconds = 0.0;   ///< preconditioner setup time
  double solve_seconds = 0.0;   ///< Krylov solve time
  Vector u, p;
};

class StokesSolver {
public:
  /// Borrows mesh/coeff/bc (must outlive the solver). Construction performs
  /// all preconditioner setup (assembly, hierarchy, smoother eigenvalue
  /// estimates) — the "PC setup" cost of Table IV.
  StokesSolver(const StructuredMesh& mesh, const QuadCoefficients& coeff,
               const DirichletBc& bc, const StokesSolverOptions& opts);

  /// Solve with the body-force vector f (velocity space, lifting applied
  /// internally). Initial guess x0 (stacked, optional).
  StokesSolveResult solve(const Vector& f, const Vector* x0 = nullptr) const;

  /// Solve an arbitrary stacked right-hand side (used by the Newton loop,
  /// which supplies the nonlinear residual directly).
  StokesSolveResult solve_stacked(const Vector& rhs,
                                  const Vector* x0 = nullptr) const;

  /// Schur-complement-reduction solve of the same system (robustness
  /// comparison of §IV-A). It eliminates with the Picard J_uu, so the
  /// solver must be built without newton_operator.
  ScrStats solve_scr(const Vector& f, Vector& u, Vector& p,
                     const ScrOptions& scr_opts) const;

  const StokesOperator& op() const { return *op_; }
  const Preconditioner& velocity_pc() const { return *vpc_; }
  double setup_seconds() const { return setup_seconds_; }
  double coarse_setup_seconds() const { return coarse_setup_seconds_; }
  const GmgHierarchy* gmg() const { return gmg_.get(); }

private:
  StokesSolverOptions opts_;
  std::unique_ptr<ViscousOperatorBase> a_;
  std::unique_ptr<StokesOperator> op_;
  std::unique_ptr<PressureMassSchur> schur_;
  std::unique_ptr<GmgHierarchy> gmg_;
  const SaAmg* coarse_amg_ = nullptr; ///< GMG's coarse solver, when SA-AMG
  std::unique_ptr<SaAmg> amg_;
  const Preconditioner* vpc_ = nullptr;
  std::unique_ptr<BlockTriangularPc> pc_;
  double setup_seconds_ = 0.0;
  double coarse_setup_seconds_ = 0.0;
};

} // namespace ptatin
