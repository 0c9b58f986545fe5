// Geometric multigrid hierarchy for the viscous block J_uu (§III-C).
//
// The production configuration of the paper: the finest level is applied
// matrix-free (MF / Tens / TensC), the next level is rediscretized, levels
// below it are Galerkin triple products of that level's assembled matrix,
// and the coarsest level is handed to a pluggable coarse solver
// (block-Jacobi+LU, smoothed-aggregation AMG, or an inexact Krylov solve —
// §IV-A, §IV-C, §V-A). The finest level borrows the caller's viscous
// operator (StokesSolver hands it its Krylov operator's J_uu, whose applies
// here stay Picard), so one solve builds one fine operator. Unlike the
// paper, the rediscretized level smooths matrix-free on the finest level's
// kernel whenever a coarser level exists; its assembled matrix lives only
// until the Galerkin product below it is formed. Every level smooths with
// Jacobi-preconditioned Chebyshev targeting [0.2 λmax, 1.1 λmax].
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/sealed.hpp"
#include "fem/bc.hpp"
#include "fem/mesh.hpp"
#include "ksp/chebyshev.hpp"
#include "ksp/pc.hpp"
#include "la/galerkin.hpp"
#include "mg/coarsen.hpp"
#include "mg/prolongation.hpp"
#include "obs/metrics.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

/// Setup state that survives hierarchy rebuilds. A GmgHierarchy is
/// solve-scoped (each Newton step constructs a fresh one), but the Galerkin
/// RAP patterns only depend on the mesh topology — so a caller that owns one
/// of these across rebuilds (NonlinearStokesSolver does) turns every
/// repeated coarse-operator assembly into a numeric-only refresh
/// (la/galerkin.hpp). Stale entries self-heal: GalerkinProduct validates its
/// inputs and falls back to a full setup on any pattern change.
struct GmgSetupCache {
  std::vector<GalerkinProduct> rap; ///< indexed by coarse level
};

/// How operators below the finest level are built.
enum class CoarseOperatorType {
  kGalerkin,       ///< assemble level L-2 by rediscretization, RAP below
  kRediscretized,  ///< rediscretize (and assemble) every coarse level
};

struct GmgOptions {
  int levels = 3;
  CoarseOperatorType coarse_type = CoarseOperatorType::kGalerkin;
  int smooth_pre = 2;  ///< V(2,2) by default (§IV-A)
  int smooth_post = 2;
  /// Seal the coarse operators and prolongations at the end of setup
  /// (docs/ROBUSTNESS.md): the assembled matrices, the restricted
  /// coefficients and mesh coordinates of a matrix-free coarse level, and
  /// each Tens level's geometry cache are setup-immutable, so verify_seal()
  /// can detect a flipped bit in them. Enabled by -seal_operators; off by
  /// default to keep the CRC pass out of setups that never verify.
  bool seal_operators = false;
  /// Borrowed cross-rebuild setup cache (null = no caching). With one,
  /// Galerkin products replay numeric-only against the cached sparsity
  /// patterns — bitwise identical to the from-scratch ptap.
  GmgSetupCache* setup_cache = nullptr;
};

/// Deepest usable hierarchy for an m^3 element mesh: coarsen while the
/// element count stays even and the coarse level keeps >= 3 elements per
/// direction (a 2^3 coarsest level is too small to help).
inline int suggest_gmg_levels(Index m, int max_levels = 3) {
  int levels = 1;
  while (levels < max_levels && m % 2 == 0 && m / 2 >= 3) {
    m /= 2;
    ++levels;
  }
  return levels;
}

/// Factory building the coarsest-level solver from the coarsest assembled
/// matrix and the mesh and BC it was built on (SA-AMG takes its rigid-body
/// modes from them); wired by the caller.
using CoarseSolverFactory = std::function<std::unique_ptr<Preconditioner>(
    const CsrMatrix&, const StructuredMesh&, const DirichletBc&)>;

/// Factory recreating the problem's boundary conditions on a coarse mesh.
using BcFactory = std::function<DirichletBc(const StructuredMesh&)>;

class GmgHierarchy : public Preconditioner {
public:
  /// Build the hierarchy below `fine_op`, the finest level's operator,
  /// which is borrowed (with its mesh, coefficients and BC) and must outlive
  /// the hierarchy. The hierarchy applies it without the Newton term. A
  /// matrix-free fine back-end also serves the first coarse level, at the
  /// same width; its subdomain engine stays on the finest level, since the
  /// engine's halo plans match the finest grid only.
  GmgHierarchy(const ViscousOperatorBase& fine_op, const GmgOptions& opts,
               const BcFactory& bc_factory,
               const CoarseSolverFactory& coarse_factory);

  /// Preconditioner interface: z ~ A^{-1} r via one V-cycle from a zero
  /// initial guess (its pre-smooths skip the apply on the zero vector).
  void apply(const Vector& r, Vector& z) const override;

  /// One V-cycle updating x in place (nonzero initial guess allowed).
  void vcycle(const Vector& b, Vector& x) const;

  /// The finest-level operator (the borrowed smoother operator; its apply
  /// is the MG residual kernel timed as "MG res" in Table III).
  const ViscousOperatorBase& fine_operator() const {
    return *levels_.back().elem_op;
  }

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// The operator level `level` smooths with and forms its residual with
  /// (0 = coarsest).
  const LinearOperator& level_operator(int level) const {
    return *levels_[level].op;
  }

  /// RAP time split by path: full symbolic+numeric setups vs numeric-only
  /// refreshes served by the GmgSetupCache (the mg.rap.setups and
  /// mg.rap.refreshes counters count the products).
  double rap_setup_seconds() const { return rap_setup_seconds_; }
  double rap_refresh_seconds() const { return rap_refresh_seconds_; }

  /// Setup time spent assembling Galerkin products (reported in Table IV as
  /// the extra R^T A R cost).
  double galerkin_setup_seconds() const {
    return rap_setup_seconds_ + rap_refresh_seconds_;
  }

  Index level_dofs(int level) const { return levels_[level].ndofs; }

  /// Verify the operator seal now: the "gmg.operators/<region>" names that
  /// mismatch (empty when intact or seal_operators is off). The Stokes
  /// solver checks it after every solve.
  std::vector<std::string> verify_seal() const;

private:
  struct Level {
    /// The level's grid, coefficients and constraints: the fine operator's
    /// on the finest level (borrowed), the owned coarse_* on coarse levels.
    const StructuredMesh* mesh = nullptr;
    const QuadCoefficients* coeff = nullptr;
    const DirichletBc* bc = nullptr;
    StructuredMesh coarse_mesh;
    QuadCoefficients coarse_coeff; ///< restricted from the finer level
    DirichletBc coarse_bc;
    /// Finest level (borrowed), and the first coarse level below a
    /// matrix-free finest one (coarse_elem_op): a typed element-kernel
    /// operator (Asmb/MF/Tens/TensC).
    const ViscousOperatorBase* elem_op = nullptr;
    std::unique_ptr<ViscousOperatorBase> coarse_elem_op;
    /// Other coarse levels: assembled matrix (rediscretized or Galerkin).
    /// A matrix-free coarse level holds one only until the Galerkin product
    /// of the level below has consumed it.
    std::unique_ptr<CsrMatrix> assembled;
    std::unique_ptr<MatrixOperator> mat_op;
    const LinearOperator* op = nullptr; ///< operator the smoother uses
    CsrMatrix prolongation; ///< to the next finer level (absent on finest)
    /// Explicit P^T, built once at setup so the per-cycle restriction is a
    /// row-parallel CSR mult instead of the serial mult_transpose scatter.
    CsrMatrix restriction;
    ChebyshevSmoother smoother;
    /// A Tens level whose geometry cache was built before the seal was
    /// armed: the seal covers that cache.
    const TensorViscousOperator* sealed_cache = nullptr;
    Index ndofs = 0;
    mutable Vector r, e, rc, ec; // per-level cycle workspace (no per-call
                                 // allocation on the V-cycle hot path)
  };

  /// The setup-immutable regions under seal_, enumerated afresh per call.
  std::vector<sdc::Region> seal_regions() const;

  /// One V-cycle from `level` down. `zero_guess` promises x == 0 on entry,
  /// so the pre-smooth skips the operator apply on it.
  void cycle(int level, const Vector& b, Vector& x, bool zero_guess) const;

  std::vector<Level> levels_; ///< [0] = coarsest ... [L-1] = finest
  std::unique_ptr<Preconditioner> coarse_solver_;
  GmgOptions opts_;
  double rap_setup_seconds_ = 0.0, rap_refresh_seconds_ = 0.0;
  /// Captured once: counter lookup by name allocates for long names.
  obs::Counter* restrict_counter_ = nullptr;
  obs::Counter* prolong_counter_ = nullptr;
  sdc::Seal seal_; ///< over the coarse operator/prolongation data
};

} // namespace ptatin
