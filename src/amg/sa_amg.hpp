// Smoothed-aggregation algebraic multigrid (GAMG / ML analogue).
//
// The coarse-grid solver of the production preconditioner (§IV-A: "A single
// V(2,2) cycle of a smoothed aggregation based algebraic multigrid
// preconditioner (GAMG) is used as the coarse grid solver") and the
// standalone SA-i / SAML-i / SAML-ii configurations of Table IV.
//
// Setup: nodal-block strength graph (threshold 0.01) -> greedy aggregation
// -> tentative prolongator from the near-nullspace (six rigid-body modes,
// per-aggregate QR) -> Jacobi prolongator smoothing
// P = (I - omega D^{-1} A) P_tent -> Galerkin RAP, recursing until the
// coarse problem is small; the coarsest level is solved with block-Jacobi
// LU (§IV-C: "block Jacobi, with an exact LU factorization applied on each
// of the subdomains").
#pragma once

#include <memory>
#include <vector>

#include "common/sealed.hpp"
#include "ksp/chebyshev.hpp"
#include "ksp/pc.hpp"
#include "la/block_jacobi.hpp"
#include "la/csr.hpp"

namespace ptatin {

enum class AmgSmoother {
  kChebyshev,   ///< Jacobi-preconditioned Chebyshev (GAMG-style, SA-i)
  kKrylovIlu,   ///< FGMRES(2) + block-Jacobi ILU(0)  (SAML-ii style)
};

enum class AmgCoarsestSolve {
  kBlockJacobiLu, ///< exact LU per subdomain block
  kInexactKrylov, ///< FGMRES to 1e-3 relative (SAML-ii style)
};

/// The constants nothing tunes (the coarse-level strength threshold, the
/// prolongator damping and the coarsest block count) live in sa_amg.cpp.
struct AmgOptions {
  Real strength_threshold = 0.01; ///< on the finest level
  int block_size = 3;       ///< dofs per node (velocity: 3)
  int max_levels = 12;
  Index coarse_size = 100;  ///< stop coarsening at <= this many rows (ML default)
  bool smoothed = true;     ///< false = plain (unsmoothed) aggregation
  int smooth_pre = 2;
  int smooth_post = 2;
  AmgSmoother smoother = AmgSmoother::kChebyshev;
  AmgCoarsestSolve coarsest = AmgCoarsestSolve::kBlockJacobiLu;
  /// Seal the per-level Galerkin operators and prolongators at the end of
  /// setup (docs/ROBUSTNESS.md): the hierarchy is setup-immutable, so
  /// verify_seal() can detect a flipped bit. Enabled by -seal_operators.
  bool seal_operators = false;
};

class SaAmg : public Preconditioner {
public:
  /// `near_nullspace`: the rigid-body modes (may be empty -> constant modes
  /// per component are used).
  SaAmg(const CsrMatrix& a, const std::vector<Vector>& near_nullspace,
        const AmgOptions& opts);

  void apply(const Vector& r, Vector& z) const override;

  /// One V-cycle with a (possibly nonzero) initial guess.
  void vcycle(const Vector& b, Vector& x) const;

  int num_levels() const { return static_cast<int>(levels_.size()); }
  double setup_seconds() const { return setup_seconds_; }

  /// Total operator complexity: sum(nnz_l) / nnz_0.
  double operator_complexity() const;

  /// Verify the operator seal now: the "amg.operators/<region>" names that
  /// mismatch (empty when intact or seal_operators is off). The Stokes
  /// solver checks it after every solve.
  std::vector<std::string> verify_seal() const;

private:
  struct Level {
    CsrMatrix a;
    CsrMatrix p; ///< prolongation to this level's finer neighbor (unset on finest)
    ChebyshevSmoother smoother;
    std::unique_ptr<MatrixOperator> op;
    std::unique_ptr<Ilu0Pc> krylov_smoother_pc; ///< for kKrylovIlu
    mutable Vector r, e, rc, ec; // per-level cycle workspace (no per-call
                                 // allocation on the V-cycle hot path)
  };

  void smooth(const Level& lev, const Vector& b, Vector& x, int its) const;
  void cycle(int level, const Vector& b, Vector& x) const;
  /// The per-level A / P regions under seal_, enumerated afresh per call.
  std::vector<sdc::Region> seal_regions() const;

  std::vector<Level> levels_; ///< [0] = finest ... [L-1] = coarsest
  BlockJacobi coarsest_;
  AmgOptions opts_;
  double setup_seconds_ = 0.0;
  sdc::Seal seal_; ///< over the per-level A / P arrays
};

} // namespace ptatin
