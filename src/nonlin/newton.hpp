// Nonlinear Stokes solver: Picard and Newton iterations (§III-A).
//
// "A Picard iteration involves successive solves with eta(D(u)) taken from
// the previous iteration. Picard linearization is observed to stagnate in
// many plasticity models, so we turn to a Newton method which provides much
// faster convergence in the terminal phase. ... we use the true Newton
// linearization only when applying the Krylov operator in the (approximate)
// solves at each Newton step. For the preconditioner, which is the primary
// cost, we use the Picard linearization. Newton iterations are guarded by a
// backtracking line search, and tolerances for the linear solve are
// adaptively set by using the Eisenstat-Walker method."
#pragma once

#include <functional>

#include "mg/gmg.hpp"
#include "saddle/stokes_solver.hpp"

namespace ptatin {

/// Fills the quadrature coefficients (eta, rho, and — when `newton_terms` —
/// deta and D0) from the current state. Provided by the model driver, which
/// combines MPM lithology, rheology laws, temperature, and strain rates.
using CoefficientUpdater = std::function<void(
    const Vector& u, const Vector& p, bool newton_terms, QuadCoefficients&)>;

/// Why a nonlinear solve failed (kNone covers success *and* plain
/// running-out-of-iterations, which inexact time-stepping tolerates).
/// Fatal reasons feed the timestep safeguard tier (docs/ROBUSTNESS.md).
enum class NonlinearFailure {
  kNone = 0,
  kNanResidual,    ///< ||F|| became NaN/Inf — state is poisoned
  kDiverged,       ///< ||F|| > divtol * ||F_0||
  kStagnation,     ///< repeated failed line searches without decrease
  kLinearFailure,  ///< inner linear solve reported a fatal divergence
};

constexpr const char* to_string(NonlinearFailure f) {
  switch (f) {
    case NonlinearFailure::kNone: return "none";
    case NonlinearFailure::kNanResidual: return "nan_residual";
    case NonlinearFailure::kDiverged: return "diverged";
    case NonlinearFailure::kStagnation: return "stagnation";
    case NonlinearFailure::kLinearFailure: return "linear_failure";
  }
  return "unknown";
}

/// The tolerances nothing tunes (the absolute floor, the divergence and
/// stagnation guards, the Eisenstat-Walker constants and the line search's
/// sufficient-decrease constant) are constants in newton.cpp.
struct NonlinearOptions {
  int max_it = 20;
  Real rtol = 1e-4;   ///< relative nonlinear tolerance (||F|| / ||F_0||)
  int picard_iterations = 1; ///< initial Picard steps before Newton
  bool use_newton = true;    ///< false: pure Picard throughout
  /// Newton failure => Picard restart with tight (non-EW) linear forcing
  /// (docs/ROBUSTNESS.md).
  bool fallback_to_picard = true;
  bool eisenstat_walker = true; ///< Eisenstat-Walker (choice 2) forcing
  int line_search_max = 8;      ///< backtracking halvings per step
  StokesSolverOptions linear;   ///< linear solver / preconditioner config
};

struct NonlinearResult {
  bool converged = false;
  NonlinearFailure failure = NonlinearFailure::kNone;
  std::string failure_detail; ///< human-readable cause (inner reason, ...)
  int picard_fallbacks = 0;   ///< Newton -> Picard escalations taken
  int iterations = 0;
  long total_krylov_iterations = 0;
  std::vector<Real> residual_history; ///< ||F|| per nonlinear iteration
  std::vector<int> krylov_per_iteration;
  std::vector<Real> step_lengths;
};

class NonlinearStokesSolver {
public:
  /// Geometry-dependent setup (the gradient block) happens once here.
  NonlinearStokesSolver(const StructuredMesh& mesh, const DirichletBc& bc,
                        const NonlinearOptions& opts);

  /// Solve F(u,p) = 0 with body force f (velocity space). `u` and `p` carry
  /// the initial guess in and the solution out; u must satisfy the Dirichlet
  /// values on entry (call bc.set_values(u) for a fresh start).
  NonlinearResult solve(const CoefficientUpdater& update_coefficients,
                        const Vector& f, Vector& u, Vector& p) const;

  /// Nonlinear residual F = [A(eta) u + B p - f ; B^T u] with constrained
  /// rows zeroed (u assumed to satisfy the boundary values).
  void residual(const QuadCoefficients& coeff, const Vector& f,
                const Vector& u, const Vector& p, Vector& fu,
                Vector& fp) const;

private:
  const StructuredMesh& mesh_;
  const DirichletBc& bc_;
  NonlinearOptions opts_;
  CsrMatrix b_full_;
  /// Cross-iteration GMG setup cache: every Newton step rebuilds the
  /// hierarchy, but the Galerkin RAP patterns are mesh-topological — the
  /// cache turns the rebuild's coarse products into numeric-only refreshes.
  /// Mutable because solve() is const. That shared cache is also why solve()
  /// is not concurrently reentrant: two concurrent solves would refresh it
  /// at once.
  mutable GmgSetupCache gmg_cache_;
};

} // namespace ptatin
