// Shared Krylov solver settings, statistics, and monitoring hooks.
//
// Every Krylov method and smoother reports a typed ConvergedReason (the
// PETSc KSPConvergedReason analogue) instead of throwing or spinning: NaN or
// Inf in the residual, divergence past dtol * ||r_0||, and algorithmic
// breakdowns all terminate the iteration with a machine-checkable reason the
// nonlinear and timestep safeguard tiers act on (docs/ROBUSTNESS.md).
#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "la/vector.hpp"

namespace ptatin {

/// Why a Krylov iteration stopped. Converged reasons are successes;
/// diverged reasons feed the safeguard escalation chain.
enum class ConvergedReason {
  kIterating = 0,      ///< not stopped (internal sentinel)
  kConvergedRtol,      ///< ||r|| <= rtol * ||r_0||
  kConvergedAtol,      ///< ||r|| <= kKrylovAtol
  kDivergedDtol,       ///< ||r|| > dtol * ||r_0|| (residual blow-up)
  kDivergedNanOrInf,   ///< NaN or Inf entered the iteration
  kDivergedBreakdown,  ///< algorithmic breakdown (zero pivot / indefinite)
  kDivergedMaxIt,      ///< iteration cap reached without convergence
  kDivergedSdc,        ///< sentinel: recurrence residual drifted off the
                       ///< recomputed true residual (silent data corruption,
                       ///< docs/ROBUSTNESS.md)
};

constexpr const char* to_string(ConvergedReason r) {
  switch (r) {
    case ConvergedReason::kIterating: return "iterating";
    case ConvergedReason::kConvergedRtol: return "converged_rtol";
    case ConvergedReason::kConvergedAtol: return "converged_atol";
    case ConvergedReason::kDivergedDtol: return "diverged_dtol";
    case ConvergedReason::kDivergedNanOrInf: return "diverged_nanorinf";
    case ConvergedReason::kDivergedBreakdown: return "diverged_breakdown";
    case ConvergedReason::kDivergedMaxIt: return "diverged_max_it";
    case ConvergedReason::kDivergedSdc: return "diverged_sdc";
  }
  return "unknown";
}

constexpr bool is_converged(ConvergedReason r) {
  return r == ConvergedReason::kConvergedRtol ||
         r == ConvergedReason::kConvergedAtol;
}

/// Divergence that signals a *broken* solve (garbage or poisoned iterate),
/// as opposed to kDivergedMaxIt which inexact outer methods tolerate.
constexpr bool is_fatal(ConvergedReason r) {
  return r == ConvergedReason::kDivergedDtol ||
         r == ConvergedReason::kDivergedNanOrInf ||
         r == ConvergedReason::kDivergedBreakdown ||
         r == ConvergedReason::kDivergedSdc;
}

/// Absolute residual tolerance of every Krylov solve, so small that in
/// practice only a zero residual (a zero right-hand side) meets it.
inline constexpr Real kKrylovAtol = 1e-50;

struct KrylovSettings {
  Real rtol = 1e-5;  ///< relative (unpreconditioned) residual tolerance
  Real dtol = 1e5;   ///< divergence ratio: ||r|| > dtol * ||r_0|| aborts
                     ///< (<= 0 disables the guard)
  int max_it = 10000;
  int restart = 30;          ///< GMRES/FGMRES/GCR restart length
  bool record_history = true;
  /// SDC sentinel cadence (docs/ROBUSTNESS.md): every sentinel_every
  /// iterations GMRES/CG recompute the true residual ||b - A x|| and compare
  /// it against the recurrence-tracked norm. Relative drift (measured
  /// against ||r_0||) beyond sentinel_tol stops with kDivergedSdc — silent
  /// corruption of the Krylov basis or operator data makes the cheap
  /// recurrence "converge" on garbage the true residual exposes. 0 = off.
  /// The sentinel only *reads* extra state, so a clean run's trajectory is
  /// bitwise unchanged. (GCR needs no sentinel: it iterates on the explicit
  /// residual already.)
  int sentinel_every = 0;
  Real sentinel_tol = 1e-6;
  /// Called once per iteration with (iteration, ||r||, residual-or-null).
  /// GCR passes the explicit residual vector; GMRES variants pass nullptr
  /// because the residual exists only through the Arnoldi recurrence (§III-A).
  std::function<void(int, Real, const Vector*)> monitor;
};

struct SolveStats {
  bool converged = false;
  ConvergedReason reason = ConvergedReason::kIterating;
  std::string detail; ///< optional human-readable annotation (breakdown cause)
  int iterations = 0;
  Real initial_residual = 0.0;
  Real final_residual = 0.0;
  std::vector<Real> history; ///< residual norm per iteration (if recorded)

  const char* reason_str() const { return to_string(reason); }
  /// "reason (detail)" — the string recorded in telemetry.
  std::string reason_message() const {
    std::string s = reason_str();
    if (!detail.empty()) s += " (" + detail + ")";
    return s;
  }
};

/// The stateless convergence/divergence test every Krylov loop shares.
/// Evaluate after each residual-norm update; iterate while it returns
/// kIterating. NaN/Inf is checked first so a poisoned norm can never
/// satisfy (or keep failing) a comparison-based exit.
class ConvergenceTest {
public:
  ConvergenceTest(const KrylovSettings& s, Real rnorm0)
      : target_(std::max(kKrylovAtol, s.rtol * rnorm0)),
        divergence_(s.dtol > 0 && std::isfinite(rnorm0) ? s.dtol * rnorm0
                                                        : Real(0)),
        max_it_(s.max_it) {}

  Real target() const { return target_; }

  ConvergedReason test(Real rnorm, int it) const {
    if (!std::isfinite(rnorm)) return ConvergedReason::kDivergedNanOrInf;
    if (rnorm <= target_)
      return rnorm <= kKrylovAtol ? ConvergedReason::kConvergedAtol
                                  : ConvergedReason::kConvergedRtol;
    if (divergence_ > 0 && rnorm > divergence_)
      return ConvergedReason::kDivergedDtol;
    if (it >= max_it_) return ConvergedReason::kDivergedMaxIt;
    return ConvergedReason::kIterating;
  }

private:
  Real target_, divergence_;
  int max_it_;
};

} // namespace ptatin
