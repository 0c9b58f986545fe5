// Schur complement reduction (SCR, §III-B).
//
// The alternative to full-space iteration: eliminate the velocity and solve
//   S dp = J_pu J_uu^{-1} F_u - F_p,   S = -J_pu J_uu^{-1} J_up
// with an outer Krylov method on the pressure space, every application of S
// performing an accurate inner J_uu solve; then recover
//   du = J_uu^{-1} (F_u - J_up dp).
// "These methods tend to be reliable, but ... tend to be expensive"; §IV-A
// attributes the robustness gap of the triangular preconditioner at extreme
// contrasts to non-normality that SCR avoids.
#pragma once

#include "ksp/settings.hpp"
#include "saddle/stokes_operator.hpp"
#include "stokes/blocks.hpp"

namespace ptatin {

struct ScrOptions {
  KrylovSettings outer;       ///< pressure-space solve (FGMRES)
  KrylovSettings inner;       ///< velocity solves (GCR + velocity PC)
  ScrOptions() {
    outer.rtol = 1e-5;
    outer.max_it = 200;
    inner.rtol = 1e-8; // accurate inner solves are the point of SCR
    inner.max_it = 200;
  }
};

struct ScrStats {
  SolveStats outer;
  long inner_solves = 0;
  long inner_iterations = 0;
  /// First fatal divergence reason seen by an inner velocity solve
  /// (kIterating when all inner solves were healthy). The outer solve
  /// usually diverges too once an inner solve is poisoned; this field tells
  /// the caller *why* — the inner breakdown, not the outer symptom.
  ConvergedReason inner_failure = ConvergedReason::kIterating;
};

/// Solve the coupled system given a velocity preconditioner and the pressure
/// Schur approximation (used to precondition the outer solve). `rhs` is the
/// stacked [F_u; F_p]; `x` returns [u; p].
ScrStats scr_solve(const StokesOperator& op, const Preconditioner& velocity_pc,
                   const PressureMassSchur& schur, const Vector& rhs, Vector& x,
                   const ScrOptions& opts);

/// The Uzawa method (§III-B: "a well-known stationary iteration in the SCR
/// family"): Richardson iteration on the Schur complement,
///   u_k = J_uu^{-1} (F_u - J_up p_k)
///   p_{k+1} = p_k + Mp^{-1} (J_pu u_k - F_p),
/// each step costing one accurate velocity solve.
struct UzawaOptions {
  int max_it = 200;
  Real rtol = 1e-5;        ///< on the divergence residual ||J_pu u - F_p||
  KrylovSettings inner;    ///< velocity solves
  UzawaOptions() {
    inner.rtol = 1e-8;
    inner.max_it = 300;
  }
};

struct UzawaStats {
  bool converged = false;
  int iterations = 0;
  long inner_iterations = 0;
  std::vector<Real> history; ///< divergence residual per iteration
};

UzawaStats uzawa_solve(const StokesOperator& op,
                       const Preconditioner& velocity_pc,
                       const PressureMassSchur& schur, const Vector& rhs,
                       Vector& x, const UzawaOptions& opts);

} // namespace ptatin
