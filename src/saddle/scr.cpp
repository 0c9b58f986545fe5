#include "saddle/scr.hpp"

#include "common/timing.hpp"
#include "ksp/gcr.hpp"
#include "ksp/gmres.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"

namespace ptatin {

ScrStats scr_solve(const StokesOperator& op, const Preconditioner& velocity_pc,
                   const PressureMassSchur& schur, const Vector& rhs, Vector& x,
                   const ScrOptions& opts) {
  PerfScope span("ScrSolve");
  Timer timer;
  ScrStats stats;
  const Index nu = op.num_velocity();
  const Index np = op.num_pressure();

  Vector fu, fp;
  op.extract_u(rhs, fu);
  op.extract_p(rhs, fp);

  auto inner_solve = [&](const Vector& b, Vector& u) {
    u.resize(nu);
    u.set_all(0.0);
    SolveStats st =
        gcr_solve(op.viscous(), velocity_pc, b, u, opts.inner);
    ++stats.inner_solves;
    stats.inner_iterations += st.iterations;
    if (is_fatal(st.reason) &&
        stats.inner_failure == ConvergedReason::kIterating) {
      stats.inner_failure = st.reason;
      obs::MetricsRegistry::instance()
          .counter("safeguard.scr_inner_failures")
          .inc();
    }
  };

  // Schur RHS: J_pu J_uu^{-1} F_u - F_p.
  Vector u0, srhs;
  inner_solve(fu, u0);
  op.divergence().mult(u0, srhs);
  srhs.axpy(-1.0, fp);

  // S dp = srhs with S = -J_pu J_uu^{-1} J_up applied matrix-free. We flip
  // the sign so the outer operator is S_pos = J_pu J_uu^{-1} J_up (positive
  // semidefinite) and solve S_pos dp = srhs (absorbing the minus of S).
  ShellOperator s_pos(np, np, [&](const Vector& p, Vector& sp) {
    Vector bp(nu), u;
    op.gradient().mult(p, bp); // J_up p
    op.bc().zero_constrained(bp);
    inner_solve(bp, u);
    op.divergence().mult(u, sp); // J_pu u
  });

  // Precondition the outer solve with the viscosity-scaled mass matrix.
  ShellPc schur_pc(
      [&](const Vector& r, Vector& z) { schur.apply(r, z); });

  Vector dp(np, 0.0);
  stats.outer = fgmres_solve(s_pos, schur_pc, srhs, dp, opts.outer);

  // Velocity recovery: du = J_uu^{-1} (F_u - J_up dp).
  Vector bp(nu), du;
  op.gradient().mult(dp, bp);
  op.bc().zero_constrained(bp);
  Vector fu2;
  fu2.copy_from(fu);
  fu2.axpy(-1.0, bp);
  inner_solve(fu2, du);

  op.combine(du, dp, x);

  if (auto& report = obs::SolverReport::global(); report.enabled()) {
    obs::KrylovRecord rec;
    rec.label = "scr_outer";
    rec.method = "fgmres";
    rec.converged = stats.outer.converged;
    rec.iterations = stats.outer.iterations;
    rec.initial_residual = stats.outer.initial_residual;
    rec.final_residual = stats.outer.final_residual;
    rec.seconds = timer.seconds();
    rec.reason = stats.inner_failure != ConvergedReason::kIterating
                     ? stats.outer.reason_message() + "; inner: " +
                           to_string(stats.inner_failure)
                     : stats.outer.reason_message();
    rec.history = stats.outer.history;
    report.add_krylov(std::move(rec));
  }
  return stats;
}

UzawaStats uzawa_solve(const StokesOperator& op,
                       const Preconditioner& velocity_pc,
                       const PressureMassSchur& schur, const Vector& rhs,
                       Vector& x, const UzawaOptions& opts) {
  UzawaStats stats;
  const Index nu = op.num_velocity();
  const Index np = op.num_pressure();

  Vector fu, fp;
  op.extract_u(rhs, fu);
  op.extract_p(rhs, fp);

  Vector p(np, 0.0), u(nu, 0.0), bu(nu), rp(np), zp(np);
  Real target = -1.0;
  int it = 0;
  for (; it < opts.max_it; ++it) {
    // u = J_uu^{-1} (F_u - J_up p), accurate inner solve.
    op.gradient().mult(p, bu);
    op.bc().zero_constrained(bu);
    Vector b;
    b.copy_from(fu);
    b.axpy(-1.0, bu);
    u.set_all(0.0);
    SolveStats ist = gcr_solve(op.viscous(), velocity_pc, b, u, opts.inner);
    stats.inner_iterations += ist.iterations;

    // Divergence residual r_p = J_pu u - F_p.
    op.divergence().mult(u, rp);
    rp.axpy(-1.0, fp);
    const Real rn = rp.norm2();
    stats.history.push_back(rn);
    if (target < 0) target = opts.rtol * std::max(rn, Real(1e-300));
    if (rn <= target) {
      stats.converged = true;
      break;
    }

    // p += Mp^{-1} r_p.
    schur.apply(rp, zp);
    p.axpy(1.0, zp);
  }

  stats.iterations = it;
  op.combine(u, p, x);
  return stats;
}

} // namespace ptatin
