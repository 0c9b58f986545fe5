#include "nonlin/newton.hpp"

#include <algorithm>
#include <cmath>

#include "common/faultinject.hpp"
#include "common/log.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"

namespace ptatin {

namespace {
constexpr Real kAtol = 1e-12; ///< absolute floor of the ||F|| target
// Safeguards (docs/ROBUSTNESS.md): divergence and stagnation detection.
constexpr Real kDivtol = 1e4;       ///< fail when ||F|| > kDivtol * ||F_0||
constexpr int kStagnationWindow = 3; ///< consecutive forced, non-decreasing
                                     ///< steps
// Eisenstat-Walker (choice 2) forcing terms.
constexpr Real kEwGamma = 0.9;
constexpr Real kEwAlpha = 2.0;
constexpr Real kEwRtol0 = 0.1;
constexpr Real kEwRtolMin = 1e-6;
constexpr Real kEwRtolMax = 0.5;
/// The line search's sufficient-decrease constant.
constexpr Real kLineSearchAlpha = 1e-4;
} // namespace

NonlinearStokesSolver::NonlinearStokesSolver(const StructuredMesh& mesh,
                                             const DirichletBc& bc,
                                             const NonlinearOptions& opts)
    : mesh_(mesh), bc_(bc), opts_(opts) {
  b_full_ = assemble_gradient_block(mesh);
}

void NonlinearStokesSolver::residual(const QuadCoefficients& coeff,
                                     const Vector& f, const Vector& u,
                                     const Vector& p, Vector& fu,
                                     Vector& fp) const {
  obs::MetricsRegistry::instance().counter("nonlin.residual_evaluations").inc();
  // F_u = A(eta) u + B p - f, with the raw (unmasked) bilinear form: u
  // carries the boundary values, so constrained rows are simply zeroed (the
  // boundary equation u_bc = g_bc is satisfied by construction).
  TensorViscousOperator a_raw(mesh_, coeff, nullptr, kSolverBatchWidth);
  a_raw.apply(u, fu);
  Vector bp;
  b_full_.mult(p, bp);
  fu.axpy(1.0, bp);
  fu.axpy(-1.0, f);
  bc_.zero_constrained(fu);

  // F_p = B^T u.
  b_full_.mult_transpose(u, fp);
}

NonlinearResult NonlinearStokesSolver::solve(
    const CoefficientUpdater& update_coefficients, const Vector& f, Vector& u,
    Vector& p) const {
  PerfScope span("NonlinearSolve");
  Timer timer;
  NonlinearResult res;
  const Index nu = num_velocity_dofs(mesh_);
  const Index np = num_pressure_dofs(mesh_);
  PT_ASSERT(u.size() == nu);
  if (p.size() != np) p.resize(np);

  QuadCoefficients coeff(mesh_.num_elements());
  Vector fu, fp;

  auto residual_norm = [&](const Vector& uu, const Vector& pp,
                           QuadCoefficients& cc) {
    update_coefficients(uu, pp, false, cc);
    residual(cc, f, uu, pp, fu, fp);
    const Real nrm_u = fu.norm2();
    const Real nrm_p = fp.norm2();
    return std::sqrt(nrm_u * nrm_u + nrm_p * nrm_p);
  };

  Real fnorm = fault::corrupt("nonlin.rnorm", residual_norm(u, p, coeff));
  const Real f0 = fnorm;
  res.residual_history.push_back(fnorm);
  const Real target = std::max(opts_.rtol * f0, kAtol);
  Real lin_rtol =
      opts_.eisenstat_walker ? kEwRtol0 : opts_.linear.krylov.rtol;
  Real lin_rtol_prev = lin_rtol;
  int total_it = 0;

  // One pass of the Picard/Newton iteration with a fresh iteration budget.
  // Returns kNone on convergence or an exhausted budget; any other value is
  // a detected failure the escalation policy below acts on. Every return
  // leaves (u, p) at the state of the last update_coefficients call:
  // PtatinContext's plastic stage reuses that evaluation and asserts it is
  // of the returned state (docs/SOLVER.md, "One point evaluation per state").
  auto attempt = [&](bool with_newton, bool with_ew) -> NonlinearFailure {
    int stagnant = 0;
    for (int it = 0; it < opts_.max_it && fnorm > target; ++it) {
      const bool newton_step =
          with_newton && total_it >= opts_.picard_iterations;

      // Refresh coefficients at the current state (with Newton terms when
      // the Krylov operator should carry them).
      update_coefficients(u, p, newton_step, coeff);

      // Linear solver + preconditioner setup on the fresh Picard
      // coefficients.
      StokesSolverOptions lopts = opts_.linear;
      lopts.newton_operator = newton_step;
      if (with_ew) lopts.krylov.rtol = lin_rtol;
      // The GMG hierarchy is rebuilt from scratch every iteration, but its
      // Galerkin RAP sparsity patterns only depend on the mesh — hand each
      // rebuild the cross-iteration cache so the coarse operators refresh
      // numeric-only (bitwise identical to the from-scratch product).
      lopts.gmg.setup_cache = &gmg_cache_;
      PerfScope step_span("NewtonStep");
      StokesSolver linear(mesh_, coeff, bc_, lopts);

      // Right-hand side: -F with homogeneous constrained rows. fu and fp
      // already hold F(u, p): the last residual evaluated this state (the
      // first residual or the accepted trial), at bitwise the same eta as the
      // refresh above. They stay unnegated for a Picard fallback.
      Vector rhs;
      linear.op().combine(fu, fp, rhs);
      rhs.scale(-1.0);

      StokesSolveResult lin = linear.solve_stacked(rhs);
      res.total_krylov_iterations += lin.stats.iterations;
      res.krylov_per_iteration.push_back(lin.stats.iterations);

      // A fatally diverged inner solve (NaN, dtol blow-up, breakdown)
      // produced a garbage direction: stop before it poisons the state.
      // kDivergedMaxIt is fine — inexact Newton tolerates truncated solves.
      if (is_fatal(lin.stats.reason) || fault::fires("nonlin.linsolve")) {
        res.failure_detail =
            std::string("linear solve: ") + lin.stats.reason_message();
        // (u, p) is the state the refresh above evaluated.
        return NonlinearFailure::kLinearFailure;
      }

      // Backtracking line search on ||F||.
      Real lambda = 1.0;
      Real fnorm_new = fnorm;
      Vector u_trial(nu), p_trial(np);
      bool accepted = false;
      {
        PerfScope ls_span("NewtonLineSearch");
        QuadCoefficients coeff_trial(mesh_.num_elements());
        for (int ls = 0; ls <= opts_.line_search_max; ++ls) {
          u_trial.copy_from(u);
          u_trial.axpy(lambda, lin.u);
          p_trial.copy_from(p);
          p_trial.axpy(lambda, lin.p);
          fnorm_new = residual_norm(u_trial, p_trial, coeff_trial);
          if (fnorm_new <= (1.0 - kLineSearchAlpha * lambda) * fnorm) {
            accepted = true;
            break;
          }
          lambda *= 0.5;
        }
      }
      // Accept the last trial even without sufficient decrease (the next
      // iteration's Picard refresh often recovers). The last trial is the
      // last evaluated state: returning to the pre-search (u, p) instead
      // would need a re-evaluation there, or the plastic stage throws.
      u.copy_from(u_trial);
      p.copy_from(p_trial);
      res.step_lengths.push_back(lambda);

      const Real fnorm_prev = fnorm;
      fnorm = fault::corrupt("nonlin.rnorm", fnorm_new);
      res.residual_history.push_back(fnorm);
      ++total_it;
      log_debug("nonlinear it ", total_it, ": |F| = ", fnorm,
                " lambda = ", lambda, accepted ? "" : " (forced)");

      if (!std::isfinite(fnorm)) {
        res.failure_detail = "nonlinear residual is NaN/Inf";
        return NonlinearFailure::kNanResidual;
      }
      if (fnorm > kDivtol * f0) {
        res.failure_detail = "||F|| exceeded divtol * ||F_0||";
        return NonlinearFailure::kDiverged;
      }
      stagnant = (!accepted && fnorm >= fnorm_prev) ? stagnant + 1 : 0;
      if (stagnant >= kStagnationWindow) {
        res.failure_detail = "line search made no progress";
        return NonlinearFailure::kStagnation;
      }

      // Eisenstat-Walker choice 2 forcing for the next solve.
      if (with_ew && fnorm_prev > 0) {
        Real eta = kEwGamma * std::pow(fnorm / fnorm_prev, kEwAlpha);
        const Real safeguard = kEwGamma * std::pow(lin_rtol_prev, kEwAlpha);
        if (safeguard > 0.1) eta = std::max(eta, safeguard);
        lin_rtol_prev = lin_rtol;
        lin_rtol = std::clamp(eta, kEwRtolMin, kEwRtolMax);
      }
    }
    return NonlinearFailure::kNone;
  };

  NonlinearFailure failure = NonlinearFailure::kNone;
  if (std::isfinite(fnorm)) {
    failure = attempt(opts_.use_newton, opts_.eisenstat_walker);
  } else {
    res.failure_detail = "initial nonlinear residual is NaN/Inf";
    failure = NonlinearFailure::kNanResidual;
  }

  // Escalation policy: a failed Newton path restarts as Picard with tight,
  // fixed linear forcing — the robust (if slow) linearization. NaN is not
  // retried here: the state itself is poisoned, and recovery belongs to the
  // timestep tier (rollback + smaller dt). An SDC sentinel trip is not a
  // linearization problem either — changing to Picard would mask the
  // corruption AND perturb the healed trajectory; the timestep tier owns the
  // same-dt replay (docs/ROBUSTNESS.md).
  const bool sdc_trip =
      res.failure_detail.find("diverged_sdc") != std::string::npos;
  if (failure != NonlinearFailure::kNone &&
      failure != NonlinearFailure::kNanResidual && !sdc_trip &&
      opts_.fallback_to_picard && opts_.use_newton) {
    log_warn("nonlinear solve: ", to_string(failure), " (",
             res.failure_detail, ") — restarting with Picard");
    obs::MetricsRegistry::instance()
        .counter("safeguard.newton_fallbacks")
        .inc();
    res.picard_fallbacks = 1;
    res.failure_detail.clear();
    failure = attempt(/*with_newton=*/false, /*with_ew=*/false);
  }

  res.iterations = total_it;
  res.converged = std::isfinite(fnorm) && fnorm <= target;
  res.failure = res.converged ? NonlinearFailure::kNone : failure;
  if (res.failure != NonlinearFailure::kNone)
    obs::MetricsRegistry::instance()
        .counter("safeguard.nonlin_failures")
        .inc();

  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("nonlin.solves").inc();
  metrics.counter("nonlin.iterations").inc(total_it);
  if (auto& report = obs::SolverReport::global(); report.enabled()) {
    obs::NewtonRecord rec;
    rec.label = opts_.use_newton ? "newton" : "picard";
    rec.converged = res.converged;
    rec.failure = res.failure == NonlinearFailure::kNone
                      ? ""
                      : res.failure_detail.empty()
                            ? std::string(to_string(res.failure))
                            : std::string(to_string(res.failure)) + " (" +
                                  res.failure_detail + ")";
    rec.fallbacks = res.picard_fallbacks;
    rec.iterations = res.iterations;
    rec.total_krylov_iterations = res.total_krylov_iterations;
    rec.seconds = timer.seconds();
    rec.residual_history = res.residual_history;
    rec.krylov_per_iteration = res.krylov_per_iteration;
    rec.step_lengths = res.step_lengths;
    report.add_newton(std::move(rec));
  }
  return res;
}

} // namespace ptatin
