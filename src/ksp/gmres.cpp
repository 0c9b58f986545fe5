#include "ksp/gmres.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "ksp/sentinel.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"

namespace ptatin {

namespace {

/// Shared implementation of right-preconditioned (F)GMRES(m).
/// When `flexible` is true, the preconditioned vectors Z_j are stored and the
/// solution update uses Z (FGMRES, Saad '93); otherwise the update is
/// x += M^{-1} (V y), valid only for a fixed (linear) preconditioner.
SolveStats gmres_impl(const LinearOperator& a, const Preconditioner& pc,
                      const Vector& b, Vector& x, const KrylovSettings& s,
                      bool flexible) {
  PerfScope span(flexible ? "KSPSolve(FGMRES)" : "KSPSolve(GMRES)");
  SolveStats stats;
  const Index n = b.size();
  if (x.size() != n) x.resize(n);
  const int m = std::max(1, s.restart);

  std::vector<Vector> V(m + 1);
  std::vector<Vector> Z(flexible ? m : 0);
  // Hessenberg in column-major (j-th column has j+2 entries).
  std::vector<std::vector<Real>> H(m, std::vector<Real>(m + 1, 0.0));
  std::vector<Real> cs(m), sn(m), g(m + 1);

  Vector r(n), w(n), ztmp(n);
  Vector sx, sr, sw, sz; // sentinel scratch, sized on first use
  a.residual(b, x, r);
  Real rnorm = fault::corrupt("ksp.rnorm", r.norm2());
  stats.initial_residual = rnorm;
  const ConvergenceTest conv(s, rnorm);
  if (s.record_history) stats.history.push_back(rnorm);
  if (s.monitor) s.monitor(0, rnorm, &r);

  // Solve the cols x cols triangular system H y = g and add the resulting
  // Krylov correction to xs. Shared by the end-of-cycle update and the SDC
  // sentinel (which applies it to a scratch copy of x mid-cycle).
  auto apply_update = [&](int cols, Vector& xs, Vector& acc, Vector& tmp) {
    std::vector<Real> y(cols, 0.0);
    for (int i = cols - 1; i >= 0; --i) {
      Real sum = g[i];
      for (int k = i + 1; k < cols; ++k) sum -= H[k][i] * y[k];
      y[i] = sum / H[i][i];
    }
    if (flexible) {
      for (int i = 0; i < cols; ++i) xs.axpy(y[i], Z[i]);
    } else if (cols > 0) {
      // xs += M^{-1} (V y)
      acc.resize(n);
      acc.set_all(0.0);
      for (int i = 0; i < cols; ++i) acc.axpy(y[i], V[i]);
      tmp.resize(n);
      pc.apply(acc, tmp);
      xs.axpy(1.0, tmp);
    }
  };

  int total_it = 0;
  ConvergedReason reason = conv.test(rnorm, total_it);
  while (reason == ConvergedReason::kIterating) {
    // --- start (restart) cycle ---
    V[0].set_scaled(Real(1) / rnorm, r);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = rnorm;

    // j counts the completed Arnoldi columns of this cycle; a column that
    // breaks down is abandoned and the update below uses the j good ones.
    int j = 0;
    while (j < m && reason == ConvergedReason::kIterating) {
      // w = A M^{-1} v_j
      if (flexible) {
        pc.apply(V[j], Z[j]);
        a.apply(Z[j], w);
      } else {
        pc.apply(V[j], ztmp);
        a.apply(ztmp, w);
      }
      // Modified Gram–Schmidt, one fused sweep per basis vector: the sweep
      // that subtracts H_ji V_i forms the next coefficient (w, V_{i+1}), the
      // last one (w, w) — GCR's kernel without z (la/vector.hpp).
      Real h = w.dot(V[0]);
      for (int i = 0; i <= j; ++i) {
        H[j][i] = h;
        h = mgs_sweep(h, V[i], w, i < j ? V[i + 1] : w);
      }
      H[j][j + 1] = std::sqrt(h);
      if (H[j][j + 1] > 0.0) {
        V[j + 1].set_scaled(Real(1) / H[j][j + 1], w);
      } else if (V[j + 1].size() != n) {
        V[j + 1].resize(n);
      }

      // Apply accumulated Givens rotations to the new column.
      for (int i = 0; i < j; ++i) {
        const Real t = cs[i] * H[j][i] + sn[i] * H[j][i + 1];
        H[j][i + 1] = -sn[i] * H[j][i] + cs[i] * H[j][i + 1];
        H[j][i] = t;
      }
      // New rotation to annihilate H[j][j+1]. A vanishing column is a hard
      // breakdown: exit with the columns accumulated so far instead of
      // producing a singular triangular solve.
      Real denom = std::hypot(H[j][j], H[j][j + 1]);
      if (fault::fires("ksp.breakdown")) denom = 0.0;
      if (!(denom > 0.0) || !std::isfinite(denom)) {
        reason = ConvergedReason::kDivergedBreakdown;
        stats.detail = "zero Hessenberg column";
        break;
      }
      cs[j] = H[j][j] / denom;
      sn[j] = H[j][j + 1] / denom;
      H[j][j] = denom;
      H[j][j + 1] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      rnorm = fault::corrupt("ksp.rnorm", std::abs(g[j + 1]));
      ++j;
      ++total_it;
      if (s.record_history) stats.history.push_back(rnorm);
      if (s.monitor) s.monitor(total_it, rnorm, nullptr);
      reason = conv.test(rnorm, total_it);

      // SDC sentinel: every sentinel_every iterations materialize the
      // candidate solution from the j completed columns and recompute the
      // true residual the recurrence claims to track. Reads only scratch
      // vectors, so the iteration itself is bitwise unchanged.
      if (s.sentinel_every > 0 && reason == ConvergedReason::kIterating &&
          total_it % s.sentinel_every == 0) {
        sx.copy_from(x);
        apply_update(j, sx, sw, sz);
        sr.resize(n);
        a.residual(b, sx, sr);
        if (sdc_sentinel_drift(rnorm, sr.norm2(), stats.initial_residual,
                               total_it, s, stats))
          reason = ConvergedReason::kDivergedSdc;
      }
    }

    // Update the solution with the j completed columns.
    apply_update(j, x, w, ztmp);

    const Real recurrence_norm = rnorm;
    a.residual(b, x, r);
    rnorm = r.norm2();
    // The explicit residual here is free: cross-check the recurrence against
    // it when the sentinel is enabled (a drift at cycle end is the same
    // corruption signal as mid-cycle).
    if (s.sentinel_every > 0 && !is_fatal(reason) && j > 0 &&
        sdc_sentinel_drift(recurrence_norm, rnorm, stats.initial_residual,
                           total_it, s, stats))
      reason = ConvergedReason::kDivergedSdc;
    // Re-test against the explicit residual: the Arnoldi recurrence can
    // disagree near convergence, and a max_it exit may actually have met
    // the target. Fatal reasons (NaN, dtol, breakdown, SDC) stand.
    if (!is_fatal(reason)) reason = conv.test(rnorm, total_it);
  }

  stats.iterations = total_it;
  stats.final_residual = rnorm;
  stats.reason = reason;
  stats.converged = is_converged(reason);
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter(flexible ? "ksp.fgmres.solves" : "ksp.gmres.solves").inc();
  metrics.counter(flexible ? "ksp.fgmres.iterations" : "ksp.gmres.iterations")
      .inc(total_it);
  return stats;
}

} // namespace

SolveStats gmres_solve(const LinearOperator& a, const Preconditioner& pc,
                       const Vector& b, Vector& x, const KrylovSettings& s) {
  return gmres_impl(a, pc, b, x, s, /*flexible=*/false);
}

SolveStats fgmres_solve(const LinearOperator& a, const Preconditioner& pc,
                        const Vector& b, Vector& x, const KrylovSettings& s) {
  return gmres_impl(a, pc, b, x, s, /*flexible=*/true);
}

} // namespace ptatin
