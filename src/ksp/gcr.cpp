#include "ksp/gcr.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"

namespace ptatin {

SolveStats gcr_solve(const LinearOperator& a, const Preconditioner& pc,
                     const Vector& b, Vector& x, const KrylovSettings& s) {
  PerfScope span("KSPSolve(GCR)");
  SolveStats stats;
  const Index n = b.size();
  if (x.size() != n) x.resize(n);
  const int m = std::max(1, s.restart);

  // Search directions s_k and their images As_k, orthonormalized in the
  // A-image inner product: (As_i, As_j) = delta_ij.
  std::vector<Vector> S(m), AS(m);

  Vector r(n), z(n), az(n);
  a.residual(b, x, r);
  Real rnorm = fault::corrupt("ksp.rnorm", r.norm2());
  stats.initial_residual = rnorm;
  const ConvergenceTest conv(s, rnorm);
  if (s.record_history) stats.history.push_back(rnorm);
  if (s.monitor) s.monitor(0, rnorm, &r);

  int total_it = 0;
  ConvergedReason reason = conv.test(rnorm, total_it);
  while (reason == ConvergedReason::kIterating) {
    for (int k = 0; k < m && reason == ConvergedReason::kIterating; ++k) {
      pc.apply(r, z);
      a.apply(z, az);

      // Orthogonalize (z, az) against the previous directions by modified
      // Gram–Schmidt: one fused sweep per direction subtracts beta_i (S_i,
      // AS_i) and forms the next beta, (az, AS_{i+1}), while AS_{i+1} is in
      // cache for its own update; the last sweep forms (az, az). Bitwise the
      // dot, axpy, axpy sequence (la/vector.hpp).
      Real d = az.dot(k > 0 ? AS[0] : az);
      for (int i = 0; i < k; ++i)
        d = mgs_sweep(d, AS[i], az, i + 1 < k ? AS[i + 1] : az, &S[i], &z);
      Real aznorm = std::sqrt(d);
      if (fault::fires("ksp.breakdown")) aznorm = 0.0;
      if (!(aznorm > 0.0) || !std::isfinite(aznorm)) {
        reason = std::isfinite(aznorm) ? ConvergedReason::kDivergedBreakdown
                                       : ConvergedReason::kDivergedNanOrInf;
        stats.detail = "A-image of search direction vanished";
        break;
      }
      S[k].set_scaled(Real(1) / aznorm, z);
      AS[k].set_scaled(Real(1) / aznorm, az);

      const Real alpha = r.dot(AS[k]);
      x.axpy(alpha, S[k]);
      r.axpy(-alpha, AS[k]);
      rnorm = fault::corrupt("ksp.rnorm", r.norm2());
      ++total_it;
      if (s.record_history) stats.history.push_back(rnorm);
      if (s.monitor) s.monitor(total_it, rnorm, &r);
      reason = conv.test(rnorm, total_it);
    }
  }

  stats.iterations = total_it;
  stats.final_residual = rnorm;
  stats.reason = reason;
  stats.converged = is_converged(reason);
  obs::MetricsRegistry::instance().counter("ksp.gcr.solves").inc();
  obs::MetricsRegistry::instance().counter("ksp.gcr.iterations").inc(total_it);
  return stats;
}

} // namespace ptatin
