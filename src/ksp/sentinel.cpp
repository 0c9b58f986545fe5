#include "ksp/sentinel.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/faultinject.hpp"
#include "obs/metrics.hpp"

namespace ptatin {

bool sdc_sentinel_drift(Real recurrence, Real truenorm, Real rnorm0, int it,
                        const KrylovSettings& s, SolveStats& stats) {
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("sdc.sentinel_checks").inc();
  if (fault::fires("sdc.krylov_drift"))
    recurrence = truenorm + 100.0 * s.sentinel_tol * (rnorm0 + 1.0);
  // Non-finite values are the NaN guard's jurisdiction, not drift.
  if (!std::isfinite(recurrence) || !std::isfinite(truenorm)) return false;
  const Real scale = std::max(rnorm0, std::numeric_limits<Real>::min());
  if (std::abs(recurrence - truenorm) <= s.sentinel_tol * scale) return false;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "recurrence residual %.6e vs true %.6e at it %d",
                double(recurrence), double(truenorm), it);
  stats.detail = buf;
  metrics.counter("sdc.sentinel_trips").inc();
  return true;
}

} // namespace ptatin
