#include "ptatin/health.hpp"

#include <cmath>
#include <sstream>

#include "common/faultinject.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "ptatin/context.hpp"

namespace ptatin {

namespace {

Index count_nonfinite(const Vector& v) {
  Index bad = 0;
  for (Index i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i])) ++bad;
  return bad;
}

} // namespace

std::string HealthReport::summary() const {
  if (issues.empty()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size(); ++i)
    os << (i > 0 ? "; " : "") << issues[i];
  return os.str();
}

HealthReport check_health(PtatinContext& ctx, const HealthOptions& opts) {
  PerfScope span("HealthCheck");
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("health.checks").inc();

  HealthReport rep;

  rep.nonfinite_values = count_nonfinite(ctx.velocity()) +
                         count_nonfinite(ctx.pressure()) +
                         count_nonfinite(ctx.temperature());
  if (fault::fires("health.field_nan")) ++rep.nonfinite_values;
  if (rep.nonfinite_values > 0) {
    metrics.counter("health.nonfinite_values").inc(rep.nonfinite_values);
    std::ostringstream os;
    os << rep.nonfinite_values << " non-finite field value"
       << (rep.nonfinite_values == 1 ? "" : "s");
    rep.issues.push_back(os.str());
  }

  const StructuredMesh& mesh = ctx.mesh();
  rep.inverted_elements =
      static_cast<Index>(parallel_reduce_sum(mesh.num_elements(), [&](Index e) {
        return mesh.element_min_jacobian(e) > Real(0) ? Real(0) : Real(1);
      }));
  if (rep.inverted_elements > 0) {
    metrics.counter("health.inverted_elements").inc(rep.inverted_elements);
    std::ostringstream os;
    os << rep.inverted_elements << " element"
       << (rep.inverted_elements == 1 ? "" : "s")
       << " with nonpositive Jacobian (inverted/degenerate ALE mesh)";
    rep.issues.push_back(os.str());
  }

  if (opts.check_population) {
    // Read through const access: the non-const points() accessor bumps the
    // state epoch, which would disarm the SDC state seal and mask exactly
    // the corruption this pass cannot see (docs/ROBUSTNESS.md). Only the
    // repair below is a sanctioned mutation.
    const PtatinContext& cctx = ctx;
    population_bounds(cctx.mesh(), cctx.points(), rep.min_per_cell,
                      rep.max_per_cell);
    const auto violated = [&] {
      return rep.min_per_cell < opts.population.min_per_element ||
             rep.max_per_cell > opts.population.max_per_element;
    };
    if (violated() && opts.repair_population) {
      control_population(ctx.mesh(), opts.population, ctx.points());
      population_bounds(ctx.mesh(), ctx.points(), rep.min_per_cell,
                        rep.max_per_cell);
      rep.repaired = true;
      metrics.counter("health.population_repairs").inc();
    }
    rep.population_violation = violated();
    if (rep.population_violation) {
      metrics.counter("health.population_violations").inc();
      std::ostringstream os;
      os << "per-cell population [" << rep.min_per_cell << ", "
         << rep.max_per_cell << "] outside band ["
         << opts.population.min_per_element << ", "
         << opts.population.max_per_element << "]";
      // Donor-free deficient regions are legitimate (points can advect out
      // of a corner for good); count and warn, but do not fail the run.
      log_warn("health: ", os.str(), " (not fatal; repair ",
               rep.repaired ? "attempted" : "disabled", ")");
    }
  }

  rep.ok = rep.issues.empty();
  if (!rep.ok) {
    metrics.counter("health.failures").inc();
    log_warn("health check failed: ", rep.summary());
  }
  return rep;
}

} // namespace ptatin
