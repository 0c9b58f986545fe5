// Run-health watchdog: is the model state physically sane?
//
// Long runs must not checkpoint — or keep integrating — a poisoned state. A
// HealthCheck pass scans the solution fields for NaN/Inf, checks element
// Jacobian positivity on the (ALE-deformed) mesh, and enforces the per-cell
// material point population band, invoking the population-control repair
// when the band is violated. It runs before every durable checkpoint save,
// after every restart, and every -health_every steps (wired through
// SafeguardedStepper); a failed check triggers the rollback/retry tier
// instead of letting the bad state persist (docs/ROBUSTNESS.md).
//
// Fault site "health.field_nan" (common/faultinject.hpp) makes the field
// scan report one non-finite value deterministically, so the detection and
// rollback wiring is proven by tests without poisoning real state.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "mpm/population.hpp"

namespace ptatin {

class PtatinContext;

/// The check always scans u/p/T for NaN/Inf and the ALE mesh for element
/// min det J <= 0; the population pass is optional. A band violation that
/// repair cannot fix is counted and warned about, never fatal: donor-free
/// regions are legitimate.
struct HealthOptions {
  bool check_population = true;  ///< per-cell point count within the band
  bool repair_population = true; ///< run population control on a violation
  PopulationOptions population;  ///< the enforced per-cell band
};

struct HealthReport {
  bool ok = true;
  Index nonfinite_values = 0;   ///< non-finite entries across u/p/T
  Index inverted_elements = 0;  ///< elements with min det J <= 0
  Index min_per_cell = 0;       ///< per-cell population extremes (post-repair)
  Index max_per_cell = 0;
  bool population_violation = false; ///< band violated after any repair
  bool repaired = false;             ///< population repair was invoked
  std::vector<std::string> issues;   ///< failure reason per failed check

  /// "; "-joined issues, or "ok".
  std::string summary() const;
};

/// Run every enabled check. Mutates `ctx` only via the population repair.
/// Updates health.* counters and the solver report's state section.
HealthReport check_health(PtatinContext& ctx, const HealthOptions& opts = {});

} // namespace ptatin
