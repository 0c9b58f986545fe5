#include "ptatin/stepper.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/log.hpp"
#include "ptatin/config.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace ptatin {

namespace {

bool all_finite(const Vector& v) {
  for (Index i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i])) return false;
  return true;
}

/// The between-steps quiescent model state under the SDC seal: everything
/// the solve trusts on reentry (mesh geometry, solution fields, material
/// point slabs). Enumerated fresh at every arm/verify so container
/// reallocation between steps cannot dangle.
std::vector<sdc::Region> state_regions(const PtatinContext& ctx) {
  std::vector<sdc::Region> r;
  const auto& coords = ctx.mesh().coords();
  r.push_back({"state.coords", coords.data(), coords.size() * sizeof(Real)});
  r.push_back({"state.velocity", ctx.velocity().data(),
               std::size_t(ctx.velocity().size()) * sizeof(Real)});
  r.push_back({"state.pressure", ctx.pressure().data(),
               std::size_t(ctx.pressure().size()) * sizeof(Real)});
  r.push_back({"state.temperature", ctx.temperature().data(),
               std::size_t(ctx.temperature().size()) * sizeof(Real)});
  ctx.points().append_seal_regions(r);
  return r;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

} // namespace

SafeguardedStepper::SafeguardedStepper(PtatinContext& ctx,
                                       const SafeguardOptions& opts)
    : ctx_(ctx), opts_(opts) {
  if (!opts_.checkpoint_dir.empty())
    rotation_ = std::make_unique<CheckpointRotation>(opts_.checkpoint_dir,
                                                     opts_.checkpoint_keep);
}

SafeguardedStepper::SafeguardedStepper(PtatinContext& ctx,
                                       const SolverConfig& config)
    : SafeguardedStepper(ctx, config.safeguard()) {}

void SafeguardedStepper::resume(const CheckpointMeta& meta) {
  step_index_ = static_cast<int>(meta.step);
  sim_time_ = meta.sim_time;
  dt_cap_ = meta.dt_cap > 0 ? meta.dt_cap
                            : std::numeric_limits<Real>::infinity();
}

void SafeguardedStepper::arm_seal() {
  state_seal_.arm(state_regions(ctx_));
  seal_epoch_ = ctx_.state_epoch();
}

std::string SafeguardedStepper::verify_seal_on_reentry() {
  if (!state_seal_.armed()) return {};
  auto& metrics = obs::MetricsRegistry::instance();

  // A sanctioned out-of-band mutation (checkpoint restore, test setup wrote
  // through a mutable accessor) makes the seal stale, not the state corrupt.
  if (ctx_.state_epoch() != seal_epoch_) {
    state_seal_.disarm();
    return {};
  }

  const auto bad = state_seal_.verify(state_regions(ctx_));
  if (bad.empty()) return {};

  metrics.counter("sdc.detections").inc();
  log_warn("sdc: state corruption detected at step ", step_index_,
           " boundary (", join_names(bad), ")");

  if (!last_good_.valid()) {
    metrics.counter("sdc.unrecovered").inc();
    return "sdc: state corrupted with no snapshot to heal from (" +
           join_names(bad) + ")";
  }
  // Heal: restore the snapshot the seal was armed over (bitwise-equal to the
  // sealed state, so the replayed trajectory matches a fault-free run), then
  // prove the restore actually took.
  last_good_.restore(ctx_);
  arm_seal();
  const auto still_bad = state_seal_.verify(state_regions(ctx_));
  if (!still_bad.empty()) {
    metrics.counter("sdc.unrecovered").inc();
    return "sdc: state corruption persisted through snapshot restore (" +
           join_names(still_bad) + ")";
  }
  metrics.counter("sdc.heals").inc();
  log_warn("sdc: step ", step_index_,
           " state healed from the last good snapshot");
  return {};
}

std::string SafeguardedStepper::diagnose(const StepReport& report) const {
  if (report.nonlinear.failure != NonlinearFailure::kNone) {
    std::string msg =
        std::string("nonlinear: ") + to_string(report.nonlinear.failure);
    if (!report.nonlinear.failure_detail.empty())
      msg += " (" + report.nonlinear.failure_detail + ")";
    return msg;
  }
  // The energy solve reports through its linear stats, not the nonlinear
  // failure taxonomy; only its sentinel trip needs the safeguard tier.
  if (report.energy.linear.reason == ConvergedReason::kDivergedSdc)
    return "sdc: energy solve " + report.energy.linear.reason_message();
  if (!all_finite(ctx_.velocity()) || !all_finite(ctx_.pressure()) ||
      !all_finite(ctx_.temperature()))
    return "non-finite values in solution fields";
  return {};
}

SafeguardedStepResult SafeguardedStepper::advance(Real dt) {
  auto& metrics = obs::MetricsRegistry::instance();
  SafeguardedStepResult res;
  ++step_index_;

  // Unrecoverable SDC exit: record the failure like an exhausted retry
  // sequence so telemetry shows why the run stopped.
  auto fail_now = [&](std::string failure) {
    res.failures.push_back(std::move(failure));
    metrics.counter("safeguard.step_failures").inc();
    metrics.counter("safeguard.unrecovered_steps").inc();
    state_seal_.disarm();
    if (auto& report = obs::SolverReport::global(); report.enabled()) {
      obs::SafeguardRecord rec;
      rec.step = step_index_;
      rec.recovered = false;
      rec.failures = res.failures;
      report.add_safeguard(std::move(rec));
    }
    return res;
  };

  // --- SDC boundary pass (docs/ROBUSTNESS.md) -------------------------------
  // Verify the state sealed at the end of the previous step before trusting
  // it again; a mismatch is healed in place from the last good snapshot.
  if (opts_.seal_state) {
    std::string sdc_failure = verify_seal_on_reentry();
    if (!sdc_failure.empty()) return fail_now(std::move(sdc_failure));
  }

  dt = clamp_dt(dt);

  const bool checkpoint_due = rotation_ != nullptr &&
                              opts_.checkpoint_every > 0 &&
                              step_index_ % opts_.checkpoint_every == 0;
  const bool health_due =
      checkpoint_due ||
      (opts_.health_every > 0 && step_index_ % opts_.health_every == 0);

  // Snapshot for rollback. When the boundary pass just attested the live
  // state still matches last_good_, reuse that snapshot instead of
  // re-serializing the whole model state; otherwise capture fresh. A failed
  // capture (fault injection, OOM) degrades to an unguarded step rather
  // than refusing to advance.
  MemoryCheckpoint fresh_snapshot;
  MemoryCheckpoint* snapshot = &fresh_snapshot;
  if (opts_.seal_state && state_seal_.armed() && last_good_.valid()) {
    snapshot = &last_good_;
  } else {
    try {
      fresh_snapshot.capture(ctx_);
    } catch (const Error& e) {
      metrics.counter("safeguard.snapshot_failures").inc();
      log_warn("safeguard: state snapshot failed (", e.what(),
               ") — stepping without rollback protection");
    }
  }

  std::vector<Real> attempted_dts;
  bool dt_was_cut = false;
  for (int attempt = 0;; ++attempt) {
    res.dt_used = dt;
    attempted_dts.push_back(dt);
    std::string failure;
    try {
      res.report = ctx_.step(dt);
      failure = diagnose(res.report);
      // Watchdog: never integrate past — or durably checkpoint — a state
      // that fails the health pass; a trip is handled exactly like a solver
      // failure (rollback + smaller dt).
      if (failure.empty() && health_due) {
        const HealthReport hr = check_health(ctx_, opts_.health);
        if (!hr.ok) failure = "health: " + hr.summary();
      }
    } catch (const Error& e) {
      failure = std::string("exception: ") + e.what();
    }

    if (failure.empty()) {
      res.ok = true;
      res.retries = attempt;
      break;
    }

    metrics.counter("safeguard.step_failures").inc();
    const bool sdc_failure = sdc::is_sdc_failure(failure);
    if (sdc_failure) metrics.counter("sdc.detections").inc();
    res.failures.push_back(failure);
    log_warn("safeguard: step ", step_index_, " attempt ", attempt + 1,
             " failed (", failure, ") at dt = ", dt);

    // SDC failures are infrastructure, not numerics: the retry keeps the
    // SAME dt (the restored snapshot replays the identical step, preserving
    // bitwise reproducibility) instead of cutting the step size.
    const Real dt_next = sdc_failure ? dt : dt * opts_.dt_cut_factor;
    if (!snapshot->valid() || attempt >= opts_.max_retries ||
        !(dt_next > 0)) {
      res.retries = attempt;
      break; // unrecoverable: report failure to the caller
    }

    snapshot->restore(ctx_);
    metrics.counter("safeguard.rollbacks").inc();
    metrics.counter("safeguard.retries").inc();
    if (!sdc_failure) {
      dt = dt_next;
      dt_was_cut = true;
      metrics.counter("safeguard.dt_cuts").inc();
    }
  }

  // Step-size recovery: a retried step leaves a cap at the dt that worked;
  // clean steps relax it geometrically until it disappears. (SDC-only
  // retries never cut dt, so they leave no cap behind.)
  if (res.ok && dt_was_cut) {
    dt_cap_ = res.dt_used;
  } else if (res.ok && std::isfinite(dt_cap_)) {
    dt_cap_ *= opts_.dt_grow_factor;
    if (dt_cap_ >= res.dt_used * opts_.dt_grow_factor)
      dt_cap_ = std::numeric_limits<Real>::infinity();
  }

  // A Krylov-sentinel trip (or any other sdc-classified failure) that a
  // same-dt replay recovered from is a completed heal; one that exhausted
  // the retry budget is unrecovered.
  if (std::any_of(res.failures.begin(), res.failures.end(),
                  [](const std::string& f) { return sdc::is_sdc_failure(f); })) {
    metrics.counter(res.ok ? "sdc.heals" : "sdc.unrecovered").inc();
  }

  if (res.ok) {
    sim_time_ += res.dt_used;
    if (checkpoint_due) {
      CheckpointMeta meta;
      meta.step = step_index_;
      meta.sim_time = sim_time_;
      meta.dt_cap = std::isfinite(dt_cap_) ? dt_cap_ : 0.0;
      try {
        res.checkpoint_path = rotation_->save(ctx_, meta);
      } catch (const Error& e) {
        // A failed save must not kill a healthy run: the previous rotation
        // entries are intact, so only durability of this instant is lost.
        metrics.counter("checkpoint.save_failures").inc();
        log_warn("checkpoint: save failed at step ", step_index_, " (",
                 e.what(), ") — continuing without this checkpoint");
      }
    }

    // Seal the now-quiescent model state until the next advance(). The
    // snapshot is captured first so the seal attests exactly the state the
    // heal would restore.
    if (opts_.seal_state) {
      try {
        last_good_.capture(ctx_);
        arm_seal();
      } catch (const Error& e) {
        state_seal_.disarm();
        metrics.counter("safeguard.snapshot_failures").inc();
        log_warn("sdc: post-step snapshot failed (", e.what(),
                 ") — state not sealed this step");
      }
      // Deterministic SDC injection AFTER sealing: a low-mantissa flip is
      // finite and physically plausible, so only the boundary verify of the
      // NEXT advance() (not this step's health pass) can catch it.
      if (state_seal_.armed()) {
        if (fault::fires("sdc.field_bitflip") && ctx_.velocity().size() > 0)
          const_cast<Vector&>(ctx_.velocity())[0] =
              sdc::flip_low_mantissa_bit(ctx_.velocity()[0]);
        // Const access + const_cast: going through the non-const points()
        // accessor would bump the state epoch and sanction the corruption.
        auto& pts = const_cast<MaterialPoints&>(
            static_cast<const PtatinContext&>(ctx_).points());
        if (fault::fires("sdc.particle_bitflip") && pts.size() > 0)
          pts.plastic_strain(0) =
              sdc::flip_low_mantissa_bit(pts.plastic_strain(0));
      }
    }
  } else {
    // An unrecoverable step leaves the state at the failed attempt; the
    // seal no longer describes it.
    state_seal_.disarm();
  }

  if (auto& report = obs::SolverReport::global(); report.enabled()) {
    if (!res.ok || res.retries > 0) {
      obs::SafeguardRecord rec;
      rec.step = step_index_;
      rec.recovered = res.ok;
      rec.retries = res.retries;
      // The actual attempted dt sequence (SDC retries repeat a dt, so it
      // cannot be reconstructed from the cut factor alone).
      rec.dt_history = attempted_dts;
      rec.failures = res.failures;
      report.add_safeguard(std::move(rec));
    }
    if (res.ok) {
      obs::PopulationRecord pr;
      pr.step = step_index_;
      pr.injected = res.report.population.injected;
      pr.removed = res.report.population.removed;
      pr.deficient = res.report.population.deficient_elements;
      pr.min_per_cell = res.report.population.min_per_cell;
      pr.max_per_cell = res.report.population.max_per_cell;
      report.add_population(pr);
    }
  }
  if (!res.ok) metrics.counter("safeguard.unrecovered_steps").inc();
  return res;
}

} // namespace ptatin
