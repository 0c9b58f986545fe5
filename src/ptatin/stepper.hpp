// Timestep safeguard tier: checkpoint rollback + adaptive-dt retry, plus the
// run-health watchdog and durable checkpoint rotation.
//
// Long runs (1500-2000 steps, §V-A) cannot afford to die on one bad step.
// SafeguardedStepper wraps PtatinContext::step: it snapshots the full model
// state in memory before each step, detects failure afterwards (nonlinear
// failure report, thrown Error, non-finite fields, or a failed health
// check), and on failure rolls the state back and retries with
// dt * dt_cut_factor, up to max_retries times. After a successful recovery
// the step size grows back gradually (dt_grow_factor per clean step) instead
// of jumping straight to the CFL suggestion that just failed. Full taxonomy
// and knobs: docs/ROBUSTNESS.md.
//
// The health watchdog (src/ptatin/health.hpp) runs inside the attempt loop
// every health_every steps and on every step that is about to be durably
// checkpointed, so a poisoned state is rolled back and retried instead of
// being published to disk. When checkpoint_dir is set, every
// checkpoint_every-th successful (and healthy) step is saved through a
// CheckpointRotation (atomic publication, CRC-verified sections, last
// checkpoint_keep files kept); resume() restores the step counter, simulated
// time, and dt recovery cap from a loaded CheckpointMeta.
//
// Plain iteration-budget exhaustion is NOT treated as failure — loosely
// converged steps are business as usual for inexact time stepping; only
// fatal diagnoses (NaN, divergence, stagnation, linear breakdown, health
// trips) trigger a rollback.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/sealed.hpp"
#include "ptatin/checkpoint.hpp"
#include "ptatin/context.hpp"
#include "ptatin/health.hpp"

namespace ptatin {

class SolverConfig;

struct SafeguardOptions {
  int max_retries = 3;       ///< rollback/retry attempts per step
  Real dt_cut_factor = 0.5;  ///< dt multiplier per retry
  Real dt_grow_factor = 1.5; ///< cap growth per clean step after a cut

  // Run-health watchdog (docs/ROBUSTNESS.md).
  int health_every = 0;      ///< full health check every N steps (0 = only
                             ///< before checkpoint saves)
  HealthOptions health;

  // Durable checkpoint rotation ("" = no on-disk checkpoints).
  std::string checkpoint_dir;
  int checkpoint_every = 0;  ///< save cadence in steps (0 = off)
  int checkpoint_keep = 3;   ///< checkpoints retained in the rotation

  // Silent-data-corruption defense (docs/ROBUSTNESS.md). seal_state CRC-seals
  // the model state (mesh coords, u/p/T, material point slabs) at the end of
  // each successful step and verifies it on reentry; a mismatch is healed by
  // restoring the last good snapshot and replaying at the SAME dt. A
  // sanctioned out-of-band mutation (checkpoint restore, test setup) is
  // recognized through PtatinContext::state_epoch() and disarms the seal
  // instead of tripping it. The setup-immutable operators are sealed by
  // their hierarchies (-seal_operators) and verified after each Stokes
  // solve, which fails with diverged_sdc on a mismatch: the same-dt replay
  // rebuilds them, and corruption that recurs past every replay is
  // unrecoverable (exit code 6).
  bool seal_state = true;
};

/// Outcome of one safeguarded step (possibly several attempts).
struct SafeguardedStepResult {
  bool ok = false;    ///< some attempt completed cleanly
  Real dt_used = 0.0; ///< dt of the final attempt
  int retries = 0;    ///< rollbacks taken before success / giving up
  StepReport report;  ///< per-stage stats of the final attempt
  std::vector<std::string> failures; ///< failure reason per failed attempt
  std::string checkpoint_path; ///< durable checkpoint published this step
};

class SafeguardedStepper {
public:
  explicit SafeguardedStepper(PtatinContext& ctx,
                              const SafeguardOptions& opts = {});

  /// Configure from the unified solver configuration (ptatin/config.hpp):
  /// equivalent to passing config.safeguard().
  SafeguardedStepper(PtatinContext& ctx, const SolverConfig& config);

  /// Advance by (at most) dt, retrying with smaller steps on failure. The
  /// requested dt is first clamped by the recovery cap left behind by
  /// earlier failures.
  SafeguardedStepResult advance(Real dt);

  /// Resume the step counter, simulated time, and dt recovery cap from a
  /// restored checkpoint (CheckpointMeta from load_checkpoint or
  /// CheckpointRotation::load_latest).
  void resume(const CheckpointMeta& meta);

  /// The requested dt after applying the recovery cap (what advance() will
  /// actually attempt first).
  Real clamp_dt(Real dt) const { return dt < dt_cap_ ? dt : dt_cap_; }

  /// Current recovery cap (infinity when no failure is being recovered
  /// from).
  Real dt_cap() const { return dt_cap_; }

  int steps_taken() const { return step_index_; }
  Real sim_time() const { return sim_time_; }

  /// The durable rotation, when checkpoint_dir was configured.
  CheckpointRotation* rotation() { return rotation_.get(); }

private:
  /// Empty string = clean step; otherwise the failure diagnosis.
  std::string diagnose(const StepReport& report) const;
  /// Verify the state seal at the step boundary; restores the last good
  /// snapshot on a mismatch. Returns an "sdc:" failure string when the
  /// corruption could not be healed ("" = intact, healed, or disarmed).
  std::string verify_seal_on_reentry();
  /// Re-arm the state seal over the current (post-step) model state.
  void arm_seal();

  PtatinContext& ctx_;
  SafeguardOptions opts_;
  std::unique_ptr<CheckpointRotation> rotation_;
  Real dt_cap_ = std::numeric_limits<Real>::infinity();
  Real sim_time_ = 0.0;
  int step_index_ = 0; ///< 1-based, counts advance() calls

  // SDC defense state: the seal over the between-steps model state, the
  // context epoch it was armed at, and the snapshot it heals from (also
  // reused as the rollback snapshot while the seal attests it still matches
  // the live state).
  sdc::Seal state_seal_;
  long long seal_epoch_ = 0;
  MemoryCheckpoint last_good_;
};

} // namespace ptatin
