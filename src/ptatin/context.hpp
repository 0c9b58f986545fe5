// The pTatin3D time-stepping driver.
//
// One time step (§V-A lists these stages): solve the nonlinear Stokes
// problem, update material point history variables (plastic strain), solve
// the energy equation, advect material points and apply population control,
// and update the ALE mesh.
#pragma once

#include <array>
#include <memory>

#include "ale/mesh_update.hpp"
#include "energy/supg.hpp"
#include "mpm/advection.hpp"
#include "mpm/points.hpp"
#include "mpm/population.hpp"
#include "nonlin/newton.hpp"
#include "ptatin/coefficients.hpp"
#include "ptatin/model.hpp"

namespace ptatin {

class SubdomainEngine;

struct PtatinOptions {
  int points_per_dim = 3;        ///< initial material points per direction
  NonlinearOptions nonlinear;
  PopulationOptions population;
  AleOptions ale;
  bool update_mesh = true;       ///< ALE free-surface update
  /// Subdomain decomposition shape {px, py, pz} (docs/PARALLELISM.md).
  /// {1,1,1} keeps the global (non-decomposed) execution paths.
  std::array<Index, 3> decomp = {1, 1, 1};
};

struct StepReport {
  NonlinearResult nonlinear;
  AdvectionStats advection;
  PopulationStats population;
  AleStats ale;
  EnergySolveStats energy;
  Index yielded_points = 0;
  double seconds = 0.0;
};

class PtatinContext {
public:
  PtatinContext(ModelSetup setup, const PtatinOptions& opts);
  ~PtatinContext(); // out-of-line: engine_ is incomplete here

  /// Advance the model by dt. Returns per-stage statistics.
  StepReport step(Real dt);

  /// CFL-limited time step from the last velocity solution.
  Real suggest_dt(Real cfl = 0.5) const;

  // --- state access ----------------------------------------------------------
  const StructuredMesh& mesh() const { return setup_.mesh; }
  const MaterialPoints& points() const { return points_; }
  MaterialPoints& points() {
    ++state_epoch_;
    return points_;
  }
  const Vector& velocity() const { return u_; }
  const Vector& pressure() const { return p_; }
  const Vector& temperature() const { return T_; }
  const ModelSetup& setup() const { return setup_; }
  const QuadCoefficients& coefficients() const { return coeff_; }
  /// The subdomain engine driving decomposed execution (null when the
  /// configured shape is 1x1x1 and the global paths are in use).
  const SubdomainEngine* subdomain_engine() const { return engine_.get(); }

  /// A coefficient updater closure that evaluates the material points in
  /// full on every call. (step() hands its nonlinear solve one that reuses
  /// the last evaluation at a bitwise-equal (u, p).)
  CoefficientUpdater coefficient_updater();

  // --- mutable state access (checkpoint restore, custom initial states) ----
  // Each accessor bumps the state epoch: the SDC seal the safeguarded
  // stepper holds over the model state records the epoch when armed, so a
  // sanctioned out-of-band mutation (checkpoint restore, test setup)
  // invalidates the seal instead of tripping it (docs/ROBUSTNESS.md).
  StructuredMesh& mutable_mesh() {
    ++state_epoch_;
    return setup_.mesh;
  }
  Vector& mutable_velocity() {
    ++state_epoch_;
    return u_;
  }
  Vector& mutable_pressure() {
    ++state_epoch_;
    return p_;
  }
  Vector& mutable_temperature() {
    ++state_epoch_;
    return T_;
  }

  /// Monotone counter of sanctioned out-of-band state mutations. Bumped by
  /// every mutable accessor above; read by the stepper's SDC seal.
  long long state_epoch() const { return state_epoch_; }

private:
  /// The updater closure: updates through `evaluation`, or through a fresh
  /// PointEvaluation on each call when it is null.
  CoefficientUpdater updater(PointEvaluation* evaluation);

  ModelSetup setup_;
  PtatinOptions opts_;
  std::unique_ptr<SubdomainEngine> engine_; ///< before solvers: they borrow it
  MaterialPoints points_;
  Vector u_, p_, T_;
  QuadCoefficients coeff_;
  std::unique_ptr<NonlinearStokesSolver> nonlinear_;
  std::unique_ptr<EnergySolver> energy_;
  VertexBc temperature_bc_;
  long long state_epoch_ = 0;
};

} // namespace ptatin
