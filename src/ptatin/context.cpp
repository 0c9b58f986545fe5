#include "ptatin/context.hpp"

#include "common/timing.hpp"
#include "fem/subdomain_engine.hpp"
#include "obs/perf.hpp"

namespace ptatin {

PtatinContext::PtatinContext(ModelSetup setup, const PtatinOptions& opts)
    : setup_(std::move(setup)), opts_(opts) {
  PT_ASSERT(setup_.lithology_of != nullptr);

  // Subdomain engine first: the solvers below borrow a pointer to it, and the
  // coefficient pipeline routes its projection scatter through it. A 1x1x1
  // shape keeps the global execution paths (engine_ stays null).
  if (opts_.decomp[0] * opts_.decomp[1] * opts_.decomp[2] > 1) {
    engine_ = std::make_unique<SubdomainEngine>(
        setup_.mesh, opts_.decomp[0], opts_.decomp[1], opts_.decomp[2]);
    opts_.nonlinear.linear.kernel.engine = engine_.get();
  }

  // Material points.
  layout_points(setup_.mesh, opts.points_per_dim, setup_.lithology_of,
                points_, /*jitter=*/0.3);
  if (setup_.initial_damage) {
    for (Index i = 0; i < points_.size(); ++i)
      points_.plastic_strain(i) = setup_.initial_damage(points_.position(i));
  }

  // Fields.
  u_.resize(num_velocity_dofs(setup_.mesh), 0.0);
  setup_.bc.set_values(u_);
  p_.resize(num_pressure_dofs(setup_.mesh), 0.0);
  coeff_ = QuadCoefficients(setup_.mesh.num_elements());

  if (setup_.use_energy) {
    T_.resize(setup_.mesh.num_vertices(), 0.0);
    if (setup_.initial_temperature) {
      for (Index vk = 0; vk < setup_.mesh.vz(); ++vk)
        for (Index vj = 0; vj < setup_.mesh.vy(); ++vj)
          for (Index vi = 0; vi < setup_.mesh.vx(); ++vi) {
            const Index v = setup_.mesh.vertex_index(vi, vj, vk);
            const Vec3 x = setup_.mesh.node_coord(
                setup_.mesh.vertex_to_node(vi, vj, vk));
            T_[v] = setup_.initial_temperature(x);
          }
    }
    temperature_bc_ = VertexBc(setup_.mesh.num_vertices());
    if (setup_.temperature_bc) setup_.temperature_bc(setup_.mesh, temperature_bc_);
    energy_ = std::make_unique<EnergySolver>(setup_.mesh, setup_.kappa);
    energy_->set_sentinel(opts_.nonlinear.linear.krylov.sentinel_every,
                          opts_.nonlinear.linear.krylov.sentinel_tol);
  }

  // Nonlinear solver: coarse-level BCs come from the model's factory.
  NonlinearOptions nl = opts_.nonlinear;
  if (setup_.bc_factory) nl.linear.bc_factory = setup_.bc_factory;
  nonlinear_ = std::make_unique<NonlinearStokesSolver>(setup_.mesh, setup_.bc,
                                                       nl);
}

PtatinContext::~PtatinContext() = default;

CoefficientUpdater PtatinContext::coefficient_updater() {
  return updater(nullptr);
}

CoefficientUpdater PtatinContext::updater(PointEvaluation* evaluation) {
  return [this, evaluation](const Vector& u, const Vector& p,
                            bool newton_terms, QuadCoefficients& coeff) {
    PerfScope span("CoefficientUpdate");
    PointEvaluation fresh;
    (evaluation != nullptr ? *evaluation : fresh)
        .update(setup_.mesh, setup_.materials, points_, u, p,
                setup_.use_energy ? &T_ : nullptr, newton_terms,
                engine_.get(), coeff);
  };
}

StepReport PtatinContext::step(Real dt) {
  PerfScope step_span("TimeStep");
  StepReport report;
  Timer timer;

  {
    // Stages 1 and 2 share one point evaluation: each (u, p) the solve
    // visits is evaluated once, and the solve returns with the evaluation of
    // its solution held. Nothing they read besides (u, p) changes in between;
    // the evaluation goes out of scope before the stages that move the
    // points, T and the mesh (and on an exception, before any retry).
    PointEvaluation evaluation;

    // 1. Nonlinear Stokes solve (coefficients re-evaluated from points every
    //    nonlinear iteration). Refresh rho at quadrature points first: the
    //    body force is built from the projected density. The boundary values
    //    go in first, so that the pre-solve evaluates the bits of u the
    //    first residual sees (set_values can flip the sign of a zero).
    {
      PerfScope span("Stage(StokesSolve)");
      setup_.bc.set_values(u_);
      const CoefficientUpdater update = updater(&evaluation);
      update(u_, p_, false, coeff_);
      const Vector f = assemble_body_force(setup_.mesh, coeff_,
                                           setup_.gravity, engine_.get());
      report.nonlinear = nonlinear_->solve(update, f, u_, p_);
    }

    // 2. Plastic strain accumulation on the points the solution yields.
    {
      PerfScope span("Stage(PlasticStrain)");
      report.yielded_points =
          evaluation.accumulate_plastic_strain(u_, p_, dt, points_);
    }
  }

  // 3. Energy equation.
  if (setup_.use_energy) {
    PerfScope span("Stage(Energy)");
    report.energy = energy_->step(u_, dt, temperature_bc_, T_);
  }

  // 4. Material point advection + population control.
  {
    PerfScope span("Stage(Advection)");
    report.advection = advect_points_rk2(setup_.mesh, u_, dt, points_);
    // Drop points that left the domain (outflow deletion, §II-D).
    for (Index i = 0; i < points_.size();) {
      if (points_.element(i) < 0) {
        points_.remove(i);
      } else {
        ++i;
      }
    }
    report.population =
        control_population(setup_.mesh, opts_.population, points_);
  }

  // 5. ALE mesh update; all point locations change with the mesh.
  if (opts_.update_mesh) {
    PerfScope span("Stage(ALE)");
    report.ale = update_mesh_free_surface(setup_.mesh, u_, dt, opts_.ale);
    locate_all(setup_.mesh, points_);
    for (Index i = 0; i < points_.size();) {
      if (points_.element(i) < 0) {
        points_.remove(i);
      } else {
        ++i;
      }
    }
  }

  report.seconds = timer.seconds();
  return report;
}

Real PtatinContext::suggest_dt(Real cfl) const {
  return compute_cfl_dt(setup_.mesh, u_, cfl);
}

} // namespace ptatin
