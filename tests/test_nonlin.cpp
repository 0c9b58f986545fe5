// Tests for the nonlinear Stokes solver: Picard/Newton convergence, line
// search, Eisenstat-Walker behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nonlin/newton.hpp"
#include "obs/metrics.hpp"
#include "rheology/flow_law.hpp"
#include "stokes/fields.hpp"

namespace ptatin {
namespace {

/// Shear-thinning power-law coefficient updater (no material points: the
/// law is evaluated directly at quadrature points, which is sufficient to
/// exercise the nonlinear machinery).
CoefficientUpdater power_law_updater(const StructuredMesh& mesh, Real n_exp) {
  ArrheniusParams ap;
  ap.eta0 = 1.0;
  ap.n = n_exp;
  ap.eps0 = 1.0;
  ap.eta_min = 1e-4;
  ap.eta_max = 1e4;
  auto law = std::make_shared<ArrheniusLaw>(ap);
  return [&mesh, law](const Vector& u, const Vector&, bool newton,
                      QuadCoefficients& coeff) {
    std::vector<StrainRateSample> s;
    evaluate_strain_rates(mesh, u, s);
    if (newton && !coeff.has_newton()) coeff.allocate_newton();
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        const auto& sq = s[e * kQuadPerEl + q];
        RheologyState st;
        st.j2 = sq.j2;
        const ViscosityEval ve = law->viscosity(st);
        coeff.eta(e, q) = ve.eta;
        coeff.rho(e, q) = 1.0;
        if (newton) {
          coeff.deta(e, q) = ve.deta_dj2;
          for (int t = 0; t < kSymSize; ++t) coeff.d0(e, q)[t] = sq.d[t];
        }
      }
  };
}

NonlinearOptions small_options() {
  NonlinearOptions o;
  o.linear.gmg.levels = 2;
  o.linear.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  o.linear.coarse_bjacobi_blocks = 1;
  o.rtol = 1e-6;
  return o;
}

/// Driven-shear problem: top lid moves in +x, everything else no-slip.
DirichletBc lid_bc(const StructuredMesh& mesh, Real lid_speed) {
  DirichletBc bc(num_velocity_dofs(mesh));
  for (auto f : {MeshFace::kXMin, MeshFace::kXMax, MeshFace::kYMin,
                 MeshFace::kYMax, MeshFace::kZMin})
    constrain_no_slip(mesh, f, bc);
  constrain_face_component(mesh, MeshFace::kZMax, 0, lid_speed, bc);
  constrain_face_component(mesh, MeshFace::kZMax, 1, 0.0, bc);
  constrain_face_component(mesh, MeshFace::kZMax, 2, 0.0, bc);
  return bc;
}

BcFactory lid_bc_factory() {
  return [](const StructuredMesh& m) { return lid_bc(m, 0.0); };
}

TEST(Nonlinear, NewtonianProblemConvergesInOneIteration) {
  // n = 1: the problem is linear; a single Picard step must converge.
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = small_options();
  opts.linear.bc_factory = lid_bc_factory();
  // Fixed tight linear tolerance: with Eisenstat-Walker the first solve is
  // deliberately loose and takes extra outer iterations even for a linear
  // problem.
  opts.eisenstat_walker = false;
  opts.linear.krylov.rtol = 1e-9;
  NonlinearStokesSolver solver(mesh, bc, opts);

  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  NonlinearResult res = solver.solve(power_law_updater(mesh, 1.0), f, u, p);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2);
}

TEST(Nonlinear, PowerLawConverges) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = small_options();
  opts.linear.bc_factory = lid_bc_factory();
  NonlinearStokesSolver solver(mesh, bc, opts);

  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  NonlinearResult res = solver.solve(power_law_updater(mesh, 3.0), f, u, p);
  EXPECT_TRUE(res.converged);
  // Residual history is monotone enough to show real convergence.
  ASSERT_GE(res.residual_history.size(), 2u);
  EXPECT_LT(res.residual_history.back(),
            1e-5 * res.residual_history.front());
}

TEST(Nonlinear, NewtonFasterThanPicardTerminally) {
  // The paper's motivation (§III-A): Picard stagnates, Newton accelerates
  // the terminal phase.
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  Vector f(num_velocity_dofs(mesh), 0.0);

  auto run = [&](bool newton) {
    NonlinearOptions opts = small_options();
    opts.linear.bc_factory = lid_bc_factory();
    opts.use_newton = newton;
    opts.rtol = 1e-8;
    opts.max_it = 40;
    NonlinearStokesSolver solver(mesh, bc, opts);
    Vector u(num_velocity_dofs(mesh), 0.0), p;
    bc.set_values(u);
    return solver.solve(power_law_updater(mesh, 4.0), f, u, p);
  };
  NonlinearResult newton = run(true);
  NonlinearResult picard = run(false);
  EXPECT_TRUE(newton.converged);
  EXPECT_LE(newton.iterations, picard.iterations);
}

TEST(Nonlinear, EisenstatWalkerLoosensEarlySolves) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  Vector f(num_velocity_dofs(mesh), 0.0);

  auto total_krylov = [&](bool ew) {
    NonlinearOptions opts = small_options();
    opts.linear.bc_factory = lid_bc_factory();
    opts.eisenstat_walker = ew;
    if (!ew) opts.linear.krylov.rtol = 1e-8; // fixed tight tolerance
    NonlinearOptions o2 = opts;
    NonlinearStokesSolver solver(mesh, bc, o2);
    Vector u(num_velocity_dofs(mesh), 0.0), p;
    bc.set_values(u);
    NonlinearResult r = solver.solve(power_law_updater(mesh, 3.0), f, u, p);
    EXPECT_TRUE(r.converged);
    return r.total_krylov_iterations;
  };
  // Adaptive forcing must not cost more Krylov iterations than fixed-tight.
  EXPECT_LE(total_krylov(true), total_krylov(false));
}

TEST(Nonlinear, StepLengthsRecordedAndPositive) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = small_options();
  opts.linear.bc_factory = lid_bc_factory();
  NonlinearStokesSolver solver(mesh, bc, opts);
  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  NonlinearResult res = solver.solve(power_law_updater(mesh, 2.0), f, u, p);
  ASSERT_EQ(res.step_lengths.size(), static_cast<std::size_t>(res.iterations));
  for (Real l : res.step_lengths) {
    EXPECT_GT(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
}

// Each state's residual is evaluated once: the first residual and every
// line-search trial. A Newton step builds its right-hand side from the
// residual of the state it starts at, which the last of those evaluated.
TEST(Nonlinear, OneResidualEvaluationPerState) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = small_options();
  opts.linear.bc_factory = lid_bc_factory();
  NonlinearStokesSolver solver(mesh, bc, opts);
  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  const obs::Counter& evaluations =
      obs::MetricsRegistry::instance().counter("nonlin.residual_evaluations");
  const long long before = evaluations.value();
  NonlinearResult res = solver.solve(power_law_updater(mesh, 3.0), f, u, p);
  ASSERT_TRUE(res.converged);
  ASSERT_GE(res.step_lengths.size(), 2u);
  // A step of length 2^-k took k + 1 trials, unless the search ran out.
  long long trials = 0;
  for (Real lambda : res.step_lengths)
    trials += std::min<long long>(std::llround(std::log2(1 / lambda)) + 1,
                                  opts.line_search_max + 1);
  EXPECT_EQ(evaluations.value() - before, 1 + trials);
}

TEST(Nonlinear, ResidualOfExactSolutionIsZero) {
  // For the linear (n=1) problem, the residual at the converged state
  // matches the final history entry.
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = small_options();
  opts.linear.bc_factory = lid_bc_factory();
  opts.rtol = 1e-10;
  NonlinearStokesSolver solver(mesh, bc, opts);
  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  NonlinearResult res = solver.solve(power_law_updater(mesh, 1.0), f, u, p);
  ASSERT_TRUE(res.converged);

  QuadCoefficients coeff(mesh.num_elements());
  power_law_updater(mesh, 1.0)(u, p, false, coeff);
  Vector fu, fp;
  solver.residual(coeff, f, u, p, fu, fp);
  const Real norm = std::sqrt(fu.dot(fu) + fp.dot(fp));
  EXPECT_NEAR(norm, res.residual_history.back(), 1e-10);
}

} // namespace
} // namespace ptatin
