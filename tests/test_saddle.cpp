// Integration tests for the coupled Stokes solver: operator structure,
// manufactured solutions, sinker solves, residual monitoring, SCR.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "saddle/stokes_solver.hpp"
#include "stokes/fields.hpp"

namespace ptatin {
namespace {

QuadCoefficients sinker_coeff(const StructuredMesh& mesh, Real contrast) {
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real dx = g.xq[q][0] - 0.5, dy = g.xq[q][1] - 0.5,
                 dz = g.xq[q][2] - 0.5;
      const bool inside = dx * dx + dy * dy + dz * dz < 0.3 * 0.3;
      c.eta(e, q) = inside ? 1.0 : 1.0 / contrast;
      c.rho(e, q) = inside ? 1.2 : 1.0;
    }
  }
  return c;
}

StokesSolverOptions small_gmg_options(int levels = 2) {
  StokesSolverOptions o;
  o.gmg.levels = levels;
  o.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  o.coarse_bjacobi_blocks = 1;
  return o;
}

// --- coupled operator ---------------------------------------------------------

TEST(StokesOperator, SymmetricSaddleStructure) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 10.0);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  TensorViscousOperator a(mesh, coeff, &bc);
  StokesOperator op(mesh, a, bc);

  Rng rng(1);
  Vector x(op.rows()), y(op.rows());
  for (Index i = 0; i < op.rows(); ++i) {
    x[i] = rng.uniform(-1, 1);
    y[i] = rng.uniform(-1, 1);
  }
  // Masked saddle operator is symmetric: [A B; B^T 0] with matching masks.
  Vector ax, ay;
  op.apply(x, ax);
  op.apply(y, ay);
  EXPECT_NEAR(y.dot(ax), x.dot(ay), 1e-9 * std::abs(y.dot(ax)) + 1e-10);
}

TEST(StokesOperator, PressureBlockIsZero) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 10.0);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  TensorViscousOperator a(mesh, coeff, &bc);
  StokesOperator op(mesh, a, bc);

  // Pure-pressure input: x = [0; p]. The pressure output must vanish.
  Vector x(op.rows(), 0.0);
  Rng rng(2);
  for (Index i = op.num_velocity(); i < op.rows(); ++i)
    x[i] = rng.uniform(-1, 1);
  Vector y;
  op.apply(x, y);
  Real un, pn;
  op.split_norms(y, un, pn);
  EXPECT_GT(un, 0.0); // gradient couples into momentum
  EXPECT_DOUBLE_EQ(pn, 0.0);
}

// --- manufactured solution -----------------------------------------------------

TEST(StokesSolve, ExactPolynomialSolution) {
  // u = (yz, xz, xy) (divergence-free, Delta u = 0, D(u) != 0) and
  // p = x + 2y - 3z with eta = 1 solve Stokes flow with constant body force
  // f = -grad p = -(1, 2, -3). Q2 reproduces u exactly and P1disc reproduces
  // p exactly, so the discrete solution is exact up to solver tolerance.
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) coeff.rho(e, q) = 1.0;

  auto exact_u = [](const Vec3& x) {
    return Vec3{x[1] * x[2], x[0] * x[2], x[0] * x[1]};
  };

  // Dirichlet everywhere from the exact velocity.
  DirichletBc bc(num_velocity_dofs(mesh));
  const Index nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
  for (Index k = 0; k < nz; ++k)
    for (Index j = 0; j < ny; ++j)
      for (Index i = 0; i < nx; ++i) {
        if (i > 0 && i < nx - 1 && j > 0 && j < ny - 1 && k > 0 && k < nz - 1)
          continue;
        const Index n = mesh.node_index(i, j, k);
        const Vec3 v = exact_u(mesh.node_coord(n));
        for (int c = 0; c < 3; ++c) bc.constrain(velocity_dof(n, c), v[c]);
      }

  StokesSolverOptions opts = small_gmg_options(2);
  opts.krylov.rtol = 1e-10;
  opts.krylov.max_it = 400;
  opts.bc_factory = [](const StructuredMesh& m) {
    DirichletBc cbc(num_velocity_dofs(m));
    for (auto f : {MeshFace::kXMin, MeshFace::kXMax, MeshFace::kYMin,
                   MeshFace::kYMax, MeshFace::kZMin, MeshFace::kZMax})
      constrain_no_slip(m, f, cbc);
    return cbc;
  };
  StokesSolver solver(mesh, coeff, bc, opts);

  // Body force f = rho g with rho=1, g = grad p = (1,2,-3).
  Vector f = assemble_body_force(mesh, coeff, {1.0, 2.0, -3.0});
  StokesSolveResult res = solver.solve(f);
  ASSERT_TRUE(res.stats.converged);

  // Velocity error at nodes.
  Real max_err = 0.0;
  for (Index n = 0; n < mesh.num_nodes(); ++n) {
    const Vec3 v = exact_u(mesh.node_coord(n));
    for (int c = 0; c < 3; ++c)
      max_err = std::max(max_err, std::abs(res.u[3 * n + c] - v[c]));
  }
  EXPECT_LT(max_err, 1e-7);

  // Pressure error up to a constant (enclosed flow: p defined mod constants).
  std::vector<Real> pq;
  evaluate_pressure_at_quadrature(mesh, res.p, pq);
  Real mean_diff = 0.0;
  Index count = 0;
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q, ++count) {
      const Real pexact = g.xq[q][0] + 2 * g.xq[q][1] - 3 * g.xq[q][2];
      mean_diff += pq[e * kQuadPerEl + q] - pexact;
    }
  }
  mean_diff /= Real(count);
  Real max_perr = 0.0;
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real pexact = g.xq[q][0] + 2 * g.xq[q][1] - 3 * g.xq[q][2];
      max_perr = std::max(
          max_perr, std::abs(pq[e * kQuadPerEl + q] - mean_diff - pexact));
    }
  }
  EXPECT_LT(max_perr, 1e-6);
}

// --- sinker solves -------------------------------------------------------------

TEST(StokesSolve, SinkerConvergesAtModestContrast) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e3);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions opts = small_gmg_options(3);
  StokesSolver solver(mesh, coeff, bc, opts);

  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  StokesSolveResult res = solver.solve(f);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_LT(res.stats.iterations, 200);

  // The flow must actually move (sphere sinks).
  EXPECT_GT(res.u.norm_inf(), 0.0);

  // Incompressibility. Pointwise divergence is only weakly enforced by
  // Q2-P1disc, so compare it to the strain-rate magnitude, not the velocity.
  std::vector<StrainRateSample> sr;
  evaluate_strain_rates(mesh, res.u, sr);
  Real strain_l2 = 0.0;
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q)
      strain_l2 += g.wdetj[q] * 2.0 * sr[e * kQuadPerEl + q].j2;
  }
  strain_l2 = std::sqrt(strain_l2);
  // At 8^3 with a 10^3 viscosity jump cutting through elements, the
  // unresolved interface layer leaves O(10%) pointwise divergence; the
  // element-projected (discrete) divergence below is solver-tight.
  EXPECT_LT(divergence_l2(mesh, res.u), 0.2 * strain_l2);

  // The discrete constraint (pressure-block residual) is solver-tight.
  ASSERT_FALSE(res.pressure_residuals.empty());
  EXPECT_LT(res.pressure_residuals.back(),
            1e-4 * res.momentum_residuals.front());
}

TEST(StokesSolve, ResidualHistoriesRecorded) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolver solver(mesh, coeff, bc, small_gmg_options(2));
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  StokesSolveResult res = solver.solve(f);
  ASSERT_TRUE(res.stats.converged);
  ASSERT_GT(res.momentum_residuals.size(), 2u);
  ASSERT_EQ(res.momentum_residuals.size(), res.pressure_residuals.size());
  // The buoyancy-driven start: momentum residual dominates initially (§IV-A).
  EXPECT_GT(res.momentum_residuals.front(), res.pressure_residuals.front());
  // Both components decay by the end.
  EXPECT_LT(res.momentum_residuals.back(), 1e-3 * res.momentum_residuals.front());
}

TEST(StokesSolve, BackendsAllConverge) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  for (auto backend :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor, FineOperatorType::kTensorC}) {
    StokesSolverOptions opts = small_gmg_options(2);
    opts.kernel.type = backend;
    StokesSolver solver(mesh, coeff, bc, opts);
    // The finest GMG level smooths with the requested back-end too.
    ASSERT_NE(solver.gmg(), nullptr);
    const std::string fine = solver.gmg()->fine_operator().name();
    EXPECT_EQ(fine.substr(0, fine.find('[')), fine_operator_display(backend))
        << fine;
    StokesSolveResult res = solver.solve(f);
    EXPECT_TRUE(res.stats.converged) << "backend " << int(backend);
  }
}

TEST(StokesSolve, FgmresOuterAlsoConverges) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions opts = small_gmg_options(2);
  opts.outer = OuterKrylov::kFgmres;
  StokesSolver solver(mesh, coeff, bc, opts);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  StokesSolveResult res = solver.solve(f);
  EXPECT_TRUE(res.stats.converged);
}

TEST(StokesSolve, TriangularBeatsBlockDiagonal) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  auto iterations = [&](bool diag) {
    StokesSolverOptions opts = small_gmg_options(2);
    opts.block_pc.block_diagonal = diag;
    opts.krylov.max_it = 400;
    StokesSolver solver(mesh, coeff, bc, opts);
    return solver.solve(f).stats.iterations;
  };
  EXPECT_LE(iterations(false), iterations(true));
}

TEST(StokesSolve, SaAmgVelocityPcConverges) {
  // The SA-i style configuration: pure AMG on the assembled viscous block.
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions opts;
  opts.velocity_pc = VelocityPcType::kSaAmg;
  opts.kernel.type = FineOperatorType::kAssembled;
  opts.amg.coarse_size = 200;
  opts.krylov.max_it = 400;
  StokesSolver solver(mesh, coeff, bc, opts);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  StokesSolveResult res = solver.solve(f);
  EXPECT_TRUE(res.stats.converged);
}

TEST(StokesSolve, NewtonOperatorWithZeroDetaMatchesPicard) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  coeff.allocate_newton(); // deta = 0, D0 = 0: Newton term vanishes
  DirichletBc bc = sinker_boundary_conditions(mesh);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  StokesSolverOptions opts = small_gmg_options(2);
  StokesSolver picard(mesh, coeff, bc, opts);
  opts.newton_operator = true;
  StokesSolver newton(mesh, coeff, bc, opts);

  StokesSolveResult rp = picard.solve(f);
  StokesSolveResult rn = newton.solve(f);
  ASSERT_TRUE(rp.stats.converged);
  ASSERT_TRUE(rn.stats.converged);
  EXPECT_EQ(rn.stats.iterations, rp.stats.iterations);
}

// --- SCR -----------------------------------------------------------------------

TEST(Scr, MatchesFullSpaceSolve) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions opts = small_gmg_options(2);
  opts.krylov.rtol = 1e-8;
  StokesSolver solver(mesh, coeff, bc, opts);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  StokesSolveResult full = solver.solve(f);
  ASSERT_TRUE(full.stats.converged);

  Vector u_scr, p_scr;
  ScrOptions sopts;
  sopts.outer.rtol = 1e-8;
  ScrStats st = solver.solve_scr(f, u_scr, p_scr, sopts);
  EXPECT_TRUE(st.outer.converged);
  EXPECT_GT(st.inner_solves, 2);

  // Velocities agree to solver tolerance.
  Vector diff;
  diff.copy_from(u_scr);
  diff.axpy(-1.0, full.u);
  EXPECT_LT(diff.norm2(), 1e-4 * full.u.norm2());
}

} // namespace
} // namespace ptatin
