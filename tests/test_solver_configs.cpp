// Configuration-level tests: hierarchy introspection, coarse-solver
// variants, perf instrumentation, and Krylov edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "obs/perf.hpp"
#include "common/rng.hpp"
#include "ksp/cg.hpp"
#include "ksp/gcr.hpp"
#include "ksp/gmres.hpp"
#include "la/coo.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"

namespace ptatin {
namespace {

QuadCoefficients blob_coeff(const StructuredMesh& mesh) {
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real dx = g.xq[q][0] - 0.4, dz = g.xq[q][2] - 0.6;
      const bool in = dx * dx + dz * dz < 0.06;
      c.eta(e, q) = in ? 5.0 : 0.5;
      c.rho(e, q) = in ? 1.3 : 1.0;
    }
  }
  return c;
}

// --- level heuristic ---------------------------------------------------------

TEST(GmgLevels, SuggestionRespectsCoarsenability) {
  EXPECT_EQ(suggest_gmg_levels(4), 1);  // 4 -> 2 too small
  EXPECT_EQ(suggest_gmg_levels(6), 2);  // 6 -> 3
  EXPECT_EQ(suggest_gmg_levels(8), 2);  // 8 -> 4 (-> 2 too small)
  EXPECT_EQ(suggest_gmg_levels(12), 3); // 12 -> 6 -> 3
  EXPECT_EQ(suggest_gmg_levels(16), 3); // 16 -> 8 -> 4, capped at 3
  EXPECT_EQ(suggest_gmg_levels(16, 4), 3); // 4 -> 2 is still too small
  EXPECT_EQ(suggest_gmg_levels(24, 4), 4); // 24 -> 12 -> 6 -> 3
  EXPECT_EQ(suggest_gmg_levels(7), 1);  // odd: cannot coarsen
}

// --- hierarchy introspection -----------------------------------------------------

TEST(GmgIntrospection, LevelDofsShrinkAndGalerkinTimed) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = blob_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  const TensorViscousOperator fine(mesh, coeff, &bc);
  GmgOptions opts;
  opts.levels = 2;
  GmgHierarchy mg(
      fine, opts,
      [](const StructuredMesh& m) { return sinker_boundary_conditions(m); },
      [](const CsrMatrix& a, const StructuredMesh&,
         const DirichletBc&) -> std::unique_ptr<Preconditioner> {
        return std::make_unique<BlockJacobiPc>(a, 1, SubdomainSolve::kLu);
      });
  ASSERT_EQ(mg.num_levels(), 2);
  EXPECT_GT(mg.level_dofs(1), mg.level_dofs(0));
  EXPECT_EQ(mg.level_dofs(1), num_velocity_dofs(mesh));
  // Matrix-free finest: the level below is rediscretized, no Galerkin time.
  EXPECT_DOUBLE_EQ(mg.galerkin_setup_seconds(), 0.0);
}

TEST(GmgIntrospection, AssembledFinestAccumulatesGalerkinTime) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = blob_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  const AsmbViscousOperator fine(mesh, coeff, &bc);
  GmgOptions opts;
  opts.levels = 2;
  GmgHierarchy mg(
      fine, opts,
      [](const StructuredMesh& m) { return sinker_boundary_conditions(m); },
      [](const CsrMatrix& a, const StructuredMesh&,
         const DirichletBc&) -> std::unique_ptr<Preconditioner> {
        return std::make_unique<BlockJacobiPc>(a, 1, SubdomainSolve::kLu);
      });
  EXPECT_GT(mg.galerkin_setup_seconds(), 0.0);
}

// --- coarse solver variants -------------------------------------------------------

TEST(CoarseSolve, AsmCgConfigurationConverges) {
  // The rifting-run coarse solver (§V-A): CG + ASM(ILU0, overlap 4).
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = blob_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions so;
  so.gmg.levels = 2;
  so.coarse_solve = GmgCoarseSolve::kAsmCg;
  so.coarse_bjacobi_blocks = 4;
  so.krylov.max_it = 400;
  StokesSolver solver(mesh, coeff, bc, so);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  StokesSolveResult res = solver.solve(f);
  EXPECT_TRUE(res.stats.converged);
}

TEST(CoarseSolve, VariantsAgreeOnSolution) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = blob_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  auto solve_with = [&](GmgCoarseSolve cs) {
    StokesSolverOptions so;
    so.gmg.levels = 2;
    so.coarse_solve = cs;
    so.coarse_bjacobi_blocks = 2;
    so.krylov.rtol = 1e-8;
    so.krylov.max_it = 500;
    StokesSolver solver(mesh, coeff, bc, so);
    return solver.solve(f);
  };
  StokesSolveResult a = solve_with(GmgCoarseSolve::kBJacobiLu);
  StokesSolveResult b = solve_with(GmgCoarseSolve::kAmg);
  StokesSolveResult c = solve_with(GmgCoarseSolve::kAsmCg);
  ASSERT_TRUE(a.stats.converged && b.stats.converged && c.stats.converged);
  // Same linear system, tight tolerance: solutions agree.
  Vector d1, d2;
  d1.copy_from(b.u);
  d1.axpy(-1.0, a.u);
  d2.copy_from(c.u);
  d2.axpy(-1.0, a.u);
  EXPECT_LT(d1.norm2(), 1e-4 * a.u.norm2());
  EXPECT_LT(d2.norm2(), 1e-4 * a.u.norm2());
}

// --- instrumentation -----------------------------------------------------------

TEST(Perf, StokesSolvePopulatesEvents) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = blob_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions so;
  so.gmg.levels = 2;
  so.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  so.coarse_bjacobi_blocks = 1;
  StokesSolver solver(mesh, coeff, bc, so);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  auto& reg = PerfRegistry::instance();
  reg.reset_all();
  StokesSolveResult res = solver.solve(f);
  ASSERT_TRUE(res.stats.converged);
  EXPECT_GT(reg.event("MatMult(Stokes)").calls(), res.stats.iterations - 1);
  EXPECT_GT(reg.event("PCApply(Stokes)").calls(), 0);
  EXPECT_GT(reg.event("PCApply(GMG)").calls(), 0);
  EXPECT_GT(reg.event("MatMult(Stokes)").seconds(), 0.0);
  // The summary table formats without throwing and mentions the events.
  const std::string summary = reg.summary();
  EXPECT_NE(summary.find("MatMult(Stokes)"), std::string::npos);
}

// --- Krylov edge cases ------------------------------------------------------------

TEST(KrylovEdge, IdentityOperatorOneIteration) {
  const Index n = 20;
  ShellOperator eye(n, n, [](const Vector& x, Vector& y) { y.copy_from(x); });
  IdentityPc pc;
  Vector b(n, 3.0), x;
  KrylovSettings s;
  s.rtol = 1e-12;
  SolveStats st = gcr_solve(eye, pc, b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.iterations, 1);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(x[i], 3.0, 1e-12);
}

TEST(KrylovEdge, GmresRestartOne) {
  // restart=1 degenerates to a steepest-descent-like method; must still
  // converge on an SPD system (slowly).
  CooMatrix coo(10, 10);
  for (Index i = 0; i < 10; ++i) coo.add(i, i, Real(i + 1));
  CsrMatrix a = coo.to_csr();
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(10, 1.0), x;
  KrylovSettings s;
  s.restart = 1;
  s.rtol = 1e-8;
  s.max_it = 2000;
  SolveStats st = gmres_solve(op, pc, b, x, s);
  EXPECT_TRUE(st.converged);
}

TEST(KrylovEdge, MaxItZeroReturnsInitialGuess) {
  CooMatrix coo(5, 5);
  for (Index i = 0; i < 5; ++i) coo.add(i, i, 2.0);
  CsrMatrix a = coo.to_csr();
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(5, 1.0), x(5, 0.25);
  KrylovSettings s;
  s.max_it = 0;
  SolveStats st = cg_solve(op, pc, b, x, s);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.iterations, 0);
  for (Index i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(x[i], 0.25);
}

TEST(KrylovEdge, GcrReportsBreakdownOnZeroImage) {
  // Operator with a nontrivial kernel aligned with the preconditioned
  // residual: A z = 0 triggers the breakdown path, not an infinite loop.
  const Index n = 4;
  ShellOperator op(n, n, [](const Vector&, Vector& y) {
    y.resize(4);
    y.set_all(0.0);
  });
  IdentityPc pc;
  Vector b(n, 1.0), x;
  KrylovSettings s;
  s.max_it = 10;
  SolveStats st = gcr_solve(op, pc, b, x, s);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.reason, ConvergedReason::kDivergedBreakdown);
}

} // namespace
} // namespace ptatin
