// Unit tests for geometric multigrid: prolongation properties, V-cycle
// convergence, Galerkin vs rediscretized coarse operators.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ksp/gcr.hpp"
#include "mg/gmg.hpp"

namespace ptatin {
namespace {

QuadCoefficients constant_coeff(const StructuredMesh& mesh, Real eta) {
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) c.eta(e, q) = eta;
  return c;
}

QuadCoefficients sinker_coeff(const StructuredMesh& mesh, Real contrast) {
  // One viscous sphere in the center of the unit box.
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real dx = g.xq[q][0] - 0.5, dy = g.xq[q][1] - 0.5,
                 dz = g.xq[q][2] - 0.5;
      const bool inside = dx * dx + dy * dy + dz * dz < 0.25 * 0.25;
      c.eta(e, q) = inside ? 1.0 : 1.0 / contrast;
      c.rho(e, q) = inside ? 1.2 : 1.0;
    }
  }
  return c;
}

CoarseSolverFactory lu_coarse_factory() {
  return [](const CsrMatrix& a, const StructuredMesh&,
            const DirichletBc&) -> std::unique_ptr<Preconditioner> {
    return std::make_unique<BlockJacobiPc>(a, 1, SubdomainSolve::kLu);
  };
}

BcFactory sinker_bc_factory() {
  return [](const StructuredMesh& m) { return sinker_boundary_conditions(m); };
}

// --- prolongation ------------------------------------------------------------

TEST(Prolongation, ReproducesConstants) {
  StructuredMesh fine = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  StructuredMesh coarse = fine.coarsen();
  CsrMatrix P = build_velocity_prolongation(fine, coarse, nullptr);
  Vector xc(num_velocity_dofs(coarse), 1.0), xf;
  P.mult(xc, xf);
  for (Index i = 0; i < xf.size(); ++i) EXPECT_NEAR(xf[i], 1.0, 1e-14);
}

TEST(Prolongation, ReproducesLinearFieldsOnUniformMesh) {
  StructuredMesh fine = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 2, 3});
  StructuredMesh coarse = fine.coarsen();
  CsrMatrix P = build_velocity_prolongation(fine, coarse, nullptr);
  Vector xc(num_velocity_dofs(coarse), 0.0), xf;
  for (Index n = 0; n < coarse.num_nodes(); ++n) {
    const Vec3 x = coarse.node_coord(n);
    xc[3 * n + 0] = 2 * x[0] - x[1];
    xc[3 * n + 1] = x[2];
    xc[3 * n + 2] = x[0] + x[1] + x[2];
  }
  P.mult(xc, xf);
  for (Index n = 0; n < fine.num_nodes(); ++n) {
    const Vec3 x = fine.node_coord(n);
    EXPECT_NEAR(xf[3 * n + 0], 2 * x[0] - x[1], 1e-13);
    EXPECT_NEAR(xf[3 * n + 1], x[2], 1e-13);
    EXPECT_NEAR(xf[3 * n + 2], x[0] + x[1] + x[2], 1e-13);
  }
}

TEST(Prolongation, InjectionRowsHaveSingleUnitEntry) {
  StructuredMesh fine = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  StructuredMesh coarse = fine.coarsen();
  CsrMatrix P = build_velocity_prolongation(fine, coarse, nullptr);
  // Fine node (2,2,2) is coarse node (1,1,1): weight 1, single entry.
  const Index row = 3 * fine.node_index(2, 2, 2);
  EXPECT_EQ(P.row_ptr()[row + 1] - P.row_ptr()[row], 1);
  EXPECT_DOUBLE_EQ(*P.find(row, 3 * coarse.node_index(1, 1, 1)), 1.0);
}

TEST(Prolongation, ConstrainedFineRowsAreZero) {
  StructuredMesh fine = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  StructuredMesh coarse = fine.coarsen();
  DirichletBc bc = sinker_boundary_conditions(fine);
  CsrMatrix P = build_velocity_prolongation(fine, coarse, &bc);
  for (Index dof : bc.constrained_dofs())
    EXPECT_EQ(P.row_ptr()[dof + 1] - P.row_ptr()[dof], 0) << "dof " << dof;
}

TEST(Prolongation, WeightsArePartitionOfUnityOnInteriorRows) {
  StructuredMesh fine = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  StructuredMesh coarse = fine.coarsen();
  CsrMatrix P = build_velocity_prolongation(fine, coarse, nullptr);
  for (Index r = 0; r < P.rows(); ++r) {
    Real sum = 0;
    for (Index k = P.row_ptr()[r]; k < P.row_ptr()[r + 1]; ++k)
      sum += P.values()[k];
    EXPECT_NEAR(sum, 1.0, 1e-14);
  }
}

// --- GMG V-cycle --------------------------------------------------------------

TEST(Gmg, VcycleReducesResidual) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = constant_coeff(mesh, 1.0);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  GmgOptions opts;
  opts.levels = 3;
  const TensorViscousOperator A(mesh, coeff, &bc);
  GmgHierarchy mg(A, opts, sinker_bc_factory(), lu_coarse_factory());
  Rng rng(1);
  Vector b(A.rows(), 0.0);
  for (Index i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
  bc.zero_constrained(b);

  Vector x(A.rows(), 0.0);
  Vector r;
  A.residual(b, x, r);
  const Real r0 = r.norm2();
  mg.vcycle(b, x);
  A.residual(b, x, r);
  const Real r1 = r.norm2();
  mg.vcycle(b, x);
  A.residual(b, x, r);
  const Real r2 = r.norm2();
  EXPECT_LT(r1, 0.25 * r0); // healthy V-cycle contraction
  EXPECT_LT(r2, 0.25 * r1);
}

TEST(Gmg, PreconditionedSolveConvergesFast) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  GmgOptions opts;
  opts.levels = 2;
  const TensorViscousOperator A(mesh, coeff, &bc);
  GmgHierarchy mg(A, opts, sinker_bc_factory(), lu_coarse_factory());
  Rng rng(2);
  Vector b(A.rows(), 0.0);
  for (Index i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
  bc.zero_constrained(b);

  Vector x;
  KrylovSettings s;
  s.rtol = 1e-8;
  s.max_it = 60;
  SolveStats st = gcr_solve(A, mg, b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(st.iterations, 40);
}

TEST(Gmg, IterationCountRoughlyMeshIndependent) {
  auto iterations_for = [&](Index m, int levels) {
    StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
    QuadCoefficients coeff = constant_coeff(mesh, 1.0);
    DirichletBc bc = sinker_boundary_conditions(mesh);
    GmgOptions opts;
    opts.levels = levels;
    const TensorViscousOperator A(mesh, coeff, &bc);
    GmgHierarchy mg(A, opts, sinker_bc_factory(), lu_coarse_factory());
    Rng rng(3);
    Vector b(A.rows(), 0.0);
    for (Index i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
    bc.zero_constrained(b);
    Vector x;
    KrylovSettings s;
    s.rtol = 1e-8;
    s.max_it = 100;
    return gcr_solve(A, mg, b, x, s).iterations;
  };
  const int it_small = iterations_for(4, 2);
  const int it_large = iterations_for(8, 3);
  EXPECT_LE(it_large, it_small + 10); // no blow-up with resolution
}

TEST(Gmg, GalerkinAndRediscretizedBothConverge) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e3);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  auto run = [&](CoarseOperatorType ct) {
    GmgOptions opts;
    opts.levels = 3;
    opts.coarse_type = ct;
    const TensorViscousOperator A(mesh, coeff, &bc);
    GmgHierarchy mg(A, opts, sinker_bc_factory(), lu_coarse_factory());
    Rng rng(4);
    Vector b(A.rows(), 0.0);
    for (Index i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
    bc.zero_constrained(b);
    Vector x;
    KrylovSettings s;
    s.rtol = 1e-6;
    s.max_it = 120;
    return gcr_solve(A, mg, b, x, s);
  };

  SolveStats gal = run(CoarseOperatorType::kGalerkin);
  SolveStats red = run(CoarseOperatorType::kRediscretized);
  EXPECT_TRUE(gal.converged);
  EXPECT_TRUE(red.converged);
  // Galerkin is the more robust option (§III-C).
  EXPECT_LE(gal.iterations, red.iterations + 10);
}

TEST(Gmg, MatrixFreeAndAssembledFinestAgree) {
  // The preconditioner quality must be identical regardless of the finest
  // back-end: same math, different kernels.
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  auto iterations = [&](FineOperatorType ft) {
    GmgOptions opts;
    opts.levels = 2;
    const auto fine = make_viscous_backend({.type = ft}, mesh, coeff, &bc);
    const ViscousOperatorBase& A = *fine;
    GmgHierarchy mg(A, opts, sinker_bc_factory(), lu_coarse_factory());
    Rng rng(5);
    Vector b(A.rows(), 0.0);
    for (Index i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
    bc.zero_constrained(b);
    Vector x;
    KrylovSettings s;
    s.rtol = 1e-8;
    s.max_it = 100;
    return gcr_solve(A, mg, b, x, s).iterations;
  };

  // All matrix-free back-ends share the same (rediscretized) coarse
  // construction: identical preconditioners, identical iteration counts.
  const int mf = iterations(FineOperatorType::kMatrixFree);
  const int tens = iterations(FineOperatorType::kTensor);
  const int tensc = iterations(FineOperatorType::kTensorC);
  EXPECT_EQ(tens, mf);
  EXPECT_EQ(tensc, mf);
  // An assembled finest level upgrades the coarse operator to the true
  // Galerkin product — at least as good (the GMG-ii effect of Table IV).
  const int asmb = iterations(FineOperatorType::kAssembled);
  EXPECT_LE(asmb, tens);
}

TEST(Gmg, SingleLevelDegeneratesToSmoother) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = constant_coeff(mesh, 1.0);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  GmgOptions opts;
  opts.levels = 1;
  const TensorViscousOperator A(mesh, coeff, &bc);
  GmgHierarchy mg(A, opts, sinker_bc_factory(), nullptr);
  Vector b(A.rows(), 1.0);
  bc.zero_constrained(b);
  Vector z;
  mg.apply(b, z);
  Vector r;
  A.residual(b, z, r);
  EXPECT_LT(r.norm2(), b.norm2());
}

} // namespace
} // namespace ptatin
