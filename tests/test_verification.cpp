// Verification: h-convergence on a manufactured trigonometric Stokes
// solution.
#include <gtest/gtest.h>

#include <cmath>

#include "ksp/gcr.hpp"
#include "saddle/stokes_solver.hpp"

namespace ptatin {
namespace {

// Manufactured divergence-free solution on [0,1]^3 with eta = 1:
//   u = (cos(pi y), cos(pi z), cos(pi x)),  p = sin(pi x)
//   f = -Delta u + grad p = pi^2 u + (pi cos(pi x), 0, 0)
Vec3 exact_u(const Vec3& x) {
  return Vec3{std::cos(M_PI * x[1]), std::cos(M_PI * x[2]),
              std::cos(M_PI * x[0])};
}

Vec3 forcing(const Vec3& x) {
  const Real pi2 = M_PI * M_PI;
  const Vec3 u = exact_u(x);
  return Vec3{pi2 * u[0] + M_PI * std::cos(M_PI * x[0]), pi2 * u[1],
              pi2 * u[2]};
}

/// Solve the manufactured problem on an m^3 mesh; return the L2 velocity
/// error (quadrature-sampled).
Real solve_and_error(Index m) {
  StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff(mesh.num_elements()); // eta = 1

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

  StokesSolverOptions so;
  so.gmg.levels = suggest_gmg_levels(m);
  so.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  so.coarse_bjacobi_blocks = 1;
  so.krylov.rtol = 1e-11;
  so.krylov.max_it = 800;
  so.bc_factory = [](const StructuredMesh& mm) {
    DirichletBc cbc(num_velocity_dofs(mm));
    for (auto f : {MeshFace::kXMin, MeshFace::kXMax, MeshFace::kYMin,
                   MeshFace::kYMax, MeshFace::kZMin, MeshFace::kZMax})
      constrain_no_slip(mm, f, cbc);
    return cbc;
  };
  StokesSolver solver(mesh, coeff, bc, so);
  Vector f = assemble_forcing(mesh, forcing);
  StokesSolveResult res = solver.solve(f);
  EXPECT_TRUE(res.stats.converged) << "m = " << m;

  // Quadrature-sampled L2 error of the velocity.
  const auto& tab = q2_tabulation();
  Real err2 = 0;
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    Index nodes[kQ2NodesPerEl];
    mesh.element_nodes(e, nodes);
    for (int q = 0; q < kQuadPerEl; ++q) {
      Real v[3] = {0, 0, 0};
      for (int i = 0; i < kQ2NodesPerEl; ++i)
        for (int c = 0; c < 3; ++c)
          v[c] += tab.N[q][i] * res.u[velocity_dof(nodes[i], c)];
      const Vec3 ue = exact_u({g.xq[q][0], g.xq[q][1], g.xq[q][2]});
      for (int c = 0; c < 3; ++c)
        err2 += g.wdetj[q] * (v[c] - ue[c]) * (v[c] - ue[c]);
    }
  }
  return std::sqrt(err2);
}

TEST(Convergence, Q2VelocityIsThirdOrder) {
  // Q2 velocities converge at O(h^3) in L2: halving h divides the error by
  // ~8. Allow a generous margin (>= 5) for pre-asymptotic effects.
  const Real e2 = solve_and_error(2);
  const Real e4 = solve_and_error(4);
  EXPECT_LT(e4, e2);
  EXPECT_GT(e2 / e4, 5.0) << "observed rate " << std::log2(e2 / e4);
}

} // namespace
} // namespace ptatin
