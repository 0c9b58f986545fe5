// Unit tests for the finite-element substrate: bases, quadrature, mesh,
// DOF maps, boundary conditions, decomposition, and point location.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "fem/basis.hpp"
#include "fem/bc.hpp"
#include "fem/decomposition.hpp"
#include "fem/dofmap.hpp"
#include "fem/mesh.hpp"
#include "fem/point_location.hpp"
#include "fem/quadrature.hpp"

namespace ptatin {
namespace {

// --- quadrature --------------------------------------------------------------

TEST(Quadrature, WeightsSumToReferenceVolume) {
  Real s2 = 0, s3 = 0;
  for (int q = 0; q < QuadQ1::kPoints; ++q) s2 += QuadQ1::weight(q);
  for (int q = 0; q < QuadQ2::kPoints; ++q) s3 += QuadQ2::weight(q);
  EXPECT_NEAR(s2, 8.0, 1e-14);
  EXPECT_NEAR(s3, 8.0, 1e-14);
}

TEST(Quadrature, Gauss3IntegratesQuintics) {
  // 3-point Gauss on [-1,1] is exact for x^5 (0) and x^4 (2/5).
  Real s4 = 0, s5 = 0;
  for (int i = 0; i < 3; ++i) {
    s4 += Gauss3::wts[i] * std::pow(Gauss3::pts[i], 4);
    s5 += Gauss3::wts[i] * std::pow(Gauss3::pts[i], 5);
  }
  EXPECT_NEAR(s4, 0.4, 1e-14);
  EXPECT_NEAR(s5, 0.0, 1e-14);
}

// --- basis ---------------------------------------------------------------------

TEST(Basis, Q2PartitionOfUnity) {
  Rng rng(1);
  for (int t = 0; t < 20; ++t) {
    const Real xi[3] = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)};
    Real N[kQ2NodesPerEl];
    q2_eval(xi, N);
    Real sum = 0;
    for (Real v : N) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-13);
  }
}

TEST(Basis, Q2DerivativesSumToZero) {
  Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    const Real xi[3] = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)};
    Real dN[kQ2NodesPerEl][3];
    q2_eval_deriv(xi, dN);
    for (int d = 0; d < 3; ++d) {
      Real sum = 0;
      for (int i = 0; i < kQ2NodesPerEl; ++i) sum += dN[i][d];
      EXPECT_NEAR(sum, 0.0, 1e-12);
    }
  }
}

TEST(Basis, Q2KroneckerAtNodes) {
  // N_i(node_j) = delta_ij with nodes at {-1,0,1}^3, ordering a+3b+9c.
  for (int j = 0; j < kQ2NodesPerEl; ++j) {
    const Real xs[3] = {-1, 0, 1};
    const Real xi[3] = {xs[j % 3], xs[(j / 3) % 3], xs[j / 9]};
    Real N[kQ2NodesPerEl];
    q2_eval(xi, N);
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      EXPECT_NEAR(N[i], i == j ? 1.0 : 0.0, 1e-13);
  }
}

TEST(Basis, Q2ReproducesQuadratics) {
  // sum_i N_i(xi) f(node_i) == f(xi) for f quadratic per direction.
  auto f = [](Real x, Real y, Real z) {
    return 1.0 + 2 * x - y + 0.5 * z + x * y + x * x - z * z + x * y * z;
  };
  Rng rng(3);
  for (int t = 0; t < 10; ++t) {
    const Real xi[3] = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)};
    Real N[kQ2NodesPerEl];
    q2_eval(xi, N);
    Real sum = 0;
    const Real xs[3] = {-1, 0, 1};
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      sum += N[i] * f(xs[i % 3], xs[(i / 3) % 3], xs[i / 9]);
    EXPECT_NEAR(sum, f(xi[0], xi[1], xi[2]), 1e-12);
  }
}

TEST(Basis, Q2DerivativeMatchesFiniteDifference) {
  Rng rng(4);
  const Real h = 1e-6;
  for (int t = 0; t < 5; ++t) {
    const Real xi[3] = {rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                        rng.uniform(-0.9, 0.9)};
    Real dN[kQ2NodesPerEl][3];
    q2_eval_deriv(xi, dN);
    for (int d = 0; d < 3; ++d) {
      Real xp[3] = {xi[0], xi[1], xi[2]}, xm[3] = {xi[0], xi[1], xi[2]};
      xp[d] += h;
      xm[d] -= h;
      Real Np[kQ2NodesPerEl], Nm[kQ2NodesPerEl];
      q2_eval(xp, Np);
      q2_eval(xm, Nm);
      for (int i = 0; i < kQ2NodesPerEl; ++i)
        EXPECT_NEAR(dN[i][d], (Np[i] - Nm[i]) / (2 * h), 1e-8);
    }
  }
}

TEST(Basis, Q1PartitionOfUnityAndKronecker) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const Real xi[3] = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)};
    Real N[kQ1NodesPerEl];
    q1_eval(xi, N);
    Real sum = 0;
    for (Real v : N) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-14);
  }
  for (int j = 0; j < kQ1NodesPerEl; ++j) {
    const Real xs[2] = {-1, 1};
    const Real xi[3] = {xs[j % 2], xs[(j / 2) % 2], xs[j / 4]};
    Real N[kQ1NodesPerEl];
    q1_eval(xi, N);
    for (int i = 0; i < kQ1NodesPerEl; ++i)
      EXPECT_NEAR(N[i], i == j ? 1.0 : 0.0, 1e-14);
  }
}

TEST(Basis, TensorFactorsReproduce3DTabulation) {
  // dN[q][i][0] must equal D1 ⊗ B1 ⊗ B1 at the tensorized points.
  const auto& t = q2_tabulation();
  for (int qz = 0; qz < 3; ++qz)
    for (int qy = 0; qy < 3; ++qy)
      for (int qx = 0; qx < 3; ++qx) {
        const int q = qx + 3 * qy + 9 * qz;
        for (int c = 0; c < 3; ++c)
          for (int b = 0; b < 3; ++b)
            for (int a = 0; a < 3; ++a) {
              const int i = a + 3 * b + 9 * c;
              EXPECT_NEAR(t.dN[q][i][0],
                          t.D1[qx][a] * t.B1[qy][b] * t.B1[qz][c], 1e-14);
              EXPECT_NEAR(t.dN[q][i][1],
                          t.B1[qx][a] * t.D1[qy][b] * t.B1[qz][c], 1e-14);
              EXPECT_NEAR(t.dN[q][i][2],
                          t.B1[qx][a] * t.B1[qy][b] * t.D1[qz][c], 1e-14);
              EXPECT_NEAR(t.N[q][i], t.B1[qx][a] * t.B1[qy][b] * t.B1[qz][c],
                          1e-14);
            }
      }
}

TEST(Basis, P1DiscFrameIsCenteredAndScaled) {
  P1Frame f{{1.0, 2.0, 3.0}, {2.0, 4.0, 8.0}};
  Real psi[kP1NodesPerEl];
  const Real x[3] = {1.5, 2.25, 3.125};
  p1disc_eval(f, x, psi);
  EXPECT_DOUBLE_EQ(psi[0], 1.0);
  EXPECT_DOUBLE_EQ(psi[1], 1.0);
  EXPECT_DOUBLE_EQ(psi[2], 1.0);
  EXPECT_DOUBLE_EQ(psi[3], 1.0);
}

// --- mesh -------------------------------------------------------------------

TEST(Mesh, BoxSizesAndCoordinates) {
  StructuredMesh m = StructuredMesh::box(2, 3, 4, {0, 0, 0}, {1, 2, 3});
  EXPECT_EQ(m.num_elements(), 24);
  EXPECT_EQ(m.num_nodes(), 5 * 7 * 9);
  EXPECT_EQ(m.num_vertices(), 3 * 4 * 5);
  const Vec3 last = m.node_coord(m.node_index(4, 6, 8));
  EXPECT_NEAR(last[0], 1.0, 1e-15);
  EXPECT_NEAR(last[1], 2.0, 1e-15);
  EXPECT_NEAR(last[2], 3.0, 1e-15);
}

TEST(Mesh, ElementNodesAreDistinctAndValid) {
  StructuredMesh m = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  Index nodes[kQ2NodesPerEl];
  for (Index e = 0; e < m.num_elements(); ++e) {
    m.element_nodes(e, nodes);
    std::set<Index> uniq(nodes, nodes + kQ2NodesPerEl);
    EXPECT_EQ(uniq.size(), std::size_t(kQ2NodesPerEl));
    for (Index n : nodes) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, m.num_nodes());
    }
  }
}

TEST(Mesh, NeighboringElementsShareNodes) {
  StructuredMesh m = StructuredMesh::box(2, 1, 1, {0, 0, 0}, {1, 1, 1});
  Index n0[kQ2NodesPerEl], n1[kQ2NodesPerEl];
  m.element_nodes(0, n0);
  m.element_nodes(1, n1);
  std::set<Index> s0(n0, n0 + kQ2NodesPerEl);
  int shared = 0;
  for (Index n : n1) shared += s0.count(n);
  EXPECT_EQ(shared, 9); // one shared Q2 face
}

TEST(Mesh, VolumeOfUnitBox) {
  StructuredMesh m = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(m.volume(), 1.0, 1e-12);
}

TEST(Mesh, VolumeInvariantUnderSmoothDeformation) {
  // A shear deformation x' = x + 0.2*y has unit Jacobian determinant.
  StructuredMesh m = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  m.deform([](const Vec3& x) {
    return Vec3{x[0] + 0.2 * x[1], x[1], x[2]};
  });
  EXPECT_NEAR(m.volume(), 1.0, 1e-12);
}

TEST(Mesh, CoarsenInjectsCoordinates) {
  StructuredMesh m = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {2, 2, 2});
  m.deform([](const Vec3& x) {
    return Vec3{x[0], x[1] + 0.05 * std::sin(x[0]), x[2]};
  });
  ASSERT_TRUE(m.can_coarsen());
  StructuredMesh c = m.coarsen();
  EXPECT_EQ(c.num_elements(), 8);
  // Every coarse node coincides with the corresponding fine node.
  for (Index k = 0; k < c.nz(); ++k)
    for (Index j = 0; j < c.ny(); ++j)
      for (Index i = 0; i < c.nx(); ++i) {
        const Vec3 xc = c.node_coord(c.node_index(i, j, k));
        const Vec3 xf = m.node_coord(m.node_index(2 * i, 2 * j, 2 * k));
        for (int d = 0; d < 3; ++d) EXPECT_DOUBLE_EQ(xc[d], xf[d]);
      }
}

TEST(Mesh, MapToPhysicalAtCorners) {
  StructuredMesh m = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  const Vec3 x = m.map_to_physical(0, {-1, -1, -1});
  EXPECT_NEAR(x[0], 0.0, 1e-15);
  const Vec3 y = m.map_to_physical(0, {1, 1, 1});
  EXPECT_NEAR(y[0], 0.5, 1e-15);
  EXPECT_NEAR(y[1], 0.5, 1e-15);
  EXPECT_NEAR(y[2], 0.5, 1e-15);
}

// --- dof map -----------------------------------------------------------------

TEST(DofMap, CountsAndUniqueness) {
  StructuredMesh m = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(num_velocity_dofs(m), 3 * 125);
  EXPECT_EQ(num_pressure_dofs(m), 4 * 8);
  Index dofs[3 * kQ2NodesPerEl];
  element_velocity_dofs(m, 3, dofs);
  std::set<Index> uniq(dofs, dofs + 3 * kQ2NodesPerEl);
  EXPECT_EQ(uniq.size(), std::size_t(81));
}

// --- boundary conditions ---------------------------------------------------

TEST(Bc, FreeSlipConstrainsOnlyNormal) {
  StructuredMesh m = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc(num_velocity_dofs(m));
  constrain_free_slip(m, MeshFace::kXMin, bc);
  // 5x5 nodes on the face, only the x component.
  EXPECT_EQ(bc.num_constrained(), 25);
  const Index n = m.node_index(0, 2, 2);
  EXPECT_TRUE(bc.is_constrained(velocity_dof(n, 0)));
  EXPECT_FALSE(bc.is_constrained(velocity_dof(n, 1)));
  EXPECT_FALSE(bc.is_constrained(velocity_dof(n, 2)));
}

TEST(Bc, SinkerBcLeavesFreeSurfaceUnconstrained) {
  StructuredMesh m = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = sinker_boundary_conditions(m);
  // Top-face interior node: fully unconstrained.
  const Index ntop = m.node_index(2, 2, m.nz() - 1);
  for (int c = 0; c < 3; ++c)
    EXPECT_FALSE(bc.is_constrained(velocity_dof(ntop, c)));
  // Bottom-face interior node: z constrained only.
  const Index nbot = m.node_index(2, 2, 0);
  EXPECT_TRUE(bc.is_constrained(velocity_dof(nbot, 2)));
  EXPECT_FALSE(bc.is_constrained(velocity_dof(nbot, 0)));
}

TEST(Bc, VectorMaskingOps) {
  StructuredMesh m = StructuredMesh::box(1, 1, 1, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc(num_velocity_dofs(m));
  bc.constrain(5, 2.5);
  bc.constrain(10, -1.0);
  Vector v(num_velocity_dofs(m), 9.0);
  bc.zero_constrained(v);
  EXPECT_DOUBLE_EQ(v[5], 0.0);
  EXPECT_DOUBLE_EQ(v[4], 9.0);
  bc.set_values(v);
  EXPECT_DOUBLE_EQ(v[5], 2.5);
  EXPECT_DOUBLE_EQ(v[10], -1.0);
  Vector g = bc.lifting();
  EXPECT_DOUBLE_EQ(g[5], 2.5);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
}

TEST(Bc, ConstrainedDofListIsSorted) {
  DirichletBc bc(20);
  bc.constrain(7, 0.0);
  bc.constrain(3, 0.0);
  bc.constrain(7, 1.0); // duplicate constraint overrides value
  const auto& dofs = bc.constrained_dofs();
  ASSERT_EQ(dofs.size(), 2u);
  EXPECT_EQ(dofs[0], 3);
  EXPECT_EQ(dofs[1], 7);
  EXPECT_EQ(bc.num_constrained(), 2);
}

// --- decomposition ----------------------------------------------------------

TEST(Decomposition, PartitionCoversAllElements) {
  StructuredMesh m = StructuredMesh::box(5, 4, 3, {0, 0, 0}, {1, 1, 1});
  Decomposition d = Decomposition::create(m, 2, 2, 1);
  EXPECT_EQ(d.num_ranks(), 4);
  std::set<Index> seen;
  for (Index r = 0; r < d.num_ranks(); ++r) {
    const Subdomain& s = d.subdomain(r);
    for (Index ek = s.elo[2]; ek < s.ehi[2]; ++ek)
      for (Index ej = s.elo[1]; ej < s.ehi[1]; ++ej)
        for (Index ei = s.elo[0]; ei < s.ehi[0]; ++ei) {
          const Index e = m.element_index(ei, ej, ek);
          EXPECT_TRUE(seen.insert(e).second) << "element owned twice";
          EXPECT_EQ(d.rank_of_element(m, e), r);
        }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), m.num_elements());
}

TEST(Decomposition, BalancedWithinOnePerDirection) {
  StructuredMesh m = StructuredMesh::box(7, 5, 3, {0, 0, 0}, {1, 1, 1});
  Decomposition d = Decomposition::create(m, 3, 2, 1);
  // Chunk widths in each direction differ by at most one element.
  for (int dir = 0; dir < 3; ++dir) {
    Index mn = m.num_elements(), mx = 0;
    for (Index r = 0; r < d.num_ranks(); ++r) {
      const Index w = d.subdomain(r).ehi[dir] - d.subdomain(r).elo[dir];
      mn = std::min(mn, w);
      mx = std::max(mx, w);
    }
    EXPECT_LE(mx - mn, 1);
  }
}

TEST(Decomposition, ExactPartitionForUnevenDivisions) {
  // 7x5x3 elements over 3x2x2 ranks: no direction divides evenly. The split
  // arrays must still tile [0, m) exactly, and the per-rank boxes must
  // reproduce them.
  StructuredMesh m = StructuredMesh::box(7, 5, 3, {0, 0, 0}, {1, 1, 1});
  Decomposition d = Decomposition::create(m, 3, 2, 2);
  const std::vector<Index>* splits[3] = {&d.splits_x(), &d.splits_y(),
                                         &d.splits_z()};
  const Index dims[3] = {m.mx(), m.my(), m.mz()};
  const Index p[3] = {d.px(), d.py(), d.pz()};
  for (int dir = 0; dir < 3; ++dir) {
    ASSERT_EQ(static_cast<Index>(splits[dir]->size()), p[dir] + 1);
    EXPECT_EQ(splits[dir]->front(), 0);
    EXPECT_EQ(splits[dir]->back(), dims[dir]);
    for (Index r = 0; r < p[dir]; ++r)
      EXPECT_LT((*splits[dir])[r], (*splits[dir])[r + 1])
          << "empty slab in dir " << dir;
  }
  for (Index r = 0; r < d.num_ranks(); ++r) {
    const auto ijk = d.dir_indices(r);
    EXPECT_EQ(d.rank_at(ijk[0], ijk[1], ijk[2]), r);
    const Subdomain& s = d.subdomain(r);
    EXPECT_EQ(s.elo[0], d.splits_x()[ijk[0]]);
    EXPECT_EQ(s.ehi[0], d.splits_x()[ijk[0] + 1]);
    EXPECT_EQ(s.elo[1], d.splits_y()[ijk[1]]);
    EXPECT_EQ(s.ehi[1], d.splits_y()[ijk[1] + 1]);
    EXPECT_EQ(s.elo[2], d.splits_z()[ijk[2]]);
    EXPECT_EQ(s.ehi[2], d.splits_z()[ijk[2] + 1]);
  }
}

TEST(Decomposition, RankOfElementAgreesWithOwnsElementIjk) {
  StructuredMesh m = StructuredMesh::box(5, 4, 3, {0, 0, 0}, {1, 1, 1});
  Decomposition d = Decomposition::create(m, 2, 2, 3);
  for (Index ek = 0; ek < m.mz(); ++ek)
    for (Index ej = 0; ej < m.my(); ++ej)
      for (Index ei = 0; ei < m.mx(); ++ei) {
        const Index e = m.element_index(ei, ej, ek);
        const Index owner = d.rank_of_element(m, e);
        for (Index r = 0; r < d.num_ranks(); ++r) {
          const Subdomain& s = d.subdomain(r);
          const bool in_box = ei >= s.elo[0] && ei < s.ehi[0] &&
                              ej >= s.elo[1] && ej < s.ehi[1] &&
                              ek >= s.elo[2] && ek < s.ehi[2];
          EXPECT_EQ(in_box, r == owner)
              << "element (" << ei << "," << ej << "," << ek << ") rank " << r;
        }
      }
}

// --- point location --------------------------------------------------------

TEST(PointLocation, FindsPointsInUniformMesh) {
  StructuredMesh m = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  Rng rng(6);
  for (int t = 0; t < 100; ++t) {
    const Vec3 x{rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99),
                 rng.uniform(0.01, 0.99)};
    PointLocation loc = locate_point(m, x);
    ASSERT_TRUE(loc.found);
    // Verify the inverse map: mapping xi back must reproduce x.
    const Vec3 y = m.map_to_physical(loc.element, loc.xi);
    for (int d = 0; d < 3; ++d) EXPECT_NEAR(y[d], x[d], 1e-9);
  }
}

TEST(PointLocation, FindsPointsInDeformedMesh) {
  StructuredMesh m = StructuredMesh::box(6, 6, 6, {0, 0, 0}, {1, 1, 1});
  m.deform([](const Vec3& x) {
    return Vec3{x[0] + 0.05 * std::sin(2 * x[1]),
                x[1] + 0.05 * std::cos(1.5 * x[0]) * x[2], x[2] + 0.04 * x[0] * x[1]};
  });
  Rng rng(7);
  int found = 0;
  for (int t = 0; t < 100; ++t) {
    // Sample physical points by mapping random reference points.
    const Index e = rng.uniform_index(0, m.num_elements() - 1);
    const Vec3 xi{rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95),
                  rng.uniform(-0.95, 0.95)};
    const Vec3 x = m.map_to_physical(e, xi);
    PointLocation loc = locate_point(m, x);
    if (!loc.found) continue;
    ++found;
    const Vec3 y = m.map_to_physical(loc.element, loc.xi);
    for (int d = 0; d < 3; ++d) EXPECT_NEAR(y[d], x[d], 1e-8);
  }
  EXPECT_EQ(found, 100);
}

TEST(PointLocation, HintAcceleratesAndStaysCorrect) {
  StructuredMesh m = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  const Vec3 x{0.93, 0.93, 0.93};
  // Wrong hint on the other side of the mesh: the walk must still find it.
  PointLocation loc = locate_point(m, x, /*hint=*/0);
  ASSERT_TRUE(loc.found);
  const Vec3 y = m.map_to_physical(loc.element, loc.xi);
  for (int d = 0; d < 3; ++d) EXPECT_NEAR(y[d], x[d], 1e-9);
}

TEST(PointLocation, OutsidePointReportsNotFound) {
  StructuredMesh m = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  PointLocation loc = locate_point(m, {1.5, 0.5, 0.5});
  EXPECT_FALSE(loc.found);
  loc = locate_point(m, {0.5, -0.2, 0.5});
  EXPECT_FALSE(loc.found);
}

TEST(PointLocation, BoundaryPointIsFound) {
  StructuredMesh m = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  PointLocation loc = locate_point(m, {0.0, 0.0, 0.0});
  EXPECT_TRUE(loc.found);
  loc = locate_point(m, {1.0, 1.0, 1.0});
  EXPECT_TRUE(loc.found);
}

} // namespace
} // namespace ptatin
