// Unit tests for the material point method: storage, layout, projection,
// advection, migration, population control.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "fem/dofmap.hpp"
#include "mpm/advection.hpp"
#include "mpm/points.hpp"
#include "mpm/population.hpp"
#include "mpm/projection.hpp"

namespace ptatin {
namespace {

// --- storage -----------------------------------------------------------------

TEST(Points, AddRemoveSwap) {
  MaterialPoints pts;
  pts.add({0.1, 0.2, 0.3}, 0, 0.5);
  pts.add({0.4, 0.5, 0.6}, 1, 1.5);
  pts.add({0.7, 0.8, 0.9}, 2, 2.5);
  EXPECT_EQ(pts.size(), 3);
  pts.remove(0); // point 2 takes slot 0
  EXPECT_EQ(pts.size(), 2);
  EXPECT_EQ(pts.lithology(0), 2);
  EXPECT_DOUBLE_EQ(pts.plastic_strain(0), 2.5);
  EXPECT_EQ(pts.lithology(1), 1);
}

TEST(Points, LayoutFillsEveryElement) {
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  layout_points(mesh, 2, [](const Vec3&) { return 0; }, pts);
  EXPECT_EQ(pts.size(), 27 * 8);
  // Every point already located, and in the right element.
  std::map<Index, int> count;
  for (Index i = 0; i < pts.size(); ++i) {
    ASSERT_GE(pts.element(i), 0);
    count[pts.element(i)]++;
  }
  EXPECT_EQ(count.size(), 27u);
  for (auto& [e, c] : count) EXPECT_EQ(c, 8);
}

TEST(Points, LayoutAssignsLithologyByPosition) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  layout_points(mesh, 2, [](const Vec3& x) { return x[2] > 0.5 ? 1 : 0; },
                pts);
  for (Index i = 0; i < pts.size(); ++i)
    EXPECT_EQ(pts.lithology(i), pts.position(i)[2] > 0.5 ? 1 : 0);
}

TEST(Points, LocateAllFindsJitteredPoints) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  mesh.deform([](const Vec3& x) {
    return Vec3{x[0] + 0.03 * std::sin(x[1] * 3), x[1], x[2] + 0.02 * x[0]};
  });
  MaterialPoints pts;
  layout_points(mesh, 3, [](const Vec3&) { return 0; }, pts, 0.5);
  const Index lost = locate_all(mesh, pts);
  EXPECT_EQ(lost, 0);
}

// --- projection -----------------------------------------------------------------

TEST(Projection, ConstantFieldIsExact) {
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  layout_points(mesh, 2, [](const Vec3&) { return 0; }, pts, 0.3);
  std::vector<Real> vals(pts.size(), 7.5);
  ProjectionResult pr = project_to_vertices(mesh, pts, vals);
  EXPECT_EQ(pr.empty_vertices, 0);
  for (Index v = 0; v < mesh.num_vertices(); ++v)
    EXPECT_NEAR(pr.vertex_values[v], 7.5, 1e-13);
}

TEST(Projection, BoundedByPointValues) {
  // The weighted-average form of Eq. 12 cannot overshoot the data range.
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  layout_points(mesh, 3, [](const Vec3&) { return 0; }, pts, 0.4);
  std::vector<Real> vals(pts.size());
  for (Index i = 0; i < pts.size(); ++i)
    vals[i] = pts.position(i)[0] > 0.5 ? 100.0 : 1.0;
  ProjectionResult pr = project_to_vertices(mesh, pts, vals);
  for (Index v = 0; v < mesh.num_vertices(); ++v) {
    EXPECT_GE(pr.vertex_values[v], 1.0 - 1e-12);
    EXPECT_LE(pr.vertex_values[v], 100.0 + 1e-12);
  }
}

TEST(Projection, EmptyVerticesGetFallback) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  // One point in a corner element only.
  const Index i = pts.add({0.1, 0.1, 0.1}, 0);
  locate_all(mesh, pts);
  ASSERT_GE(pts.element(i), 0);
  std::vector<Real> vals{3.0};
  ProjectionResult pr = project_to_vertices(mesh, pts, vals, -1.0);
  EXPECT_GT(pr.empty_vertices, 0);
  // Far-corner vertex has no support: fallback.
  EXPECT_DOUBLE_EQ(pr.vertex_values[mesh.vertex_index(2, 2, 2)], -1.0);
  // Origin vertex sees the point.
  EXPECT_NEAR(pr.vertex_values[mesh.vertex_index(0, 0, 0)], 3.0, 1e-12);
}

TEST(Projection, QuadratureInterpolationSmoothness) {
  // Linear-in-x point data projects to a monotone-in-x quadrature field.
  StructuredMesh mesh = StructuredMesh::box(4, 2, 2, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  layout_points(mesh, 3, [](const Vec3&) { return 0; }, pts);
  std::vector<Real> vals(pts.size());
  for (Index i = 0; i < pts.size(); ++i) vals[i] = pts.position(i)[0];
  std::vector<Real> q;
  project_to_quadrature(mesh, pts, vals, q);
  // Element-averaged values increase along x.
  Real prev = -1;
  for (Index ei = 0; ei < 4; ++ei) {
    const Index e = mesh.element_index(ei, 0, 0);
    Real avg = 0;
    for (int qq = 0; qq < kQuadPerEl; ++qq) avg += q[e * kQuadPerEl + qq];
    avg /= kQuadPerEl;
    EXPECT_GT(avg, prev);
    prev = avg;
  }
}

// --- advection ---------------------------------------------------------------

TEST(Advection, UniformFlowTranslatesPoints) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n) u[3 * n + 0] = 1.0; // v=(1,0,0)

  MaterialPoints pts;
  pts.add({0.2, 0.5, 0.5}, 0);
  locate_all(mesh, pts);
  AdvectionStats st = advect_points_rk2(mesh, u, 0.25, pts);
  EXPECT_EQ(st.advected, 1);
  EXPECT_NEAR(pts.position(0)[0], 0.45, 1e-12);
  EXPECT_NEAR(pts.position(0)[1], 0.5, 1e-12);
}

TEST(Advection, Rk2BeatsEulerOnRotation) {
  // Rigid rotation about the box center, which Q2 represents exactly. The
  // midpoint rule is second order, so its error against the exact rotation
  // falls 4x when dt halves (forward Euler's would fall 2x).
  StructuredMesh mesh = StructuredMesh::box(6, 6, 6, {0, 0, 0}, {1, 1, 1});
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n) {
    const Vec3 x = mesh.node_coord(n);
    u[3 * n + 0] = -(x[1] - 0.5);
    u[3 * n + 1] = x[0] - 0.5;
  }
  // Position error after rotating (0.75, 0.5) by one radian.
  auto error = [&](int steps) {
    MaterialPoints pts;
    pts.add({0.75, 0.5, 0.5}, 0);
    locate_all(mesh, pts);
    for (int s = 0; s < steps; ++s)
      advect_points_rk2(mesh, u, 1.0 / steps, pts);
    const Vec3 x = pts.position(0);
    return std::hypot(x[0] - (0.5 + 0.25 * std::cos(1.0)),
                      x[1] - (0.5 + 0.25 * std::sin(1.0)));
  };
  const Real coarse = error(20), fine = error(40);
  EXPECT_LT(coarse, 1e-3);
  EXPECT_NEAR(coarse / fine, 4.0, 0.2);
}

TEST(Advection, OutflowInvalidatesLocation) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n) u[3 * n + 0] = 1.0;
  MaterialPoints pts;
  pts.add({0.9, 0.5, 0.5}, 0);
  locate_all(mesh, pts);
  AdvectionStats st = advect_points_rk2(mesh, u, 0.5, pts);
  EXPECT_EQ(st.left_domain, 1);
  EXPECT_EQ(pts.element(0), -1);
}

TEST(Advection, CflTimeStepScalesInverselyWithVelocity) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  Vector u1(num_velocity_dofs(mesh), 0.0), u2(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n) {
    u1[3 * n] = 1.0;
    u2[3 * n] = 4.0;
  }
  EXPECT_NEAR(compute_cfl_dt(mesh, u1, 0.5) / compute_cfl_dt(mesh, u2, 0.5),
              4.0, 1e-10);
}

// --- population control -----------------------------------------------------------

TEST(Population, InjectsIntoEmptyElements) {
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  // Populate only half the domain.
  layout_points(mesh, 2, [](const Vec3&) { return 0; }, pts);
  for (Index i = 0; i < pts.size();) {
    if (pts.position(i)[0] > 0.34) {
      pts.remove(i);
    } else {
      ++i;
    }
  }
  locate_all(mesh, pts);
  PopulationOptions opts;
  opts.min_per_element = 4;
  opts.inject_per_dim = 2;
  PopulationStats st = control_population(mesh, opts, pts);
  EXPECT_GT(st.injected, 0);
  // The last sweep found nothing left to fill.
  EXPECT_EQ(st.deficient_elements, 0);

  // All elements now meet the minimum.
  std::vector<Index> count(mesh.num_elements(), 0);
  for (Index i = 0; i < pts.size(); ++i) count[pts.element(i)]++;
  for (Index e = 0; e < mesh.num_elements(); ++e)
    EXPECT_GE(count[e], opts.min_per_element) << "element " << e;
}

TEST(Population, ClonesNearestLithology) {
  StructuredMesh mesh = StructuredMesh::box(2, 1, 1, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  // Points only in element 0 (x < 0.5), lithology depends on y.
  for (int t = 0; t < 8; ++t)
    pts.add({0.25, 0.1 + 0.1 * t, 0.5}, t < 4 ? 0 : 1);
  locate_all(mesh, pts);
  PopulationOptions opts;
  opts.min_per_element = 4;
  PopulationStats st = control_population(mesh, opts, pts);
  EXPECT_GT(st.injected, 0);
  // Clones in element 1 inherit a lithology present among donors.
  for (Index i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(pts.lithology(i) == 0 || pts.lithology(i) == 1);
  }
}

TEST(Population, RemovesExcessPoints) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  MaterialPoints pts;
  layout_points(mesh, 4, [](const Vec3&) { return 0; }, pts); // 64/element
  PopulationOptions opts;
  opts.max_per_element = 32;
  PopulationStats st = control_population(mesh, opts, pts);
  EXPECT_GT(st.removed, 0);
  std::vector<Index> count(mesh.num_elements(), 0);
  for (Index i = 0; i < pts.size(); ++i) count[pts.element(i)]++;
  for (Index e = 0; e < mesh.num_elements(); ++e)
    EXPECT_LE(count[e], opts.max_per_element);
}

} // namespace
} // namespace ptatin
