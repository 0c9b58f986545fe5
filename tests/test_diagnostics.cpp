// Tests for post-processing diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "fem/dofmap.hpp"
#include "ptatin/diagnostics.hpp"

namespace ptatin {
namespace {

// --- topography ------------------------------------------------------------------

TEST(Topography, FlatSurface) {
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 2});
  TopographyField t = extract_topography(mesh, 2);
  EXPECT_EQ(t.n1, mesh.nx());
  EXPECT_EQ(t.n2, mesh.ny());
  EXPECT_DOUBLE_EQ(t.min, 2.0);
  EXPECT_DOUBLE_EQ(t.max, 2.0);
  EXPECT_DOUBLE_EQ(t.mean, 2.0);
}

TEST(Topography, CapturesDeformedSurface) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  mesh.deform([](const Vec3& x) {
    return Vec3{x[0], x[1],
                x[2] * (1.0 + 0.1 * std::sin(M_PI * x[0]))};
  });
  TopographyField t = extract_topography(mesh, 2);
  EXPECT_GT(t.max, 1.05);
  EXPECT_NEAR(t.min, 1.0, 1e-12);
  EXPECT_GT(t.at(t.n1 / 2, 0), t.at(0, 0)); // bump in the middle
}

TEST(Topography, VerticalAxisY) {
  StructuredMesh mesh = StructuredMesh::box(2, 3, 4, {0, 0, 0}, {1, 2, 1});
  TopographyField t = extract_topography(mesh, 1);
  EXPECT_EQ(t.n1, mesh.nx());
  EXPECT_EQ(t.n2, mesh.nz());
  EXPECT_DOUBLE_EQ(t.mean, 2.0);
}

// --- dissipation / RMS -------------------------------------------------------------

TEST(Diagnostics, DissipationOfShearFlow) {
  // u = (z, 0, 0) on the unit box: D_xz = 1/2, 2 eta D:D = 2*eta*(2*(1/4))
  // = eta; dissipation = eta * |Omega|.
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) coeff.eta(e, q) = 4.0;
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n)
    u[3 * n + 0] = mesh.node_coord(n)[2];
  EXPECT_NEAR(viscous_dissipation(mesh, coeff, u), 4.0, 1e-10);
}

TEST(Diagnostics, RmsOfConstantField) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {2, 1, 1});
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n) {
    u[3 * n + 0] = 3.0;
    u[3 * n + 1] = 4.0;
  }
  EXPECT_NEAR(rms_velocity(mesh, u), 5.0, 1e-12);
}

TEST(Diagnostics, StrainRateFieldHighlightsShearZone) {
  // Shear confined to the top half: the invariant field is larger there.
  StructuredMesh mesh = StructuredMesh::box(2, 2, 4, {0, 0, 0}, {1, 1, 1});
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n) {
    const Real z = mesh.node_coord(n)[2];
    u[3 * n + 0] = z > 0.5 ? 2 * (z - 0.5) : 0.0;
  }
  auto field = strain_rate_invariant_field(mesh, u);
  const Index low = mesh.element_index(0, 0, 0);
  const Index high = mesh.element_index(0, 0, 3);
  EXPECT_GT(field[high], 10 * field[low]);
}

TEST(Diagnostics, FlowStatsBundleConsistent) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff(mesh.num_elements());
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index n = 0; n < mesh.num_nodes(); ++n)
    u[3 * n + 1] = mesh.node_coord(n)[2];
  FlowStats fs = compute_flow_stats(mesh, coeff, u);
  EXPECT_NEAR(fs.u_max, 1.0, 1e-14);
  EXPECT_GT(fs.dissipation, 0.0);
  EXPECT_LT(fs.divergence_l2, 1e-10); // shear flow is divergence-free
}

TEST(Diagnostics, ElementMeansMatchConstants) {
  QuadCoefficients coeff(3);
  for (Index e = 0; e < 3; ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      coeff.eta(e, q) = Real(e + 1);
      coeff.rho(e, q) = 10.0 * Real(e + 1);
    }
  auto ev = element_mean_viscosity(coeff);
  auto dv = element_mean_density(coeff);
  for (Index e = 0; e < 3; ++e) {
    EXPECT_DOUBLE_EQ(ev[e], Real(e + 1));
    EXPECT_DOUBLE_EQ(dv[e], 10.0 * Real(e + 1));
  }
}

} // namespace
} // namespace ptatin
