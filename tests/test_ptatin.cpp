// Integration tests for the top-level pTatin3D driver: model selection and
// setup, coefficient pipeline, full time steps on the sinker and rifting
// models, and VTK output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "ptatin/context.hpp"
#include "ptatin/model_select.hpp"
#include "ptatin/models_rifting.hpp"
#include "ptatin/models_sinker.hpp"
#include "ptatin/vtk.hpp"
#include "stokes/fields.hpp"

namespace ptatin {
namespace {

PtatinOptions fast_options() {
  PtatinOptions o;
  o.points_per_dim = 2;
  o.nonlinear.max_it = 3;
  o.nonlinear.rtol = 1e-2;
  o.nonlinear.linear.gmg.levels = 2;
  o.nonlinear.linear.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  o.nonlinear.linear.coarse_bjacobi_blocks = 1;
  o.nonlinear.linear.krylov.max_it = 300;
  return o;
}

// --- model selection -------------------------------------------------------------

TEST(ModelSelect, BuildsSinkerAndRiftingAndRejectsOtherModels) {
  int axis = -1;
  const char* sinker[] = {"prog", "-m", "4"};
  EXPECT_EQ(build_model_from_options(Options::from_args(3, sinker), axis)
                .mesh.num_elements(),
            64);
  EXPECT_EQ(axis, 2);
  const char* rifting[] = {"prog", "-model", "rifting", "-mx", "4",
                           "-my",  "2",      "-mz",     "2"};
  EXPECT_EQ(build_model_from_options(Options::from_args(9, rifting), axis)
                .mesh.num_elements(),
            16);
  EXPECT_EQ(axis, 1);
  for (const char* model : {"volcano", "subduction"}) {
    const char* argv[] = {"prog", "-model", model};
    EXPECT_THROW(build_model_from_options(Options::from_args(3, argv), axis),
                 Error)
        << model;
  }
}

// --- sinker model ----------------------------------------------------------------

TEST(SinkerModel, SpheresDoNotIntersect) {
  SinkerParams p;
  p.num_spheres = 8;
  p.radius = 0.1;
  auto centers = sinker_sphere_centers(p);
  ASSERT_EQ(centers.size(), 8u);
  for (std::size_t i = 0; i < centers.size(); ++i)
    for (std::size_t j = i + 1; j < centers.size(); ++j) {
      Real d2 = 0;
      for (int d = 0; d < 3; ++d)
        d2 += (centers[i][d] - centers[j][d]) * (centers[i][d] - centers[j][d]);
      EXPECT_GT(std::sqrt(d2), 2 * p.radius);
    }
}

TEST(SinkerModel, CoefficientsReflectContrast) {
  SinkerParams p;
  p.mx = p.my = p.mz = 8;
  p.contrast = 1e4;
  StructuredMesh mesh =
      StructuredMesh::box(p.mx, p.my, p.mz, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients c = sinker_coefficients(mesh, p);
  EXPECT_NEAR(c.eta_min(), 1e-4, 1e-10);
  EXPECT_NEAR(c.eta_max(), 1.0, 1e-10);
}

TEST(SinkerModel, SphereSinksOverOneStep) {
  SinkerParams p;
  p.mx = p.my = p.mz = 4;
  p.num_spheres = 1;
  p.radius = 0.2;
  p.contrast = 1e2;
  ModelSetup setup = make_sinker_model(p);
  PtatinOptions opts = fast_options();
  opts.update_mesh = false; // keep the mesh fixed for this check
  PtatinContext ctx(std::move(setup), opts);

  StepReport rep = ctx.step(0.01);
  EXPECT_GT(rep.nonlinear.total_krylov_iterations, 0);

  // Mean vertical velocity of sphere material points is negative (sinking).
  Real wsum = 0;
  Index count = 0;
  const auto& pts = ctx.points();
  for (Index i = 0; i < pts.size(); ++i) {
    if (pts.lithology(i) != 1 || pts.element(i) < 0) continue;
    const Vec3 v = interpolate_velocity(ctx.mesh(), ctx.velocity(),
                                        pts.element(i), pts.local_coord(i));
    wsum += v[2];
    ++count;
  }
  ASSERT_GT(count, 0);
  EXPECT_LT(wsum / Real(count), 0.0);
}

TEST(SinkerModel, MultiStepRunRemainsStable) {
  SinkerParams p;
  p.mx = p.my = p.mz = 4;
  p.num_spheres = 2;
  p.radius = 0.15;
  p.contrast = 1e2;
  ModelSetup setup = make_sinker_model(p);
  PtatinContext ctx(std::move(setup), fast_options());

  const Index n0 = ctx.points().size();
  for (int s = 0; s < 3; ++s) {
    const Real dt = std::min(Real(0.01), ctx.suggest_dt(0.25));
    StepReport rep = ctx.step(dt);
    EXPECT_GT(rep.ale.min_detj_after, 0.0) << "mesh tangled at step " << s;
  }
  // Population control keeps the point count in a sane band.
  EXPECT_GT(ctx.points().size(), n0 / 2);
  EXPECT_LT(ctx.points().size(), n0 * 4);
}

// --- coefficient pipeline -----------------------------------------------------------

TEST(Pipeline, ProjectedViscosityIsBoundedByMaterials) {
  SinkerParams p;
  p.mx = p.my = p.mz = 4;
  p.contrast = 1e3;
  ModelSetup setup = make_sinker_model(p);
  PtatinOptions opts = fast_options();
  PtatinContext ctx(std::move(setup), opts);

  QuadCoefficients coeff(ctx.mesh().num_elements());
  Vector u(num_velocity_dofs(ctx.mesh()), 0.0);
  Vector pr(num_pressure_dofs(ctx.mesh()), 0.0);
  update_coefficients_from_points(ctx.mesh(), ctx.setup().materials,
                                  ctx.points(), u, pr, nullptr, false,
                                  CoefficientPipelineOptions{}, coeff);
  EXPECT_GE(coeff.eta_min(), 1e-3 - 1e-12);
  EXPECT_LE(coeff.eta_max(), 1.0 + 1e-12);
}

TEST(Pipeline, NewtonTermsFilled) {
  SinkerParams p;
  p.mx = p.my = p.mz = 2;
  ModelSetup setup = make_sinker_model(p);
  PtatinContext ctx(std::move(setup), fast_options());
  QuadCoefficients coeff(ctx.mesh().num_elements());
  Vector u(num_velocity_dofs(ctx.mesh()), 0.0);
  // Nonzero velocity so D0 is nonzero.
  for (Index n = 0; n < ctx.mesh().num_nodes(); ++n)
    u[3 * n + 0] = ctx.mesh().node_coord(n)[1];
  Vector pr(num_pressure_dofs(ctx.mesh()), 0.0);
  update_coefficients_from_points(ctx.mesh(), ctx.setup().materials,
                                  ctx.points(), u, pr, nullptr, true,
                                  CoefficientPipelineOptions{}, coeff);
  ASSERT_TRUE(coeff.has_newton());
  // D0 = strain of u: the xy component is 1/2 everywhere.
  EXPECT_NEAR(coeff.d0(0, 0)[3], 0.5, 1e-9);
}

// --- rifting model ----------------------------------------------------------------

TEST(RiftingModel, LithologyLayering) {
  RiftingParams p;
  p.mx = 8;
  p.my = 4;
  p.mz = 4;
  ModelSetup setup = make_rifting_model(p);
  EXPECT_EQ(setup.materials.size(), 3);
  EXPECT_EQ(setup.lithology_of({1.0, 0.1, 0.5}), 0); // mantle
  EXPECT_EQ(setup.lithology_of({1.0, 0.85, 0.5}), 1); // weak crust
  EXPECT_EQ(setup.lithology_of({1.0, 0.95, 0.5}), 2); // strong crust
  EXPECT_TRUE(setup.use_energy);
}

TEST(RiftingModel, DamageConfinedToSeedZone) {
  RiftingParams p;
  ModelSetup setup = make_rifting_model(p);
  ASSERT_TRUE(setup.initial_damage != nullptr);
  // Inside the seed zone (center x, crust depth, near back face).
  int nonzero = 0;
  for (int t = 0; t < 20; ++t) {
    const Real d = setup.initial_damage({3.0, 0.95, 0.1});
    if (d > 0) ++nonzero;
    EXPECT_LE(d, p.damage_amplitude);
  }
  EXPECT_GT(nonzero, 0);
  EXPECT_DOUBLE_EQ(setup.initial_damage({0.5, 0.95, 0.1}), 0.0); // far in x
  EXPECT_DOUBLE_EQ(setup.initial_damage({3.0, 0.5, 0.1}), 0.0);  // mantle
  EXPECT_DOUBLE_EQ(setup.initial_damage({3.0, 0.95, 2.5}), 0.0); // front
}

TEST(RiftingModel, ExtensionBoundaryValues) {
  RiftingParams p;
  p.mx = 4;
  p.my = 2;
  p.mz = 2;
  p.extension_rate = 1.0;
  ModelSetup setup = make_rifting_model(p);
  Vector u(num_velocity_dofs(setup.mesh), 0.0);
  setup.bc.set_values(u);
  const Index left = setup.mesh.node_index(0, 2, 2);
  const Index right = setup.mesh.node_index(setup.mesh.nx() - 1, 2, 2);
  EXPECT_DOUBLE_EQ(u[3 * left + 0], -1.0);
  EXPECT_DOUBLE_EQ(u[3 * right + 0], 1.0);
}

TEST(RiftingModel, OneTimeStepRuns) {
  RiftingParams p;
  p.mx = 8;
  p.my = 4;
  p.mz = 4;
  ModelSetup setup = make_rifting_model(p);
  PtatinOptions opts = fast_options();
  opts.ale.vertical_axis = 1;
  opts.nonlinear.max_it = 2;
  PtatinContext ctx(std::move(setup), opts);

  StepReport rep = ctx.step(0.005);
  EXPECT_GT(rep.nonlinear.total_krylov_iterations, 0);
  EXPECT_GT(rep.ale.min_detj_after, 0.0);
  // Temperature stays within the imposed bounds.
  for (Index v = 0; v < ctx.mesh().num_vertices(); ++v) {
    EXPECT_GT(ctx.temperature()[v], -0.2);
    EXPECT_LT(ctx.temperature()[v], 1.2);
  }
}

// --- VTK -----------------------------------------------------------------------

TEST(Vtk, StructuredFileWellFormed) {
  SinkerParams p;
  p.mx = p.my = p.mz = 2;
  StructuredMesh mesh =
      StructuredMesh::box(p.mx, p.my, p.mz, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coefficients(mesh, p);
  Vector u(num_velocity_dofs(mesh), 1.0);
  Vector pr(num_pressure_dofs(mesh), 2.0);
  const std::string path = "/tmp/pt_test_structured.vtk";
  write_vtk_structured(path, mesh, u, pr, &coeff);

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "# vtk DataFile Version 3.0");
  std::string all((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("DIMENSIONS 5 5 5"), std::string::npos);
  EXPECT_NE(all.find("VECTORS velocity double"), std::string::npos);
  EXPECT_NE(all.find("SCALARS viscosity double 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, PointsFileWellFormed) {
  MaterialPoints pts;
  pts.add({0.1, 0.2, 0.3}, 1, 0.5);
  pts.add({0.4, 0.5, 0.6}, 0, 0.0);
  const std::string path = "/tmp/pt_test_points.vtk";
  write_vtk_points(path, pts);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string all((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("POINTS 2 double"), std::string::npos);
  EXPECT_NE(all.find("SCALARS lithology int 1"), std::string::npos);
  EXPECT_NE(all.find("SCALARS plastic_strain double 1"), std::string::npos);
  std::remove(path.c_str());
}

} // namespace
} // namespace ptatin
