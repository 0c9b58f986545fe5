// Integration tests for the top-level pTatin3D driver: model selection and
// setup, coefficient pipeline and the reuse of its point evaluations, full
// time steps on the sinker and rifting models, and VTK output.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/muladd.hpp"
#include "obs/metrics.hpp"
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
  const char* sinker[] = {"prog", "-m", "4"};
  const ModelSetup s = build_model_from_options(Options::from_args(3, sinker));
  EXPECT_EQ(s.mesh.num_elements(), 64);
  EXPECT_EQ(s.vertical_axis, 2);
  const char* rifting[] = {"prog", "-model", "rifting", "-mx", "4",
                           "-my",  "2",      "-mz",     "2"};
  const ModelSetup r =
      build_model_from_options(Options::from_args(9, rifting));
  EXPECT_EQ(r.mesh.num_elements(), 16);
  EXPECT_EQ(r.vertical_axis, 1);
  for (const char* model : {"volcano", "subduction"}) {
    const char* argv[] = {"prog", "-model", model};
    EXPECT_THROW(build_model_from_options(Options::from_args(3, argv)), Error)
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
  PointEvaluation().update(ctx.mesh(), ctx.setup().materials, ctx.points(), u,
                           pr, nullptr, false, nullptr, coeff);
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
  PointEvaluation().update(ctx.mesh(), ctx.setup().materials, ctx.points(), u,
                           pr, nullptr, true, nullptr, coeff);
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

// --- point evaluation reuse ---------------------------------------------------

long long point_evaluations() {
  return obs::MetricsRegistry::instance()
      .counter("mpm.point_evaluations")
      .value();
}

bool same_bits(const std::vector<Real>& a, const std::vector<Real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(Real) * a.size()) == 0;
}

/// Bitwise-equal eta and rho, and deta and D0 when both hold them, at every
/// quadrature point.
bool same_coefficients(const QuadCoefficients& a, const QuadCoefficients& b) {
  if (a.num_elements() != b.num_elements() ||
      a.has_newton() != b.has_newton())
    return false;
  std::vector<Real> va, vb;
  for (Index e = 0; e < a.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      va.insert(va.end(), {a.eta(e, q), a.rho(e, q)});
      vb.insert(vb.end(), {b.eta(e, q), b.rho(e, q)});
      if (!a.has_newton()) continue;
      va.push_back(a.deta(e, q));
      vb.push_back(b.deta(e, q));
      va.insert(va.end(), a.d0(e, q), a.d0(e, q) + kSymSize);
      vb.insert(vb.end(), b.d0(e, q), b.d0(e, q) + kSymSize);
    }
  return same_bits(va, vb);
}

/// The flow law's view of point i at (u, p): what a full evaluation computes.
ViscosityEval reference_viscosity(const PtatinContext& ctx,
                                  const MaterialPoints& pts, Index i,
                                  Real* j2 = nullptr) {
  const StructuredMesh& mesh = ctx.mesh();
  const Index e = pts.element(i);
  RheologyState st;
  st.j2 = strain_rate_at_point(mesh, ctx.velocity(), e, pts.local_coord(i)).j2;
  st.pressure = pressure_at_point(mesh, ctx.pressure(), e, pts.position(i));
  st.temperature = interpolate_vertex_field(mesh, ctx.temperature(), e,
                                            pts.local_coord(i));
  st.plastic_strain = pts.plastic_strain(i);
  if (j2 != nullptr) *j2 = st.j2;
  return ctx.setup().materials.law(pts.lithology(i)).viscosity(st);
}

/// The plastic-strain stage as it was before the evaluation was kept: it
/// re-evaluates every point at the solution. Returns the yielded count. The
/// update eps_p + sqrt(J2) dt is one pt_muladd, as the library spells it.
Index reference_plastic_strain(const PtatinContext& ctx, Real dt,
                               MaterialPoints& pts) {
  Index count = 0;
  for (Index i = 0; i < pts.size(); ++i) {
    if (pts.element(i) < 0) continue;
    Real j2 = 0;
    if (!reference_viscosity(ctx, pts, i, &j2).yielded) continue;
    pts.plastic_strain(i) =
        pt_muladd(std::sqrt(std::max(j2, Real(0))), dt, pts.plastic_strain(i));
    ++count;
  }
  return count;
}

/// Line-search trials behind one accepted step length (halvings from 1,
/// capped when the search ran out).
int line_search_trials(Real lambda, int line_search_max) {
  return std::min(line_search_max + 1,
                  int(std::lround(std::log2(1 / lambda))) + 1);
}

using Shape = std::array<Index, 3>;

class RiftingEvaluation : public ::testing::TestWithParam<Shape> {
protected:
  static constexpr Real kDt = 0.005;

  /// A 8x4x4 rifting model after one step: extension has made the damaged
  /// crust yield.
  std::unique_ptr<PtatinContext> stepped_rifting() {
    RiftingParams p;
    p.mx = 8;
    p.my = 4;
    p.mz = 4;
    PtatinOptions opts = fast_options();
    opts.ale.vertical_axis = 1;
    opts.decomp = GetParam();
    auto ctx =
        std::make_unique<PtatinContext>(make_rifting_model(p), opts);
    ctx->step(kDt);
    return ctx;
  }

  /// Update `coeff` at the context's (u, p) through `evaluation`.
  static void update(const PtatinContext& ctx, PointEvaluation& evaluation,
                     bool newton_terms, QuadCoefficients& coeff) {
    evaluation.update(ctx.mesh(), ctx.setup().materials, ctx.points(),
                      ctx.velocity(), ctx.pressure(), &ctx.temperature(),
                      newton_terms, ctx.subdomain_engine(), coeff);
  }

  /// Update `coeff` at the context's (u, p) through a fresh evaluation.
  static void update_fresh(const PtatinContext& ctx, bool newton_terms,
                           QuadCoefficients& coeff) {
    PointEvaluation fresh;
    update(ctx, fresh, newton_terms, coeff);
  }
};

TEST_P(RiftingEvaluation, ReusedCoefficientsMatchAFreshEvaluationBitwise) {
  const auto ctx = stepped_rifting();
  const Index nel = ctx->mesh().num_elements();

  QuadCoefficients picard_fresh(nel), newton_fresh(nel);
  update_fresh(*ctx, false, picard_fresh);
  update_fresh(*ctx, true, newton_fresh);

  PointEvaluation evaluation;
  QuadCoefficients first(nel), picard_reused(nel), newton_reused(nel);
  const long long before = point_evaluations();
  update(*ctx, evaluation, false, first);
  ASSERT_TRUE(evaluation.holds(ctx->velocity(), ctx->pressure()));
  update(*ctx, evaluation, false, picard_reused);
  update(*ctx, evaluation, true, newton_reused);
  EXPECT_EQ(point_evaluations() - before, 1);

  EXPECT_TRUE(same_coefficients(first, picard_fresh));
  EXPECT_TRUE(same_coefficients(picard_reused, picard_fresh));
  ASSERT_TRUE(newton_reused.has_newton());
  EXPECT_TRUE(same_coefficients(newton_reused, newton_fresh));
  EXPECT_LT(newton_fresh.eta_min(), newton_fresh.eta_max());
}

TEST_P(RiftingEvaluation, PlasticStrainFromTheHeldEvaluationMatchesAReEvaluation) {
  const auto ctx = stepped_rifting();
  PointEvaluation evaluation;
  QuadCoefficients coeff(ctx->mesh().num_elements());
  update(*ctx, evaluation, false, coeff);

  MaterialPoints expected = ctx->points();
  MaterialPoints got = ctx->points();
  const Index expected_count = reference_plastic_strain(*ctx, kDt, expected);
  const long long before = point_evaluations();
  const Index count = evaluation.accumulate_plastic_strain(
      ctx->velocity(), ctx->pressure(), kDt, got);
  EXPECT_EQ(point_evaluations(), before);
  EXPECT_GT(count, 0) << "no point yields: the check would be vacuous";
  EXPECT_EQ(count, expected_count);
  ASSERT_EQ(got.size(), expected.size());
  std::vector<Real> eg, ee;
  for (Index i = 0; i < got.size(); ++i) {
    eg.push_back(got.plastic_strain(i));
    ee.push_back(expected.plastic_strain(i));
  }
  EXPECT_TRUE(same_bits(eg, ee));

  // The evaluation belongs to one (u, p): any other state is refused.
  Vector u = ctx->velocity();
  u[0] = std::nextafter(u[0], Real(1));
  EXPECT_THROW(
      evaluation.accumulate_plastic_strain(u, ctx->pressure(), kDt, got),
      Error);
}

TEST_P(RiftingEvaluation, StepEvaluatesEachNewStateOnce) {
  const auto ctx = stepped_rifting();
  const int ls_max = fast_options().nonlinear.line_search_max;
  const long long before = point_evaluations();
  const StepReport rep = ctx->step(kDt);

  // The pre-solve evaluates; the first residual and every Newton-step
  // refresh reuse the state the previous call evaluated; each line-search
  // trial is a new state; the plastic stage reuses the solution's.
  long long expected = 1;
  for (Real lambda : rep.nonlinear.step_lengths)
    expected += line_search_trials(lambda, ls_max);
  EXPECT_GE(rep.nonlinear.iterations, 2);
  EXPECT_GT(rep.yielded_points, 0);
  EXPECT_EQ(point_evaluations() - before, expected);
}

TEST_P(RiftingEvaluation, UpdaterOutsideStepEvaluatesEveryCall) {
  const auto ctx = stepped_rifting();
  const Index nel = ctx->mesh().num_elements();

  // The least softened yielded point: softening it fully lowers its eta.
  const MaterialPoints& pts = std::as_const(*ctx).points();
  Index target = -1;
  for (Index i = 0; i < pts.size(); ++i)
    if (pts.element(i) >= 0 && reference_viscosity(*ctx, pts, i).yielded &&
        (target < 0 || pts.plastic_strain(i) < pts.plastic_strain(target)))
      target = i;
  ASSERT_GE(target, 0);
  ASSERT_LT(pts.plastic_strain(target), 0.5);

  const CoefficientUpdater updater = ctx->coefficient_updater();
  QuadCoefficients first(nel), second(nel), expected(nel);
  const long long before = point_evaluations();
  updater(ctx->velocity(), ctx->pressure(), false, first);
  ctx->points().plastic_strain(target) = 1.0;
  updater(ctx->velocity(), ctx->pressure(), false, second);
  EXPECT_EQ(point_evaluations() - before, 2);

  update_fresh(*ctx, false, expected);
  EXPECT_TRUE(same_coefficients(second, expected));
  EXPECT_FALSE(same_coefficients(second, first));
}

INSTANTIATE_TEST_SUITE_P(Decomp, RiftingEvaluation,
                         ::testing::Values(Shape{1, 1, 1}, Shape{2, 2, 1}),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return std::to_string(info.param[0]) + "x" +
                                  std::to_string(info.param[1]) + "x" +
                                  std::to_string(info.param[2]);
                         });

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
