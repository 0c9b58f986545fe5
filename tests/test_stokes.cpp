// Unit tests for the Stokes discretization: back-end equivalence and the
// back-end factory, operator properties (symmetry, null space, energy
// convergence), coupling blocks, field evaluation, and the Newton
// linearization.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "fem/subdomain_engine.hpp"
#include "rheology/flow_law.hpp"
#include "stokes/blocks.hpp"
#include "stokes/fields.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {
namespace {

StructuredMesh make_deformed_mesh(Index mx, Index my, Index mz) {
  StructuredMesh mesh = StructuredMesh::box(mx, my, mz, {0, 0, 0}, {1, 1, 1});
  mesh.deform([](const Vec3& x) {
    return Vec3{x[0] + 0.04 * std::sin(3 * x[1]) * x[2],
                x[1] + 0.05 * std::cos(2 * x[0]),
                x[2] + 0.03 * x[0] * x[1]};
  });
  return mesh;
}

StructuredMesh make_deformed_mesh(Index m) { return make_deformed_mesh(m, m, m); }

QuadCoefficients make_variable_coeff(const StructuredMesh& mesh,
                                     unsigned seed = 3) {
  QuadCoefficients c(mesh.num_elements());
  Rng rng(seed);
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      c.eta(e, q) = std::pow(10.0, rng.uniform(-2, 2));
      c.rho(e, q) = rng.uniform(0.9, 1.3);
    }
  return c;
}

Vector random_vector(Index n, unsigned seed) {
  Vector v(n);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

// --- back-end equivalence ----------------------------------------------------

class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, AllBackendsAgree) {
  const Index m = GetParam();
  StructuredMesh mesh = make_deformed_mesh(m);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  AsmbViscousOperator asmb(mesh, coeff, &bc);
  MfViscousOperator mf(mesh, coeff, &bc);
  TensorViscousOperator tens(mesh, coeff, &bc);
  TensorCViscousOperator tensc(mesh, coeff, &bc);

  const Index n = num_velocity_dofs(mesh);
  Vector x = random_vector(n, 17);
  Vector ya, yb, yc, yd;
  asmb.apply(x, ya);
  mf.apply(x, yb);
  tens.apply(x, yc);
  tensc.apply(x, yd);

  const Real scale = ya.norm_inf();
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(yb[i], ya[i], 1e-10 * scale);
    EXPECT_NEAR(yc[i], ya[i], 1e-10 * scale);
    EXPECT_NEAR(yd[i], ya[i], 1e-10 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, BackendEquivalence, ::testing::Values(2, 3, 4));

TEST(ViscousOp, SymmetryWithoutBc) {
  StructuredMesh mesh = make_deformed_mesh(3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  MfViscousOperator op(mesh, coeff, nullptr);
  const Index n = num_velocity_dofs(mesh);
  Vector x = random_vector(n, 5), y = random_vector(n, 6);
  Vector ax, ay;
  op.apply(x, ax);
  op.apply(y, ay);
  EXPECT_NEAR(y.dot(ax), x.dot(ay), 1e-10 * std::abs(y.dot(ax)) + 1e-12);
}

TEST(ViscousOp, SymmetryWithBc) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  TensorViscousOperator op(mesh, coeff, &bc);
  const Index n = num_velocity_dofs(mesh);
  Vector x = random_vector(n, 7), y = random_vector(n, 8);
  Vector ax, ay;
  op.apply(x, ax);
  op.apply(y, ay);
  EXPECT_NEAR(y.dot(ax), x.dot(ay), 1e-10 * std::abs(y.dot(ax)) + 1e-12);
}

TEST(ViscousOp, AnnihilatesRigidBodyModes) {
  // D(u) = 0 for u = a + b x (rigid translation + rotation), so A u = 0.
  // Exactness requires affine geometry: with trilinear per-element maps on a
  // deformed mesh, Q2 mid-edge nodes are off the corner map and nodal
  // sampling of a linear field is no longer linear inside the element (only
  // translations stay exact there — tested separately below).
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {2, 1, 1.5});
  QuadCoefficients coeff = make_variable_coeff(mesh);
  TensorViscousOperator op(mesh, coeff, nullptr);
  const Index n = num_velocity_dofs(mesh);

  // Six rigid-body modes.
  for (int mode = 0; mode < 6; ++mode) {
    Vector u(n, 0.0);
    for (Index node = 0; node < mesh.num_nodes(); ++node) {
      const Vec3 x = mesh.node_coord(node);
      Vec3 v{0, 0, 0};
      switch (mode) {
        case 0: v = {1, 0, 0}; break;
        case 1: v = {0, 1, 0}; break;
        case 2: v = {0, 0, 1}; break;
        case 3: v = {-x[1], x[0], 0}; break; // rotation about z
        case 4: v = {0, -x[2], x[1]}; break; // rotation about x
        case 5: v = {x[2], 0, -x[0]}; break; // rotation about y
      }
      for (int c = 0; c < 3; ++c) u[3 * node + c] = v[c];
    }
    Vector au;
    op.apply(u, au);
    EXPECT_LT(au.norm_inf(), 1e-10) << "mode " << mode;
  }
}

TEST(ViscousOp, AnnihilatesTranslationsOnDeformedMesh) {
  // Constant fields are in every element's approximation space, so
  // translations are annihilated even with deformed trilinear geometry.
  StructuredMesh mesh = make_deformed_mesh(3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  TensorViscousOperator op(mesh, coeff, nullptr);
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index node = 0; node < mesh.num_nodes(); ++node) {
    u[3 * node + 0] = 1.0;
    u[3 * node + 1] = -2.0;
    u[3 * node + 2] = 0.7;
  }
  Vector au;
  op.apply(u, au);
  EXPECT_LT(au.norm_inf(), 1e-10);
}

TEST(ViscousOp, PositiveSemidefinite) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  MfViscousOperator op(mesh, coeff, nullptr);
  const Index n = num_velocity_dofs(mesh);
  for (unsigned s = 0; s < 5; ++s) {
    Vector x = random_vector(n, 100 + s);
    Vector ax;
    op.apply(x, ax);
    EXPECT_GE(x.dot(ax), -1e-10);
  }
}

TEST(ViscousOp, DiagonalMatchesAssembled) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  AsmbViscousOperator asmb(mesh, coeff, &bc);
  MfViscousOperator mf(mesh, coeff, &bc);
  Vector da = asmb.diagonal();
  Vector dm = mf.diagonal();
  const Real scale = da.norm_inf();
  for (Index i = 0; i < da.size(); ++i)
    EXPECT_NEAR(dm[i], da[i], 1e-11 * scale);
}

TEST(ViscousOp, MaskedApplyIsIdentityOnConstrainedDofs) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  TensorViscousOperator op(mesh, coeff, &bc);
  Vector x = random_vector(num_velocity_dofs(mesh), 9);
  Vector y;
  op.apply(x, y);
  for (Index dof : bc.constrained_dofs()) EXPECT_DOUBLE_EQ(y[dof], x[dof]);
}

TEST(ViscousOp, ViscosityScalesLinearly) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients c1(mesh.num_elements()), c2(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      c1.eta(e, q) = 1.0;
      c2.eta(e, q) = 7.5;
    }
  TensorViscousOperator op1(mesh, c1, nullptr), op2(mesh, c2, nullptr);
  Vector x = random_vector(num_velocity_dofs(mesh), 10);
  Vector y1, y2;
  op1.apply(x, y1);
  op2.apply(x, y2);
  for (Index i = 0; i < y1.size(); ++i) EXPECT_NEAR(y2[i], 7.5 * y1[i], 1e-9);
}

// The viscous bilinear form is a(u,v) = \int 2 eta D(u):D(v). For
// u = (sin(pi x) sin(pi y) sin(pi z), 0, 0) on [0,1]^3 with eta = 1:
// a(u,u) = \int |grad f|^2 + (df/dx)^2 = 3 pi^2/8 + pi^2/8 = pi^2/2.
// Interpolating u onto the Q2 nodes and evaluating x^T A x must converge to
// that value at O(h^4) as the mesh refines (measured rate 3.97 from m = 4 to
// m = 8).
TEST(ViscousOp, Q2EnergyConvergesAtFourthOrder) {
  const Real exact = 0.5 * M_PI * M_PI;
  auto energy_error = [&](Index m) {
    StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
    QuadCoefficients coeff(mesh.num_elements());
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        coeff.eta(e, q) = 1.0;
        coeff.rho(e, q) = 1.0;
      }
    TensorViscousOperator op(mesh, coeff, nullptr);
    Vector u(op.rows(), 0.0);
    for (Index n = 0; n < mesh.num_nodes(); ++n) {
      const Vec3 x = mesh.node_coord(n);
      u[velocity_dof(n, 0)] = std::sin(M_PI * x[0]) * std::sin(M_PI * x[1]) *
                              std::sin(M_PI * x[2]);
    }
    Vector au(u.size());
    op.apply(u, au);
    return std::abs(u.dot(au) - exact);
  };
  const Real e4 = energy_error(4);
  const Real e8 = energy_error(8);
  EXPECT_LT(e8, e4);
  const Real rate = std::log2(e4 / e8);
  EXPECT_GE(rate, Real(3.5)) << "e4=" << e4 << " e8=" << e8;
}

// --- the back-end factory -----------------------------------------------------

TEST(ViscousOp, BackendTokensRoundTripThroughParse) {
  for (FineOperatorType t :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor})
    EXPECT_EQ(parse_fine_operator(fine_operator_token(t)), t);
  EXPECT_THROW(parse_fine_operator("tensor"), Error);
  // TensC keeps its label but is no -backend.
  EXPECT_THROW(parse_fine_operator("tensc"), Error);
}

TEST(ViscousOp, FactoryMatchesDirectConstructionBitwise) {
  StructuredMesh mesh = make_deformed_mesh(5, 3, 4);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  const Vector x = random_vector(num_velocity_dofs(mesh), 31);
  Vector y_fac(x.size()), y_dir(x.size());

  auto direct = [&](FineOperatorType t,
                    int w) -> std::unique_ptr<ViscousOperatorBase> {
    if (t == FineOperatorType::kAssembled)
      return std::make_unique<AsmbViscousOperator>(mesh, coeff, &bc);
    if (t == FineOperatorType::kMatrixFree)
      return std::make_unique<MfViscousOperator>(mesh, coeff, &bc, w);
    if (t == FineOperatorType::kTensor)
      return std::make_unique<TensorViscousOperator>(mesh, coeff, &bc, w);
    return std::make_unique<TensorCViscousOperator>(mesh, coeff, &bc, w);
  };

  for (FineOperatorType t :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor, FineOperatorType::kTensorC})
    for (int w : {0, 8}) {
      auto fac_op = make_viscous_backend(KernelSpec{.type = t, .batch_width = w},
                                         mesh, coeff, &bc);
      auto dir_op = direct(t, w);
      fac_op->apply(x, y_fac);
      dir_op->apply(x, y_dir);
      for (Index i = 0; i < x.size(); ++i)
        ASSERT_EQ(y_fac[i], y_dir[i])
            << fac_op->name() << " w=" << w << " dof " << i;
    }
}

TEST(ViscousOp, FactoryWiresTheSubdomainEngine) {
  StructuredMesh mesh = make_deformed_mesh(4);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  SubdomainEngine eng(mesh, 2, 1, 1);
  const Vector x = random_vector(num_velocity_dofs(mesh), 37);
  Vector y_fac(x.size()), y_dir(x.size());

  const KernelSpec spec{.type = FineOperatorType::kTensor, .engine = &eng};
  auto fac_op = make_viscous_backend(spec, mesh, coeff, &bc);
  TensorViscousOperator dir_op(mesh, coeff, &bc, 0, &eng);
  fac_op->apply(x, y_fac);
  dir_op.apply(x, y_dir);
  for (Index i = 0; i < x.size(); ++i) ASSERT_EQ(y_fac[i], y_dir[i]);
  EXPECT_EQ(fac_op->subdomain_engine(), &eng);
  EXPECT_EQ(kernel_label(spec), "tens/b0/subdomain");
  EXPECT_EQ(kernel_label({.type = FineOperatorType::kMatrixFree,
                          .batch_width = 8}),
            "mf/b8/global");
}

TEST(ViscousOp, FactoryRejectsUnsupportedBatchWidthOnEveryBackend) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  for (FineOperatorType t :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor, FineOperatorType::kTensorC}) {
    try {
      make_viscous_backend(KernelSpec{.type = t, .batch_width = 3}, mesh,
                           coeff, &bc);
      FAIL() << fine_operator_token(t) << ": expected a typed error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string(fine_operator_token(t)) + "/b3/global"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("batch width must be 0 (scalar) or 8"),
                std::string::npos)
          << msg;
    }
  }
}

// --- Newton linearization -----------------------------------------------------

TEST(Newton, OperatorMatchesFiniteDifferenceOfResidual) {
  // Nonlinear residual r(u) = A(eta(u)) u with a power-law viscosity. The
  // Newton operator (Picard + eta' D0 x D0 term) must equal the directional
  // derivative dr/du . v.
  StructuredMesh mesh = make_deformed_mesh(2);
  ArrheniusParams ap;
  ap.eta0 = 1.0;
  ap.n = 3.0;
  ap.eps0 = 1.0;
  ap.eta_min = 1e-12;
  ap.eta_max = 1e12;
  ArrheniusLaw law(ap);

  const Index n = num_velocity_dofs(mesh);
  Vector u = random_vector(n, 11);
  Vector v = random_vector(n, 12);

  auto residual = [&](const Vector& w, Vector& r) {
    std::vector<StrainRateSample> s;
    evaluate_strain_rates(mesh, w, s);
    QuadCoefficients c(mesh.num_elements());
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        RheologyState st;
        st.j2 = s[e * kQuadPerEl + q].j2;
        c.eta(e, q) = law.viscosity(st).eta;
      }
    MfViscousOperator op(mesh, c, nullptr);
    op.apply(w, r);
  };

  // Newton operator at u.
  std::vector<StrainRateSample> s;
  evaluate_strain_rates(mesh, u, s);
  QuadCoefficients c(mesh.num_elements());
  c.allocate_newton();
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      const auto& sq = s[e * kQuadPerEl + q];
      RheologyState st;
      st.j2 = sq.j2;
      const auto ve = law.viscosity(st);
      c.eta(e, q) = ve.eta;
      c.deta(e, q) = ve.deta_dj2;
      for (int t = 0; t < kSymSize; ++t) c.d0(e, q)[t] = sq.d[t];
    }
  MfViscousOperator jop(mesh, c, nullptr);
  Vector jv;
  jop.apply(v, jv, /*newton=*/true);

  // Central finite difference of the residual.
  const Real h = 1e-6;
  Vector up, um, rp, rm;
  up.copy_from(u);
  up.axpy(h, v);
  um.copy_from(u);
  um.axpy(-h, v);
  residual(up, rp);
  residual(um, rm);
  rp.axpy(-1.0, rm);
  rp.scale(Real(1) / (2 * h));

  const Real scale = jv.norm_inf();
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(rp[i], jv[i], 2e-4 * scale);
}

TEST(Newton, TensorBackendMatchesMf) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients c = make_variable_coeff(mesh);
  c.allocate_newton();
  Rng rng(13);
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      c.deta(e, q) = -rng.uniform(0, 0.5);
      for (int t = 0; t < kSymSize; ++t)
        c.d0(e, q)[t] = rng.uniform(-1, 1);
    }
  MfViscousOperator mf(mesh, c, nullptr);
  TensorViscousOperator tens(mesh, c, nullptr);
  Vector x = random_vector(num_velocity_dofs(mesh), 14);
  Vector y1, y2;
  mf.apply(x, y1, /*newton=*/true);
  tens.apply(x, y2, /*newton=*/true);
  const Real scale = y1.norm_inf();
  for (Index i = 0; i < y1.size(); ++i) EXPECT_NEAR(y2[i], y1[i], 1e-10 * scale);
}

// --- coupling blocks ---------------------------------------------------------

TEST(GradientBlock, DiscreteDivergenceIdentity) {
  // u^T B p = -int p div u. For u = (x, 0, 0) (div = 1) and p = 1 in every
  // element, the right side is -|Omega|.
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  CsrMatrix B = assemble_gradient_block(mesh);

  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index node = 0; node < mesh.num_nodes(); ++node)
    u[3 * node + 0] = mesh.node_coord(node)[0];
  Vector p(num_pressure_dofs(mesh), 0.0);
  for (Index e = 0; e < mesh.num_elements(); ++e) p[4 * e] = 1.0;

  Vector Bp;
  B.mult(p, Bp);
  EXPECT_NEAR(u.dot(Bp), -1.0, 1e-12);
}

TEST(GradientBlock, DivergenceOfConstantFieldIsZero) {
  // B^T u = 0 for constant u: the divergence of a constant field vanishes
  // (interior of the domain; the identity holds in the weak sense because
  // psi is discontinuous and integrates element-local).
  StructuredMesh mesh = make_deformed_mesh(2);
  CsrMatrix B = assemble_gradient_block(mesh);
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index node = 0; node < mesh.num_nodes(); ++node) {
    u[3 * node + 0] = 2.0;
    u[3 * node + 1] = -1.0;
    u[3 * node + 2] = 0.5;
  }
  Vector btu;
  B.mult_transpose(u, btu);
  EXPECT_LT(btu.norm_inf(), 1e-11);
}

TEST(GradientBlock, LinearFieldDivergence) {
  // For u = (a x, b y, c z), the weak divergence against psi_0 = 1 on each
  // element equals -(a+b+c) * |element|.
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  CsrMatrix B = assemble_gradient_block(mesh);
  Vector u(num_velocity_dofs(mesh), 0.0);
  const Real a = 1.0, b = 2.0, c = -0.5;
  for (Index node = 0; node < mesh.num_nodes(); ++node) {
    const Vec3 x = mesh.node_coord(node);
    u[3 * node + 0] = a * x[0];
    u[3 * node + 1] = b * x[1];
    u[3 * node + 2] = c * x[2];
  }
  Vector btu;
  B.mult_transpose(u, btu);
  const Real elvol = 1.0 / 8.0;
  for (Index e = 0; e < mesh.num_elements(); ++e)
    EXPECT_NEAR(btu[4 * e], -(a + b + c) * elvol, 1e-13);
}

TEST(BodyForce, TotalForceMatchesWeight) {
  // sum_i f[(i,z)] = int rho g_z dV (partition of unity): the net force is
  // the weight, pointing down.
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) coeff.rho(e, q) = 2.0;
  const Vec3 g{0, 0, -9.8};
  Vector f = assemble_body_force(mesh, coeff, g);
  Real fz = 0.0;
  for (Index node = 0; node < mesh.num_nodes(); ++node) fz += f[3 * node + 2];
  EXPECT_NEAR(fz, -2.0 * 9.8 * mesh.volume(), 1e-10);
}

TEST(PressureMass, ApplyInvertsM) {
  StructuredMesh mesh = make_deformed_mesh(2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  PressureMassSchur mp(mesh, coeff);
  Vector x = random_vector(mp.size(), 15), y, z;
  mp.mult(x, y);
  mp.apply(y, z);
  for (Index i = 0; i < x.size(); ++i) EXPECT_NEAR(z[i], x[i], 1e-9);
}

TEST(PressureMass, ScalesInverselyWithViscosity) {
  // M ~ 1/eta, so for constant eta and p = (1,0,0,0) per element the
  // (0,0) block entry is |element| / eta.
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) coeff.eta(e, q) = 4.0;
  PressureMassSchur mp(mesh, coeff);
  Vector x(mp.size(), 0.0), y;
  x[0] = 1.0; // first mode of element 0
  mp.mult(x, y);
  EXPECT_NEAR(y[0], (1.0 / 8.0) / 4.0, 1e-13);
}

// --- field evaluation ----------------------------------------------------------

TEST(Fields, StrainRateOfLinearField) {
  // u = (y, 0, 0): D = [[0, 1/2, 0], [1/2, 0, 0], [0,0,0]], j2 = 1/4.
  // Affine mesh: linear fields are exactly represented (cf. geometry note in
  // AnnihilatesRigidBodyModes).
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 2, 1});
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index node = 0; node < mesh.num_nodes(); ++node)
    u[3 * node + 0] = mesh.node_coord(node)[1];
  std::vector<StrainRateSample> s;
  evaluate_strain_rates(mesh, u, s);
  for (const auto& sq : s) {
    EXPECT_NEAR(sq.d[3], 0.5, 1e-11);
    EXPECT_NEAR(sq.d[0], 0.0, 1e-11);
    EXPECT_NEAR(sq.j2, 0.25, 1e-11);
  }
}

TEST(Fields, PressureEvaluationRoundTrip) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  // p = 3 + x in physical coordinates, expressed per element.
  Vector p(num_pressure_dofs(mesh), 0.0);
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    const P1Frame f = element_p1_frame(mesh, e);
    p[4 * e + 0] = 3.0 + f.center[0];
    p[4 * e + 1] = 1.0 / f.scale[0];
  }
  std::vector<Real> pq;
  evaluate_pressure_at_quadrature(mesh, p, pq);
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q)
      EXPECT_NEAR(pq[e * kQuadPerEl + q], 3.0 + g.xq[q][0], 1e-12);
  }
}

TEST(Fields, VelocityInterpolationAtNodes) {
  StructuredMesh mesh = StructuredMesh::box(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  Vector u = random_vector(num_velocity_dofs(mesh), 16);
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(3, nodes);
  // Center node of the element is local index 13 => xi = (0,0,0).
  const Vec3 v = interpolate_velocity(mesh, u, 3, {0, 0, 0});
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(v[c], u[3 * nodes[13] + c], 1e-13);
}

TEST(Fields, DivergenceL2OfSolenoidalField) {
  StructuredMesh mesh = StructuredMesh::box(3, 3, 3, {0, 0, 0}, {1, 1, 1});
  // u = (y z, x z, x y) is divergence free.
  Vector u(num_velocity_dofs(mesh), 0.0);
  for (Index node = 0; node < mesh.num_nodes(); ++node) {
    const Vec3 x = mesh.node_coord(node);
    u[3 * node + 0] = x[1] * x[2];
    u[3 * node + 1] = x[0] * x[2];
    u[3 * node + 2] = x[0] * x[1];
  }
  EXPECT_LT(divergence_l2(mesh, u), 1e-11);
}

} // namespace
} // namespace ptatin
