// Kernel-dispatch registry tests (fem/kernel_registry.hpp): the resolution
// table over the registered (backend, order, width, mode) keys, the generic-
// order fallback, the nearest-key diagnosis for unknown keys, bitwise
// equivalence of registry-dispatched k=2 operators with direct construction,
// the Qk (k = 3, 4) tensor kernels (batched == scalar bitwise, tensor ==
// generic fallback to rounding, manufactured-solution convergence), and the
// deprecated-field shims on the option structs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "fem/dofmap.hpp"
#include "fem/kernel_registry.hpp"
#include "fem/subdomain_engine.hpp"
#include "mg/gmg.hpp"
#include "ptatin/config.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"
#include "stokes/viscous_ops.hpp"
#include "stokes/viscous_qk.hpp"

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

Real max_rel_diff(const Vector& a, const Vector& b) {
  Real scale = 0, diff = 0;
  for (Index i = 0; i < a.size(); ++i) {
    scale = std::max(scale, std::abs(a[i]));
    diff = std::max(diff, std::abs(a[i] - b[i]));
  }
  return scale > 0 ? diff / scale : diff;
}

std::set<std::string> registered_key_strings() {
  ensure_qk_kernels_registered();
  std::set<std::string> out;
  for (const KernelKey& k : KernelRegistry::instance().keys())
    out.insert(k.str());
  return out;
}

KernelSpec spec_of(FineOperatorType t, int order, int width,
                   const SubdomainEngine* eng = nullptr) {
  KernelSpec s;
  s.type = t;
  s.order = order;
  s.batch_width = width;
  s.engine = eng;
  return s;
}

// --- resolution table --------------------------------------------------------

TEST(KernelRegistry, ResolutionTableCoversHotCombinations) {
  const std::set<std::string> keys = registered_key_strings();
  // k = 2: every back-end at every width, both engine modes.
  for (const char* t : {"asmb", "mf", "tens", "tensc"})
    for (int w : {0, 4, 8})
      for (const char* mode : {"global", "subdomain"}) {
        const std::string key = std::string(t) + "/k2/b" + std::to_string(w) +
                                "/" + mode;
        EXPECT_TRUE(keys.count(key)) << "missing specialization " << key;
      }
  // k = 3, 4: sum-factorized tensor applies, global mode, every width.
  for (int k : {3, 4})
    for (int w : {0, 4, 8}) {
      const std::string key =
          "tens/k" + std::to_string(k) + "/b" + std::to_string(w) + "/global";
      EXPECT_TRUE(keys.count(key)) << "missing specialization " << key;
    }
  // No accidental Qk subdomain or assembled entries.
  EXPECT_FALSE(keys.count("tens/k3/b0/subdomain"));
  EXPECT_FALSE(keys.count("asmb/k3/b0/global"));
}

TEST(KernelRegistry, KeyStringsRenderCanonically) {
  KernelKey k;
  k.type = FineOperatorType::kTensor;
  k.order = 2;
  k.batch_width = 8;
  k.mode = EngineMode::kGlobal;
  EXPECT_EQ(k.str(), "tens/k2/b8/global");
  k.type = FineOperatorType::kMatrixFree;
  k.order = 4;
  k.batch_width = 0;
  k.mode = EngineMode::kSubdomain;
  EXPECT_EQ(k.str(), "mf/k4/b0/subdomain");
}

TEST(KernelRegistry, TokensRoundTripThroughParse) {
  for (FineOperatorType t :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor, FineOperatorType::kTensorC})
    EXPECT_EQ(parse_fine_operator(fine_operator_token(t)), t);
  EXPECT_THROW(parse_fine_operator("tensor"), Error);
}

TEST(KernelRegistry, ExactKeysResolveAsSpecialized) {
  ensure_qk_kernels_registered();
  for (FineOperatorType t :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor, FineOperatorType::kTensorC})
    for (int w : {0, 4, 8}) {
      const KernelResolution r =
          KernelRegistry::instance().resolve(spec_of(t, 2, w));
      EXPECT_TRUE(r.specialized) << fine_operator_token(t) << " b" << w;
      EXPECT_EQ(r.key.order, 2);
    }
  for (int k : {3, 4}) {
    const KernelResolution r = KernelRegistry::instance().resolve(
        spec_of(FineOperatorType::kTensor, k, 8));
    EXPECT_TRUE(r.specialized);
  }
}

// --- fallback ----------------------------------------------------------------

TEST(KernelRegistry, GenericFallbackServesUnspecializedOrders) {
  ensure_qk_kernels_registered();
  // mf/k3 has no exact entry: the generic-order fallback must serve it.
  const KernelResolution r = KernelRegistry::instance().resolve(
      spec_of(FineOperatorType::kMatrixFree, 3, 0));
  EXPECT_FALSE(r.specialized);
  EXPECT_EQ(r.key.order, 0); // wildcard marker

  StructuredMesh mesh = make_deformed_mesh(3, 3, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  auto op = r.factory(spec_of(FineOperatorType::kMatrixFree, 3, 0), mesh,
                      coeff, nullptr);
  ASSERT_NE(op, nullptr);
  EXPECT_NE(op->name().find("QkGen"), std::string::npos) << op->name();
  EXPECT_EQ(op->rows(), qk_num_velocity_dofs(mesh, 3));
}

TEST(KernelRegistry, OrderTwoNeverFallsThroughToTheGenericKernel) {
  // The fallback ranges deliberately start at k = 3: every k = 2 spec must
  // resolve to a digest-pinned Q2 specialization.
  ensure_qk_kernels_registered();
  for (FineOperatorType t :
       {FineOperatorType::kAssembled, FineOperatorType::kMatrixFree,
        FineOperatorType::kTensor, FineOperatorType::kTensorC})
    EXPECT_TRUE(KernelRegistry::instance().resolve(spec_of(t, 2, 0)).specialized);
  EXPECT_THROW(KernelRegistry::instance().resolve_fallback(
                   spec_of(FineOperatorType::kTensor, 2, 0)),
               Error);
}

TEST(KernelRegistry, ResolveFallbackSkipsTheSpecialization) {
  ensure_qk_kernels_registered();
  StructuredMesh mesh = make_deformed_mesh(3, 3, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  const KernelSpec s = spec_of(FineOperatorType::kTensor, 3, 0);
  auto spec_op = KernelRegistry::instance().resolve(s).factory(
      s, mesh, coeff, nullptr);
  auto fb_op = KernelRegistry::instance().resolve_fallback(s).factory(
      s, mesh, coeff, nullptr);
  EXPECT_NE(spec_op->name(), fb_op->name());
  EXPECT_NE(fb_op->name().find("QkGen"), std::string::npos);
}

// --- unknown keys ------------------------------------------------------------

TEST(KernelRegistry, UnknownKeyDiagnosisNamesNearestKeys) {
  ensure_qk_kernels_registered();
  StructuredMesh mesh = make_deformed_mesh(3, 3, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  try {
    // asmb exists only at k = 2.
    make_viscous_backend(spec_of(FineOperatorType::kAssembled, 3, 0), mesh,
                         coeff, nullptr);
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no kernel registered for asmb/k3/b0/global"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("nearest registered keys:"), std::string::npos) << msg;
    // The same-backend k=2 key must rank among the suggestions.
    EXPECT_NE(msg.find("asmb/k2/b0/global"), std::string::npos) << msg;
    // Fallback coverage is part of the diagnosis.
    EXPECT_NE(msg.find("generic-order fallbacks:"), std::string::npos) << msg;
  }
  // Orders outside every fallback range miss too.
  EXPECT_THROW(KernelRegistry::instance().resolve(
                   spec_of(FineOperatorType::kTensor, 7, 0)),
               Error);
  EXPECT_FALSE(KernelRegistry::instance().is_registered(
      spec_of(FineOperatorType::kTensorC, 3, 0)));
}

// --- k = 2: registry dispatch is construction-path-invariant ----------------

TEST(KernelRegistry, RegistryDispatchedQ2MatchesDirectConstructionBitwise) {
  StructuredMesh mesh = make_deformed_mesh(5, 3, 4);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  const Vector x = random_vector(num_velocity_dofs(mesh), 31);
  Vector y_reg(x.size()), y_dir(x.size());

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
    for (int w : {0, 4, 8}) {
      auto reg_op = make_viscous_backend(spec_of(t, 2, w), mesh, coeff, &bc);
      auto dir_op = direct(t, w);
      reg_op->apply(x, y_reg);
      dir_op->apply(x, y_dir);
      for (Index i = 0; i < x.size(); ++i)
        ASSERT_EQ(y_reg[i], y_dir[i])
            << reg_op->name() << " w=" << w << " dof " << i;
    }
}

TEST(KernelRegistry, SubdomainModeDispatchMatchesExplicitEngineWiring) {
  StructuredMesh mesh = make_deformed_mesh(4, 4, 4);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  SubdomainEngine eng(mesh, 2, 1, 1);
  const Vector x = random_vector(num_velocity_dofs(mesh), 37);
  Vector y_reg(x.size()), y_dir(x.size());

  auto reg_op = make_viscous_backend(
      spec_of(FineOperatorType::kTensor, 2, 0, &eng), mesh, coeff, &bc);
  TensorViscousOperator dir_op(mesh, coeff, &bc, 0);
  dir_op.set_subdomain_engine(&eng);
  reg_op->apply(x, y_reg);
  dir_op.apply(x, y_dir);
  for (Index i = 0; i < x.size(); ++i) ASSERT_EQ(y_reg[i], y_dir[i]);
  EXPECT_EQ(reg_op->subdomain_engine(), &eng);
}

// --- Qk kernels --------------------------------------------------------------

TEST(QkKernels, BatchedMatchesScalarBitwiseIncludingRaggedTails) {
  // 5x3x2: every direction leaves ragged color tails at W = 4 and 8.
  StructuredMesh mesh = make_deformed_mesh(5, 3, 2);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  for (int k : {3, 4}) {
    auto scalar =
        make_viscous_backend(spec_of(FineOperatorType::kTensor, k, 0), mesh,
                             coeff, nullptr);
    const Vector x = random_vector(scalar->rows(), 41);
    Vector y0(x.size()), y(x.size());
    scalar->apply(x, y0);
    for (int w : {4, 8}) {
      auto batched =
          make_viscous_backend(spec_of(FineOperatorType::kTensor, k, w), mesh,
                               coeff, nullptr);
      batched->apply(x, y);
      for (Index i = 0; i < x.size(); ++i)
        ASSERT_EQ(y[i], y0[i]) << "k=" << k << " w=" << w << " dof " << i;
    }
  }
}

TEST(QkKernels, TensorAgreesWithGenericFallbackToRounding) {
  StructuredMesh mesh = make_deformed_mesh(3, 4, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  for (int k : {3, 4}) {
    const KernelSpec s = spec_of(FineOperatorType::kTensor, k, 0);
    auto tens = make_viscous_backend(s, mesh, coeff, nullptr);
    auto gen = KernelRegistry::instance().resolve_fallback(s).factory(
        s, mesh, coeff, nullptr);
    const Vector x = random_vector(tens->rows(), 43);
    Vector yt(x.size()), yg(x.size());
    tens->apply(x, yt);
    gen->apply(x, yg);
    EXPECT_LE(max_rel_diff(yt, yg), 1e-10) << "k=" << k;
  }
}

TEST(QkKernels, RepeatedAppliesAreBitwiseStable) {
  StructuredMesh mesh = make_deformed_mesh(3, 3, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  auto op = make_viscous_backend(spec_of(FineOperatorType::kTensor, 3, 8),
                                 mesh, coeff, nullptr);
  const Vector x = random_vector(op->rows(), 47);
  Vector y0(x.size()), y(x.size());
  op->apply(x, y0);
  for (int rep = 0; rep < 3; ++rep) {
    op->apply(x, y);
    for (Index i = 0; i < x.size(); ++i) ASSERT_EQ(y[i], y0[i]);
  }
}

TEST(QkKernels, RefuseDirichletMaskNewtonAndDiagonal) {
  StructuredMesh mesh = make_deformed_mesh(3, 3, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  // Qk applies take no Dirichlet mask (the BC layer is Q2-lattice-bound).
  EXPECT_THROW(make_viscous_backend(spec_of(FineOperatorType::kTensor, 3, 0),
                                    mesh, coeff, &bc),
               Error);
  auto op = make_viscous_backend(spec_of(FineOperatorType::kTensor, 3, 0),
                                 mesh, coeff, nullptr);
  EXPECT_THROW(op->set_newton(true), Error);
  EXPECT_THROW(op->diagonal(), Error);
}

// The viscous bilinear form is a(u,v) = \int 2 eta D(u):D(v). For
// u = (sin(pi x) sin(pi y) sin(pi z), 0, 0) on [0,1]^3 with eta = 1:
// a(u,u) = \int |grad f|^2 + (df/dx)^2 = 3 pi^2/8 + pi^2/8 = pi^2/2.
// Interpolating u onto the Qk lattice and evaluating x^T A x must converge
// to that value as the mesh refines, faster for higher k.
TEST(QkKernels, ManufacturedSolutionEnergyConvergesAtIncreasingOrder) {
  const Real exact = 0.5 * M_PI * M_PI;
  auto energy_error = [&](int k, Index m) {
    StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
    QuadCoefficients coeff(mesh.num_elements());
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        coeff.eta(e, q) = 1.0;
        coeff.rho(e, q) = 1.0;
      }
    auto op = make_viscous_backend(spec_of(FineOperatorType::kTensor, k, 0),
                                   mesh, coeff, nullptr);
    const std::vector<Real> xyz = qk_node_coords(mesh, k);
    const Index nn = qk_num_nodes(mesh, k);
    Vector u(op->rows(), 0.0);
    for (Index n = 0; n < nn; ++n) {
      const Real f = std::sin(M_PI * xyz[3 * n + 0]) *
                     std::sin(M_PI * xyz[3 * n + 1]) *
                     std::sin(M_PI * xyz[3 * n + 2]);
      u[velocity_dof(n, 0)] = f;
    }
    Vector au(u.size());
    op->apply(u, au);
    Real e_h = 0;
    for (Index i = 0; i < u.size(); ++i) e_h += u[i] * au[i];
    return std::abs(e_h - exact);
  };

  Real prev_fine_err = -1;
  for (int k : {2, 3, 4}) {
    const Real e4 = energy_error(k, 4);
    const Real e8 = energy_error(k, 8);
    EXPECT_LT(e8, e4) << "k=" << k;
    const Real rate = std::log2(e4 / e8);
    // The energy converges at O(h^{2k}); assert a conservative floor that
    // still cleanly separates the orders.
    EXPECT_GE(rate, Real(k) - 0.4) << "k=" << k << " e4=" << e4
                                   << " e8=" << e8;
    // Higher order is strictly more accurate at the same resolution.
    if (prev_fine_err >= 0) EXPECT_LT(e8, prev_fine_err) << "k=" << k;
    prev_fine_err = e8;
  }
}

// --- config validation ------------------------------------------------------

TEST(KernelSpecMigration, FromOptionsValidatesOrderAgainstTheRegistry) {
  {
    const char* argv[] = {"prog", "-order", "3"};
    SolverConfig cfg = SolverConfig::from_options(Options::from_args(3, argv));
    EXPECT_EQ(cfg.stokes().kernel.order, 3);
  }
  {
    const char* argv[] = {"prog", "-order", "5"};
    EXPECT_THROW(SolverConfig::from_options(Options::from_args(3, argv)),
                 Error);
  }
  {
    const char* argv[] = {"prog", "-backend", "asmb", "-order", "3"};
    try {
      SolverConfig::from_options(Options::from_args(5, argv));
      FAIL() << "expected a typed error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("nearest registered keys"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(SolverConfig().order(3).stokes().kernel.order, 3);
}

TEST(KernelSpecMigration, FullSolverStackRejectsHigherOrders) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = make_variable_coeff(mesh);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions so;
  so.kernel.order = 3;
  try {
    StokesSolver solver(mesh, coeff, bc, so);
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Q2"), std::string::npos) << e.what();
  }
  GmgOptions go;
  go.fine_kernel.order = 3;
  go.levels = 1;
  EXPECT_THROW(GmgHierarchy(mesh, coeff, bc, go,
                            [](const StructuredMesh& m) {
                              return sinker_boundary_conditions(m);
                            },
                            nullptr),
               Error);
}

} // namespace
} // namespace ptatin
