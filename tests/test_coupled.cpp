// Parity of the coupled Stokes apply with B and B^T folded into the Tens
// element sweep (TensorViscousOperator::apply_stokes, docs/KERNELS.md
// "Coupled Tens sweep") with the assembled-block form it replaced: the
// masked Tens W=8 viscous apply plus the CSR gradient() and divergence()
// blocks. Deformed meshes, a viscosity varying by about e^8, Newton on and
// off, the global colored loop and the 2x2x1 and 2x2x2 subdomain engines,
// at 1, 2 and 8 threads. The engines write each element's pressure rows
// straight into the output, so this label also runs under TSan.
//
// On the same cases, the Tens geometry cache (docs/KERNELS.md "Geometry
// cache"): the inline first apply, the second that fills the cache and the
// third that reads it agree bitwise with each other and with the scalar
// apply, viscous and coupled alike. The slots are raw-pointer arithmetic,
// so this label also runs under ASan/UBSan. Last, a Stokes solve builds one
// fine operator, which GMG's finest level borrows, and so one fine cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "fem/subdomain_engine.hpp"
#include "saddle/stokes_solver.hpp"
#include "stokes/geometry.hpp"

namespace ptatin {
namespace {

/// Unit box under a smooth shear that keeps every element positive.
StructuredMesh deformed_mesh(Index mx, Index my, Index mz) {
  StructuredMesh mesh = StructuredMesh::box(mx, my, mz, {0, 0, 0}, {1, 1, 1});
  mesh.deform([](const Vec3& x) {
    const Real pi = 3.14159265358979323846;
    return Vec3{x[0] + 0.06 * std::sin(pi * x[1]) * std::sin(pi * x[2]),
                x[1] + 0.05 * std::sin(pi * x[0]) * std::cos(pi * x[2]),
                x[2] + 0.04 * std::cos(pi * x[0]) * std::sin(pi * x[1])};
  });
  return mesh;
}

/// eta = exp(8 s(x)) with s spanning about [0, 1], plus random Newton state.
QuadCoefficients varying_viscosity(const StructuredMesh& mesh) {
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real* x = g.xq[q];
      const Real s = 0.5 * (1.0 + std::sin(3.0 * x[0] + 2.0 * x[1]) *
                                      std::cos(2.0 * x[2] - x[1]));
      c.eta(e, q) = std::exp(8.0 * s);
      c.rho(e, q) = 1.0;
    }
  }
  c.allocate_newton();
  Rng rng(5);
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      c.deta(e, q) = -rng.uniform(0, 0.5) * c.eta(e, q);
      for (int t = 0; t < kSymSize; ++t) c.d0(e, q)[t] = rng.uniform(-1, 1);
    }
  return c;
}

Vector random_vector(Index n, unsigned seed) {
  Vector v(n);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

/// max |a - b| over [lo, hi) relative to max |b| there.
Real block_rel_diff(const Vector& a, const Vector& b, Index lo, Index hi) {
  Real scale = 0, diff = 0;
  for (Index i = lo; i < hi; ++i) {
    scale = std::max(scale, std::abs(b[i]));
    diff = std::max(diff, std::abs(a[i] - b[i]));
  }
  return scale > 0 ? diff / scale : diff;
}

/// The replaced form: [A x_u + B_masked x_p; B^T_masked x_u], A the masked
/// Tens W=8 apply on the global loop (with its Newton term when `newton`),
/// B_masked x_p the product with B whose constrained rows are then zeroed.
Vector assembled_apply(const StokesOperator& op,
                       const TensorViscousOperator& a, bool newton,
                       const Vector& x) {
  Vector xu, xp, yu, bp, yp, y;
  op.extract_u(x, xu);
  op.extract_p(x, xp);
  a.apply(xu, yu, newton);
  op.gradient().mult(xp, bp);
  op.bc().zero_constrained(bp);
  yu.axpy(1.0, bp);
  op.divergence().mult(xu, yp);
  op.combine(yu, yp, y);
  return y;
}

struct Case {
  Index mx, my, mz;
  Index px, py, pz; ///< 0: the global colored loop
};

std::string case_name(const Case& c) {
  std::string s = std::to_string(c.mx) + "x" + std::to_string(c.my) + "x" +
                  std::to_string(c.mz);
  if (c.px == 0) return s + "_global";
  return s + "_engine" + std::to_string(c.px) + "x" + std::to_string(c.py) +
         "x" + std::to_string(c.pz);
}

void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

class CoupledApply : public testing::TestWithParam<Case> {};

TEST_P(CoupledApply, FoldedMatchesAssembledBlocks) {
  const Case p = GetParam();
  const StructuredMesh mesh = deformed_mesh(p.mx, p.my, p.mz);
  const QuadCoefficients coeff = varying_viscosity(mesh);
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  std::unique_ptr<SubdomainEngine> engine;
  if (p.px > 0)
    engine = std::make_unique<SubdomainEngine>(mesh, p.px, p.py, p.pz);

  TensorViscousOperator global(mesh, coeff, &bc, kSolverBatchWidth);
  TensorViscousOperator folded_op(mesh, coeff, &bc, kSolverBatchWidth,
                                  engine.get());
  const Index nu = num_velocity_dofs(mesh);
  const Vector x = random_vector(nu + num_pressure_dofs(mesh), 11);

  const int saved = num_threads();
  for (bool newton : {false, true}) {
    const StokesOperator op(mesh, folded_op, bc, newton);
    const Vector want = assembled_apply(op, global, newton, x);
    Vector first;
    for (int nt : {1, 2, 8}) {
      set_num_threads(nt);
      SCOPED_TRACE("newton " + std::to_string(newton) + ", threads " +
                   std::to_string(nt));
      Vector y;
      op.apply(x, y);
      ASSERT_EQ(y.size(), want.size());
      EXPECT_LE(block_rel_diff(y, want, 0, nu), 1e-12) << "velocity rows";
      EXPECT_LE(block_rel_diff(y, want, nu, op.rows()), 1e-12)
          << "pressure rows";
      // Constrained velocity rows are the identity, as in the CSR form.
      for (Index i : bc.constrained_dofs()) ASSERT_EQ(y[i], x[i]) << i;
      // The thread count never changes a bit.
      if (first.size() == 0) first = y;
      for (Index i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], first[i]) << "row " << i << " moved with the team";
    }
  }
  set_num_threads(saved);
}

// 1x3x2 has a one-element direction, 5x3x7 ragged color tails and subdomain
// lists at every width; 12^3 is stokes_sinker12's fine grid, 16x4x8 the
// rifting level-1 shape. A 2-way split needs 2 elements in that direction.
const Case kShapes[] = {
    {1, 3, 2, 0, 0, 0},    {5, 3, 7, 0, 0, 0},    {5, 3, 7, 2, 2, 1},
    {5, 3, 7, 2, 2, 2},    {12, 12, 12, 0, 0, 0}, {12, 12, 12, 2, 2, 1},
    {12, 12, 12, 2, 2, 2}, {16, 4, 8, 0, 0, 0},   {16, 4, 8, 2, 2, 1},
    {16, 4, 8, 2, 2, 2}};

std::string shape_name(const testing::TestParamInfo<Case>& info) {
  return case_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CoupledApply, testing::ValuesIn(kShapes),
                         shape_name);

/// Index of the first entry whose bits differ, or -1 when none does.
Index first_bit_difference(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return 0;
  for (Index i = 0; i < a.size(); ++i)
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(Real)) != 0) return i;
  return -1;
}

/// Elements in the full W-batches of the sweep: color runs in the global
/// loop, runs of each subdomain list under an engine.
Index batched_elements(const StructuredMesh& mesh,
                       const SubdomainEngine* engine, int width) {
  Index n = 0;
  if (engine == nullptr) {
    for (int color = 0; color < 8; ++color)
      n += color_extent(mesh, color).count() / width * width;
    return n;
  }
  for (Index s = 0; s < engine->num_subdomains(); ++s)
    for (const auto* list :
         {&engine->boundary_elements(s), &engine->interior_elements(s)})
      n += static_cast<Index>(list->size()) / width * width;
  return n;
}

/// Bytes of cached geometry per batched element: 27 points of gamma (9) and
/// w|J| (1).
constexpr std::size_t kCacheBytesPerElement = 2160;

enum class Form { kPicard, kNewton, kStokes };

const char* form_name(Form f) {
  switch (f) {
    case Form::kPicard: return "picard";
    case Form::kNewton: return "newton";
    default: return "stokes";
  }
}

class GeometryCache : public testing::TestWithParam<Case> {};

TEST_P(GeometryCache, InlineFillingAndCachedAppliesMatchScalar) {
  const Case p = GetParam();
  const StructuredMesh mesh = deformed_mesh(p.mx, p.my, p.mz);
  const QuadCoefficients coeff = varying_viscosity(mesh);
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  std::unique_ptr<SubdomainEngine> engine;
  if (p.px > 0)
    engine = std::make_unique<SubdomainEngine>(mesh, p.px, p.py, p.pz);
  const Index nu = num_velocity_dofs(mesh);
  const Vector x = random_vector(nu + num_pressure_dofs(mesh), 17);
  Vector xu(nu);
  for (Index i = 0; i < nu; ++i) xu[i] = x[i];

  const auto apply = [&](const TensorViscousOperator& a, Form form) {
    Vector y;
    if (form == Form::kStokes) a.apply_stokes(x, y, /*newton=*/false);
    else a.apply(xu, y, form == Form::kNewton);
    return y;
  };
  const auto make = [&](int width) {
    return std::make_unique<TensorViscousOperator>(mesh, coeff, &bc, width,
                                                   engine.get());
  };

  const int saved = num_threads();
  for (int nt : {1, 2, 8}) {
    set_num_threads(nt);
    for (Form form : {Form::kPicard, Form::kNewton, Form::kStokes}) {
      const Vector want = apply(*make(0), form);
      const int width = kSolverBatchWidth;
      SCOPED_TRACE(std::string(form_name(form)) + ", width " +
                   std::to_string(width) + ", threads " +
                   std::to_string(nt));
      const auto a = make(width);
      for (const char* pass : {"inline", "filling", "cached"}) {
        const Vector y = apply(*a, form);
        EXPECT_EQ(first_bit_difference(y, want), -1) << pass << " apply";
        if (std::string(pass) == "inline") {
          EXPECT_TRUE(a->geometry_cache().empty())
              << "an operator applied once holds a cache";
        }
      }
      EXPECT_EQ(a->geometry_cache().size(),
                static_cast<std::size_t>(
                    batched_elements(mesh, engine.get(), width)) *
                    kCacheBytesPerElement);
    }
  }
  set_num_threads(saved);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeometryCache, testing::ValuesIn(kShapes),
                         shape_name);

// The engine hands each batch W consecutive, node-sharing elements of one
// subdomain list; the folded scalar path (ragged tails, W = 0) and the lanes
// must still agree bitwise there (test_batched checks the global loop).
TEST(CoupledApply, EngineWidthsAgreeBitwise) {
  const StructuredMesh mesh = deformed_mesh(5, 3, 7);
  const QuadCoefficients coeff = varying_viscosity(mesh);
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  const Vector x =
      random_vector(num_velocity_dofs(mesh) + num_pressure_dofs(mesh), 13);
  for (Index pz : {1, 2}) {
    const SubdomainEngine engine(mesh, 2, 2, pz);
    for (bool newton : {false, true}) {
      auto folded = [&](int width) {
        TensorViscousOperator a(mesh, coeff, &bc, width, &engine);
        const StokesOperator op(mesh, a, bc, newton);
        Vector y;
        op.apply(x, y);
        return y;
      };
      const Vector y0 = folded(0);
      const int width = kSolverBatchWidth;
      const Vector y = folded(width);
      for (Index i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], y0[i]) << "2x2x" << pz << ", width " << width
                               << ", newton " << newton << ": row " << i;
    }
  }
}

// The fold masks with the viscous operator's constraints, so it runs only
// when they are the coupled operator's own: a Tens operator masked with
// another constraint set keeps the CSR form.
TEST(CoupledApply, ForeignConstraintsKeepTheAssembledForm) {
  const StructuredMesh mesh = deformed_mesh(3, 2, 2);
  const QuadCoefficients coeff = varying_viscosity(mesh);
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  const DirichletBc other = sinker_boundary_conditions(mesh);
  TensorViscousOperator a(mesh, coeff, &other, kSolverBatchWidth);
  const StokesOperator op(mesh, a, bc);
  const Vector x = random_vector(op.rows(), 3);
  Vector y;
  op.apply(x, y);
  const Vector want = assembled_apply(op, a, /*newton=*/false, x);
  for (Index i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], want[i]) << i;
}

// --- one fine operator per solve ---------------------------------------------

struct SolverCase {
  FineOperatorType type;
  bool newton;
  bool engine; ///< a 2x2x1 SubdomainEngine, else the global colored loop
};

/// "Tens_newton_2x2x1" (ctest appends it to the test name).
void PrintTo(const SolverCase& c, std::ostream* os) {
  *os << fine_operator_display(c.type) << (c.newton ? "_newton" : "_picard")
      << (c.engine ? "_2x2x1" : "_global");
}

class OneFineOperator : public testing::TestWithParam<SolverCase> {};

// GMG's finest level smooths with the Krylov operator's J_uu itself (Picard
// there, Newton in the Krylov apply), so a Tens solve holds one fine
// geometry cache: the fine operator's plus level 1's, nothing twice.
TEST_P(OneFineOperator, GmgFinestLevelIsTheKrylovOperator) {
  const SolverCase p = GetParam();
  const StructuredMesh mesh = deformed_mesh(8, 8, 8);
  const QuadCoefficients coeff = varying_viscosity(mesh);
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  std::unique_ptr<SubdomainEngine> engine;
  if (p.engine) engine = std::make_unique<SubdomainEngine>(mesh, 2, 2, 1);

  StokesSolverOptions opts;
  opts.kernel.type = p.type;
  opts.kernel.engine = engine.get();
  opts.newton_operator = p.newton;
  opts.gmg.levels = 3; // level 1 smooths on the fine back-end's kernel
  opts.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  opts.krylov.max_it = 10;
  const StokesSolver solver(mesh, coeff, bc, opts);
  const GmgHierarchy& mg = *solver.gmg();
  const ViscousOperatorBase& fine = solver.op().viscous();
  EXPECT_EQ(&mg.fine_operator(), &fine);
  EXPECT_EQ(fine.type(), p.type);
  EXPECT_EQ(fine.subdomain_engine(), engine.get());

  Vector f(num_velocity_dofs(mesh), 1.0);
  solver.solve(f);
  if (p.type != FineOperatorType::kTensor) return;

  // Every distinct Tens operator the solver holds on the two finest levels.
  const auto* level1 =
      dynamic_cast<const TensorViscousOperator*>(&mg.level_operator(1));
  ASSERT_NE(level1, nullptr);
  std::set<const TensorViscousOperator*> held = {
      dynamic_cast<const TensorViscousOperator*>(&fine),
      dynamic_cast<const TensorViscousOperator*>(&mg.fine_operator()), level1};
  std::size_t bytes = 0;
  for (const TensorViscousOperator* op : held)
    bytes += op->geometry_cache().size();
  const Index elements =
      batched_elements(mesh, engine.get(), kSolverBatchWidth) +
      batched_elements(mesh.coarsen(), nullptr, kSolverBatchWidth);
  EXPECT_EQ(bytes, static_cast<std::size_t>(elements) * kCacheBytesPerElement);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, OneFineOperator,
    testing::Values(SolverCase{FineOperatorType::kAssembled, false, false},
                    SolverCase{FineOperatorType::kAssembled, false, true},
                    SolverCase{FineOperatorType::kMatrixFree, false, false},
                    SolverCase{FineOperatorType::kMatrixFree, false, true},
                    SolverCase{FineOperatorType::kMatrixFree, true, false},
                    SolverCase{FineOperatorType::kMatrixFree, true, true},
                    SolverCase{FineOperatorType::kTensor, false, false},
                    SolverCase{FineOperatorType::kTensor, false, true},
                    SolverCase{FineOperatorType::kTensor, true, false},
                    SolverCase{FineOperatorType::kTensor, true, true}));

} // namespace
} // namespace ptatin
