// Parity of the coupled Stokes apply with B and B^T folded into the Tens
// element sweep (TensorViscousOperator::apply_stokes, docs/KERNELS.md
// "Coupled Tens sweep") with the assembled-block form it replaced: the
// masked Tens W=8 viscous apply plus the CSR gradient() and divergence()
// blocks. Deformed meshes, a viscosity varying by about e^8, Newton on and
// off, the global colored loop and the 2x2x1 and 2x2x2 subdomain engines,
// at 1, 2 and 8 threads. The engines write each element's pressure rows
// straight into the output, so this label also runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "fem/subdomain_engine.hpp"
#include "saddle/stokes_operator.hpp"
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
/// Tens W=8 apply on the global loop.
Vector assembled_apply(const StokesOperator& op,
                       const TensorViscousOperator& a, const Vector& x) {
  Vector xu, xp, yu, bp, yp, y;
  op.extract_u(x, xu);
  op.extract_p(x, xp);
  a.apply(xu, yu);
  op.gradient().mult(xp, bp);
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
  TensorViscousOperator folded_op(mesh, coeff, &bc, kSolverBatchWidth);
  folded_op.set_subdomain_engine(engine.get());
  const StokesOperator op(mesh, folded_op, bc);
  const Vector x = random_vector(op.rows(), 11);
  const Index nu = op.num_velocity();

  const int saved = num_threads();
  for (bool newton : {false, true}) {
    global.set_newton(newton);
    folded_op.set_newton(newton);
    const Vector want = assembled_apply(op, global, x);
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
INSTANTIATE_TEST_SUITE_P(
    Shapes, CoupledApply,
    testing::Values(Case{1, 3, 2, 0, 0, 0}, Case{5, 3, 7, 0, 0, 0},
                    Case{5, 3, 7, 2, 2, 1}, Case{5, 3, 7, 2, 2, 2},
                    Case{12, 12, 12, 0, 0, 0}, Case{12, 12, 12, 2, 2, 1},
                    Case{12, 12, 12, 2, 2, 2}, Case{16, 4, 8, 0, 0, 0},
                    Case{16, 4, 8, 2, 2, 1}, Case{16, 4, 8, 2, 2, 2}),
    [](const testing::TestParamInfo<Case>& info) {
      return case_name(info.param);
    });

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
        TensorViscousOperator a(mesh, coeff, &bc, width);
        a.set_subdomain_engine(&engine);
        a.set_newton(newton);
        const StokesOperator op(mesh, a, bc);
        Vector y;
        op.apply(x, y);
        return y;
      };
      const Vector y0 = folded(0);
      for (int width : kBatchWidths) {
        const Vector y = folded(width);
        for (Index i = 0; i < y.size(); ++i)
          ASSERT_EQ(y[i], y0[i]) << "2x2x" << pz << ", width " << width
                                 << ", newton " << newton << ": row " << i;
      }
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
  const Vector want = assembled_apply(op, a, x);
  for (Index i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], want[i]) << i;
}

} // namespace
} // namespace ptatin
