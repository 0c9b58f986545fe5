// Tests for the cross-element SIMD-batched operator path (§III-D "vectorize
// over elements"): batched back-ends must be drop-in interchangeable with the
// scalar ones (1e-12 agreement against the assembled matrix) and BITWISE
// identical to their own scalar path at the batch width — including meshes
// whose color populations leave ragged tails (mx/my/mz not divisible by 2W).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "mg/gmg.hpp"
#include "saddle/stokes_operator.hpp"
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

QuadCoefficients make_variable_coeff(const StructuredMesh& mesh,
                                     bool with_newton, unsigned seed = 3) {
  QuadCoefficients c(mesh.num_elements());
  Rng rng(seed);
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      c.eta(e, q) = std::pow(10.0, rng.uniform(-2, 2));
      c.rho(e, q) = rng.uniform(0.9, 1.3);
    }
  if (with_newton) {
    c.allocate_newton();
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        c.deta(e, q) = -rng.uniform(0, 0.5);
        for (int t = 0; t < kSymSize; ++t) c.d0(e, q)[t] = rng.uniform(-1, 1);
      }
  }
  return c;
}

Vector random_vector(Index n, unsigned seed) {
  Vector v(n);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

// --- colored iteration ------------------------------------------------------

TEST(ColoredLoop, VisitsEveryElementOnce) {
  StructuredMesh mesh = StructuredMesh::box(5, 3, 7, {0, 0, 0}, {1, 1, 1});
  std::vector<int> hits(mesh.num_elements(), 0);
  for_each_element_colored(mesh, [&](Index e) { hits[e] += 1; });
  for (Index e = 0; e < mesh.num_elements(); ++e) EXPECT_EQ(hits[e], 1);
}

TEST(ColoredLoop, BatchedVisitsEveryElementOnceWithRaggedTails) {
  // 5*3*7: some colors have counts not divisible by 8.
  StructuredMesh mesh = StructuredMesh::box(5, 3, 7, {0, 0, 0}, {1, 1, 1});
  // hits entries are disjoint across iterations (each element visited once),
  // but the batch/tail counters are shared across threads -> atomics.
  std::vector<int> hits(mesh.num_elements(), 0);
  std::atomic<int> batched{0}, scalar{0};
  for_each_element_batched_colored<8>(
      mesh,
      [&](const Index* elems) {
        for (int l = 0; l < 8; ++l) hits[elems[l]] += 1;
        ++batched;
      },
      [&](Index e) {
        hits[e] += 1;
        ++scalar;
      });
  for (Index e = 0; e < mesh.num_elements(); ++e) EXPECT_EQ(hits[e], 1);
  EXPECT_GT(batched.load(), 0);
  EXPECT_GT(scalar.load(), 0) << "mesh chosen to exercise the ragged tail";
}

TEST(ColoredLoop, BatchElementsShareNoNodes) {
  StructuredMesh mesh = StructuredMesh::box(6, 5, 4, {0, 0, 0}, {1, 1, 1});
  std::atomic<int> shared_nodes{0}; // gtest asserts aren't thread-safe
  for_each_element_batched_colored<8>(
      mesh,
      [&](const Index* elems) {
        std::set<Index> seen;
        for (int l = 0; l < 8; ++l) {
          Index nodes[kQ2NodesPerEl];
          mesh.element_nodes(elems[l], nodes);
          for (int i = 0; i < kQ2NodesPerEl; ++i)
            if (!seen.insert(nodes[i]).second) ++shared_nodes;
        }
      },
      [](Index) {});
  EXPECT_EQ(shared_nodes.load(), 0)
      << "node shared within a batch: scatter would race";
}

// --- batched vs scalar: bitwise identity ------------------------------------

enum class Backend { kMf, kTens, kTensC };

std::unique_ptr<ViscousOperatorBase> make_op(Backend b,
                                             const StructuredMesh& mesh,
                                             const QuadCoefficients& coeff,
                                             const DirichletBc* bc, int width) {
  switch (b) {
    case Backend::kMf:
      return std::make_unique<MfViscousOperator>(mesh, coeff, bc, width);
    case Backend::kTens:
      return std::make_unique<TensorViscousOperator>(mesh, coeff, bc, width);
    default:
      return std::make_unique<TensorCViscousOperator>(mesh, coeff, bc, width);
  }
}

struct BitwiseCase {
  Backend backend;
  Index mx, my, mz;
  bool newton;
};

/// Prints a case as "Tens_5x3x7_newton", which ctest appends to the test
/// name. gtest's default printer dumps the struct's bytes, padding included,
/// so the names would differ between builds.
void PrintTo(const BitwiseCase& c, std::ostream* os) {
  static const char* kNames[] = {"MF", "Tens", "TensC"};
  *os << kNames[static_cast<int>(c.backend)] << "_" << c.mx << "x" << c.my
      << "x" << c.mz << (c.newton ? "_newton" : "_picard");
}

class BatchedBitwise : public ::testing::TestWithParam<BitwiseCase> {};

TEST_P(BatchedBitwise, MatchesScalarAtEveryWidth) {
  const BitwiseCase p = GetParam();
  StructuredMesh mesh = make_deformed_mesh(p.mx, p.my, p.mz);
  QuadCoefficients coeff = make_variable_coeff(mesh, p.newton);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  auto scalar_op = make_op(p.backend, mesh, coeff, &bc, 0);
  Vector x = random_vector(scalar_op->rows(), 23);
  Vector y0;
  scalar_op->apply(x, y0, p.newton);

  const int width = kSolverBatchWidth;
  auto batched_op = make_op(p.backend, mesh, coeff, &bc, width);
  Vector y;
  batched_op->apply(x, y, p.newton);
  ASSERT_EQ(y.size(), y0.size());
  for (Index i = 0; i < y.size(); ++i)
    ASSERT_EQ(y[i], y0[i]) << batched_op->name() << " lane drift at dof "
                           << i << " (width " << width << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BatchedBitwise,
    ::testing::Values(
        // 4^3: the width divides some colors evenly; 5x3x7 and 3x5x2 leave
        // ragged tails (mx/my/mz not divisible by 2W).
        BitwiseCase{Backend::kTens, 4, 4, 4, false},
        BitwiseCase{Backend::kTens, 5, 3, 7, false},
        BitwiseCase{Backend::kTens, 5, 3, 7, true},
        BitwiseCase{Backend::kTens, 3, 5, 2, true},
        BitwiseCase{Backend::kTensC, 4, 4, 4, false},
        BitwiseCase{Backend::kTensC, 5, 3, 7, false},
        BitwiseCase{Backend::kMf, 4, 4, 4, false},
        BitwiseCase{Backend::kMf, 5, 3, 7, true},
        BitwiseCase{Backend::kMf, 3, 5, 2, false}));

// The coupled apply with B and B^T folded into the Tens sweep
// (TensorViscousOperator::apply_stokes): the scalar element path and the
// lanes fold the pressure terms bitwise alike, ragged color tails included.
TEST(FoldedStokesBitwise, MatchesScalarAtEveryWidth) {
  for (const BitwiseCase& p : {BitwiseCase{Backend::kTens, 4, 4, 4, false},
                               BitwiseCase{Backend::kTens, 5, 3, 7, false},
                               BitwiseCase{Backend::kTens, 5, 3, 7, true},
                               BitwiseCase{Backend::kTens, 3, 5, 2, true}}) {
    SCOPED_TRACE(testing::PrintToString(p));
    StructuredMesh mesh = make_deformed_mesh(p.mx, p.my, p.mz);
    QuadCoefficients coeff = make_variable_coeff(mesh, p.newton);
    DirichletBc bc = sinker_boundary_conditions(mesh);
    const Vector x =
        random_vector(num_velocity_dofs(mesh) + num_pressure_dofs(mesh), 29);

    auto folded = [&](int width) {
      TensorViscousOperator a(mesh, coeff, &bc, width);
      const StokesOperator op(mesh, a, bc, p.newton);
      Vector y;
      op.apply(x, y);
      return y;
    };
    const Vector y0 = folded(0);
    const int width = kSolverBatchWidth;
    const Vector y = folded(width);
    ASSERT_EQ(y.size(), y0.size());
    for (Index i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], y0[i]) << "folded lane drift at row " << i
                             << " (width " << width << ")";
  }
}

// --- interchangeability property test ---------------------------------------

class BackendInterchange : public ::testing::TestWithParam<bool> {};

TEST_P(BackendInterchange, AllVariantsAgreeOnDeformedMesh) {
  const bool newton = GetParam();
  StructuredMesh mesh = make_deformed_mesh(3, 4, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh, newton);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  // Reference: the Picard-assembled matrix (Newton reference: scalar MF).
  std::vector<std::unique_ptr<ViscousOperatorBase>> ops;
  if (!newton)
    ops.push_back(std::make_unique<AsmbViscousOperator>(mesh, coeff, &bc));
  ops.push_back(std::make_unique<MfViscousOperator>(mesh, coeff, &bc));
  ops.push_back(std::make_unique<TensorViscousOperator>(mesh, coeff, &bc));
  if (!newton)
    ops.push_back(std::make_unique<TensorCViscousOperator>(mesh, coeff, &bc));
  const int width = kSolverBatchWidth;
  ops.push_back(
      std::make_unique<MfViscousOperator>(mesh, coeff, &bc, width));
  ops.push_back(
      std::make_unique<TensorViscousOperator>(mesh, coeff, &bc, width));
  if (!newton)
    ops.push_back(
        std::make_unique<TensorCViscousOperator>(mesh, coeff, &bc, width));
  Vector x = random_vector(ops[0]->rows(), 31);
  Vector y0;
  ops[0]->apply(x, y0, newton);
  const Real scale = y0.norm_inf();
  for (std::size_t k = 1; k < ops.size(); ++k) {
    Vector y;
    ops[k]->apply(x, y, newton);
    for (Index i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], y0[i], 1e-12 * scale)
          << ops[k]->name() << " vs " << ops[0]->name() << " at dof " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(NewtonOnOff, BackendInterchange, ::testing::Bool());

// --- drop-in use as an MG smoother operator ---------------------------------

TEST(BatchedMg, BatchedFineOperatorReproducesScalarVcycle) {
  StructuredMesh mesh = make_deformed_mesh(4, 4, 4);
  QuadCoefficients coeff = make_variable_coeff(mesh, false);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  auto run_vcycle = [&](int width) {
    const TensorViscousOperator fine(mesh, coeff, &bc, width);
    GmgOptions go;
    go.levels = 2;
    GmgHierarchy gmg(
        fine, go,
        [](const StructuredMesh& m) { return sinker_boundary_conditions(m); },
        [](const CsrMatrix& a, const StructuredMesh&,
           const DirichletBc&) -> std::unique_ptr<Preconditioner> {
          return std::make_unique<BlockJacobiPc>(a, 1, SubdomainSolve::kLu);
        });
    Vector b = random_vector(gmg.fine_operator().rows(), 41);
    bc.zero_constrained(b);
    Vector z(b.size(), 0.0);
    gmg.vcycle(b, z);
    return z;
  };

  Vector z0 = run_vcycle(0);
  Vector z8 = run_vcycle(8);
  ASSERT_EQ(z0.size(), z8.size());
  for (Index i = 0; i < z0.size(); ++i)
    ASSERT_EQ(z0[i], z8[i]) << "batched smoother drifted at dof " << i;
}

} // namespace
} // namespace ptatin
