// Parity of the closed-form lattice-pattern assemblies
// (fem/lattice_pattern.hpp) with the assembly they replaced: per-row column
// lists from the element couplings, sorted and deduplicated, then element
// entries added one by one at the slot a binary search finds. The viscous
// matrix, the gradient block B, the masked B^T of the coupled operator,
// and the SUPG energy matrix must match that reference in
// row_ptr, col_idx and every value bit, on deformed meshes with a viscosity
// that varies by about e^8, at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "energy/supg.hpp"
#include "fem/dofmap.hpp"
#include "stokes/blocks.hpp"
#include "stokes/geometry.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {
namespace {

// --- the reference assembly -------------------------------------------------

/// Per-row column lists, compressed by sort/unique into a zero matrix.
class ReferencePattern {
public:
  ReferencePattern(Index rows, Index cols)
      : rows_(rows), cols_(cols), row_cols_(static_cast<std::size_t>(rows)) {}

  void add_row_entries(Index row, const Index* cols, int n) {
    row_cols_[row].insert(row_cols_[row].end(), cols, cols + n);
  }

  CsrMatrix finalize() {
    std::vector<Index> rp(static_cast<std::size_t>(rows_ + 1), 0), ci;
    for (Index i = 0; i < rows_; ++i) {
      auto& rc = row_cols_[i];
      std::sort(rc.begin(), rc.end());
      rc.erase(std::unique(rc.begin(), rc.end()), rc.end());
      ci.insert(ci.end(), rc.begin(), rc.end());
      rp[i + 1] = static_cast<Index>(ci.size());
    }
    std::vector<Real> va(ci.size(), 0.0);
    return CsrMatrix(rows_, cols_, std::move(rp), std::move(ci),
                     std::move(va));
  }

private:
  Index rows_, cols_;
  std::vector<std::vector<Index>> row_cols_;
};

/// Add v to the stored entry (i, j), found by binary search.
void add_entry(CsrMatrix& a, Index i, Index j, Real v) {
  Real* p = a.find(i, j);
  ASSERT_NE(p, nullptr) << "entry (" << i << ", " << j << ") not in pattern";
  *p += v;
}

CsrMatrix reference_viscous(const StructuredMesh& mesh,
                            const QuadCoefficients& coeff) {
  const Index nv = num_velocity_dofs(mesh);
  ReferencePattern pattern(nv, nv);
  Index dofs[3 * kQ2NodesPerEl];
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    element_velocity_dofs(mesh, e, dofs);
    for (int a = 0; a < 3 * kQ2NodesPerEl; ++a)
      pattern.add_row_entries(dofs[a], dofs, 3 * kQ2NodesPerEl);
  }
  CsrMatrix a = pattern.finalize();
  for_each_element_colored(mesh, [&](Index e) {
    Real Ke[3 * kQ2NodesPerEl][3 * kQ2NodesPerEl];
    viscous_element_matrix(mesh, coeff, e, Ke);
    Index edofs[3 * kQ2NodesPerEl];
    element_velocity_dofs(mesh, e, edofs);
    for (int r = 0; r < 3 * kQ2NodesPerEl; ++r)
      for (int c = 0; c < 3 * kQ2NodesPerEl; ++c)
        if (Ke[r][c] != 0.0) add_entry(a, edofs[r], edofs[c], Ke[r][c]);
  });
  return a;
}

CsrMatrix reference_gradient(const StructuredMesh& mesh) {
  const Index nv = num_velocity_dofs(mesh);
  ReferencePattern pattern(nv, num_pressure_dofs(mesh));
  Index vdofs[3 * kQ2NodesPerEl];
  Index pdofs[kP1NodesPerEl];
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    element_velocity_dofs(mesh, e, vdofs);
    for (int k = 0; k < kP1NodesPerEl; ++k) pdofs[k] = pressure_dof(e, k);
    for (int a = 0; a < 3 * kQ2NodesPerEl; ++a)
      pattern.add_row_entries(vdofs[a], pdofs, kP1NodesPerEl);
  }
  CsrMatrix b = pattern.finalize();
  for_each_element_colored(mesh, [&](Index e) {
    Real Be[3 * kQ2NodesPerEl][kP1NodesPerEl];
    gradient_element_matrix(mesh, e, Be);
    Index edofs[3 * kQ2NodesPerEl];
    element_velocity_dofs(mesh, e, edofs);
    for (int a = 0; a < 3 * kQ2NodesPerEl; ++a)
      for (int k = 0; k < kP1NodesPerEl; ++k)
        add_entry(b, edofs[a], pressure_dof(e, k), Be[a][k]);
  });
  return b;
}

/// B with the constrained rows zeroed, as the coupled operator masked it.
CsrMatrix reference_masked(const CsrMatrix& b, const DirichletBc& bc) {
  CsrMatrix m = b;
  for (Index i = 0; i < m.rows(); ++i)
    if (bc.is_constrained(i))
      for (Index k = m.row_ptr()[i]; k < m.row_ptr()[i + 1]; ++k)
        m.values()[k] = 0.0;
  return m;
}

CsrMatrix reference_supg(const StructuredMesh& mesh, const EnergySolver& solver,
                         const Vector& u, Real dt, const VertexBc& bc,
                         const Vector& T, Vector& rhs) {
  const Index nv = mesh.num_vertices();
  ReferencePattern pattern(nv, nv);
  Index verts[kQ1NodesPerEl];
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    mesh.element_corner_vertices(e, verts);
    for (int a = 0; a < kQ1NodesPerEl; ++a)
      pattern.add_row_entries(verts[a], verts, kQ1NodesPerEl);
  }
  CsrMatrix a = pattern.finalize();
  rhs = Vector(nv, 0.0);
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    Real Ae[kQ1NodesPerEl][kQ1NodesPerEl];
    Real be[kQ1NodesPerEl];
    solver.element_system(u, dt, T, e, Ae, be);
    mesh.element_corner_vertices(e, verts);
    for (int i = 0; i < kQ1NodesPerEl; ++i) {
      for (int j = 0; j < kQ1NodesPerEl; ++j)
        if (Ae[i][j] != 0.0) add_entry(a, verts[i], verts[j], Ae[i][j]);
      rhs[verts[i]] += be[i];
    }
  }
  for (Index v = 0; v < nv; ++v) {
    if (!bc.is_constrained(v)) continue;
    a.zero_row_set_identity(v);
    rhs[v] = bc.value(v);
  }
  return a;
}

// --- fixtures ---------------------------------------------------------------

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const CsrMatrix& got, const CsrMatrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ASSERT_EQ(got.row_ptr(), want.row_ptr()) << what << ": row_ptr";
  ASSERT_EQ(got.col_idx(), want.col_idx()) << what << ": col_idx";
  for (Index k = 0; k < want.nnz(); ++k)
    ASSERT_EQ(bits(got.values()[k]), bits(want.values()[k]))
        << what << ": value " << k << " is " << got.values()[k]
        << ", reference " << want.values()[k];
}

/// Run `body` at 1, 2 and 8 threads, restoring the entry count after.
template <typename F>
void at_thread_counts(F&& body) {
  const int saved = num_threads();
  for (int nt : {1, 2, 8}) {
    set_num_threads(nt);
    SCOPED_TRACE("threads " + std::to_string(nt));
    body();
  }
  set_num_threads(saved);
}

struct Shape {
  Index mx, my, mz;
};

std::string to_string(const Shape& s) {
  return std::to_string(s.mx) + "x" + std::to_string(s.my) + "x" +
         std::to_string(s.mz);
}

void PrintTo(const Shape& s, std::ostream* os) { *os << to_string(s); }

std::string shape_name(const testing::TestParamInfo<Shape>& info) {
  return to_string(info.param);
}

/// Unit box under a smooth shear that keeps every element positive.
StructuredMesh deformed_mesh(const Shape& s) {
  StructuredMesh mesh =
      StructuredMesh::box(s.mx, s.my, s.mz, {0, 0, 0}, {1, 1, 1});
  mesh.deform([](const Vec3& x) {
    const Real pi = 3.14159265358979323846;
    return Vec3{x[0] + 0.06 * std::sin(pi * x[1]) * std::sin(pi * x[2]),
                x[1] + 0.05 * std::sin(pi * x[0]) * std::cos(pi * x[2]),
                x[2] + 0.04 * std::cos(pi * x[0]) * std::sin(pi * x[1])};
  });
  return mesh;
}

/// eta = exp(8 s(x)) with s spanning about [0, 1].
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
  return c;
}

class AssemblyParity : public testing::TestWithParam<Shape> {};

TEST_P(AssemblyParity, ViscousMatrixMatchesReference) {
  const StructuredMesh mesh = deformed_mesh(GetParam());
  const QuadCoefficients coeff = varying_viscosity(mesh);
  const auto [lo, hi] =
      std::minmax_element(coeff.eta_data().begin(), coeff.eta_data().end());
  ASSERT_GT(*hi / *lo, std::exp(4.0)) << "viscosity contrast too small";

  const CsrMatrix want = reference_viscous(mesh, coeff);
  at_thread_counts([&] {
    expect_identical(assemble_viscous_matrix(mesh, coeff), want, "viscous");
  });
}

TEST_P(AssemblyParity, GradientBlocksMatchReference) {
  const StructuredMesh mesh = deformed_mesh(GetParam());
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  ASSERT_GT(bc.num_constrained(), 0);

  const CsrMatrix b = reference_gradient(mesh);
  const CsrMatrix b_masked = reference_masked(b, bc);
  const CsrMatrix bt_masked = b_masked.transpose();
  at_thread_counts([&] {
    expect_identical(assemble_gradient_block(mesh), b, "B");
    CsrMatrix got_b, got_bt;
    assemble_gradient_blocks(mesh, bc, got_b, got_bt);
    expect_identical(got_b, b, "B (with masks)");
    expect_identical(got_bt, bt_masked, "masked B^T");
  });
}

TEST_P(AssemblyParity, SupgMatrixMatchesReference) {
  const StructuredMesh mesh = deformed_mesh(GetParam());
  // A rotating flow and a varying temperature; the bottom and top vertex
  // layers are held at fixed temperatures.
  Vector u(num_velocity_dofs(mesh));
  for (Index n = 0; n < mesh.num_nodes(); ++n) {
    const Vec3 x = mesh.node_coord(n);
    u[velocity_dof(n, 0)] = std::sin(2.0 * x[1]) - 0.3 * x[2];
    u[velocity_dof(n, 1)] = std::cos(3.0 * x[0]) * x[2];
    u[velocity_dof(n, 2)] = 0.5 * x[0] * x[1] - 0.2;
  }
  Vector T(mesh.num_vertices());
  for (Index v = 0; v < mesh.num_vertices(); ++v)
    T[v] = std::cos(0.7 * Real(v));
  VertexBc bc(mesh.num_vertices());
  for (Index vj = 0; vj < mesh.vy(); ++vj)
    for (Index vi = 0; vi < mesh.vx(); ++vi) {
      bc.constrain(mesh.vertex_index(vi, vj, 0), 1.0);
      bc.constrain(mesh.vertex_index(vi, vj, mesh.vz() - 1), 0.0);
    }
  const EnergySolver solver(mesh, 1e-3);
  const Real dt = 0.05;

  Vector want_rhs;
  const CsrMatrix want =
      reference_supg(mesh, solver, u, dt, bc, T, want_rhs);
  at_thread_counts([&] {
    CsrMatrix a;
    Vector rhs;
    solver.assemble(u, dt, bc, T, a, rhs);
    expect_identical(a, want, "SUPG");
    ASSERT_EQ(rhs.size(), want_rhs.size());
    for (Index v = 0; v < rhs.size(); ++v)
      ASSERT_EQ(bits(rhs[v]), bits(want_rhs[v])) << "SUPG rhs " << v;
  });
}

// A one-element direction and odd counts, then the first coarse GMG levels
// of the sinker (m = 12) and rifting (32x8x16) workloads.
INSTANTIATE_TEST_SUITE_P(Shapes, AssemblyParity,
                         testing::Values(Shape{1, 3, 2}, Shape{3, 5, 7},
                                         Shape{6, 6, 6}, Shape{16, 4, 8}),
                         shape_name);

} // namespace
} // namespace ptatin
