#include "stokes/blocks.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "fem/basis.hpp"
#include "fem/dofmap.hpp"
#include "fem/lattice_pattern.hpp"
#include "fem/subdomain_engine.hpp"
#include "stokes/geometry.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

void gradient_element_matrix(const StructuredMesh& mesh, Index e,
                             Real Be[3 * kQ2NodesPerEl][kP1NodesPerEl]) {
  const auto& tab = q2_tabulation();
  ElementGeometry g;
  element_geometry(mesh, e, g);
  const P1Frame frame = element_p1_frame(mesh, e);

  for (int a = 0; a < 3 * kQ2NodesPerEl; ++a)
    for (int k = 0; k < kP1NodesPerEl; ++k) Be[a][k] = 0.0;
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Mat3& ga = g.gamma[q];
    Real psi[kP1NodesPerEl];
    p1disc_eval(frame, g.xq[q], psi);
    for (int i = 0; i < kQ2NodesPerEl; ++i) {
      Real gi[3];
      for (int r = 0; r < 3; ++r)
        gi[r] = tab.dN[q][i][0] * ga[0 + r] + tab.dN[q][i][1] * ga[3 + r] +
                tab.dN[q][i][2] * ga[6 + r];
      for (int c = 0; c < 3; ++c)
        for (int k = 0; k < kP1NodesPerEl; ++k)
          Be[3 * i + c][k] -= g.wdetj[q] * psi[k] * gi[c];
    }
  }
}

namespace {

/// B, and with `bc` also the masked B^T, in one element pass on the
/// closed-form lattice patterns (fem/lattice_pattern.hpp). Each entry of
/// these blocks belongs to one element — a pressure mode lives in one
/// element — so it receives exactly one addition, 0.0 + Be; a masked entry
/// stays 0.0, the value zeroing a row of B leaves.
void assemble_gradient(const StructuredMesh& mesh, const DirichletBc* bc,
                       CsrMatrix& b, CsrMatrix* bt_masked) {
  const LatticePattern bp = LatticePattern::gradient(mesh);
  const LatticePattern btp = LatticePattern::divergence(mesh);
  b = bp.matrix();
  if (bc != nullptr) *bt_masked = btp.matrix();
  const Index* rp = b.row_ptr().data();
  const Index* rpt = bc != nullptr ? bt_masked->row_ptr().data() : nullptr;
  Real* vb = b.values().data();
  Real* vt = bc != nullptr ? bt_masked->values().data() : nullptr;

  for_each_element_colored(mesh, [&](Index e) {
    Real Be[3 * kQ2NodesPerEl][kP1NodesPerEl];
    gradient_element_matrix(mesh, e, Be);
    Index ei, ej, ek;
    mesh.element_ijk(e, ei, ej, ek);
    Index vdofs[3 * kQ2NodesPerEl];
    element_velocity_dofs(mesh, e, vdofs);
    for (int a = 0; a < kQ2NodesPerEl; ++a) {
      const Index i = 2 * ei + a % 3, j = 2 * ej + (a / 3) % 3,
                  k = 2 * ek + a / 9;
      const Index off = bp.column_offset(i, j, k, ei, ej, ek, 0);
      const Index off_t = btp.column_offset(ei, ej, ek, i, j, k, 0);
      for (int c = 0; c < 3; ++c) {
        const Index v = vdofs[3 * a + c];
        const bool masked = bc != nullptr && bc->is_constrained(v);
        for (int m = 0; m < kP1NodesPerEl; ++m) {
          const Real val = vb[rp[v] + off + m] += Be[3 * a + c][m];
          if (bc == nullptr || masked) continue;
          vt[rpt[pressure_dof(e, m)] + off_t + c] = val;
        }
      }
    }
  });
}

} // namespace

CsrMatrix assemble_gradient_block(const StructuredMesh& mesh) {
  CsrMatrix b;
  assemble_gradient(mesh, nullptr, b, nullptr);
  return b;
}

void assemble_gradient_blocks(const StructuredMesh& mesh, const DirichletBc& bc,
                              CsrMatrix& b, CsrMatrix& bt_masked) {
  assemble_gradient(mesh, &bc, b, &bt_masked);
}

namespace {

/// One element of the body-force scatter (shared by the global colored loop
/// and the subdomain-engine path).
inline void body_force_element(const StructuredMesh& mesh,
                               const QuadCoefficients& coeff,
                               const Q2Tabulation& tab, const Vec3& gravity,
                               Index e, Real* fp) {
  ElementGeometry g;
  element_geometry(mesh, e, g);
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(e, nodes);

  Real fe[kQ2NodesPerEl][3] = {};
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Real s = g.wdetj[q] * coeff.rho(e, q);
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c) fe[i][c] += s * gravity[c] * tab.N[q][i];
  }
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) fp[velocity_dof(nodes[i], c)] += fe[i][c];
}

} // namespace

Vector assemble_body_force(const StructuredMesh& mesh,
                           const QuadCoefficients& coeff, const Vec3& gravity) {
  return assemble_body_force(mesh, coeff, gravity, nullptr);
}

Vector assemble_body_force(const StructuredMesh& mesh,
                           const QuadCoefficients& coeff, const Vec3& gravity,
                           const SubdomainEngine* engine) {
  const auto& tab = q2_tabulation();
  Vector f(num_velocity_dofs(mesh), 0.0);
  Real* fp = f.data();

  if (engine != nullptr) {
    engine->apply_nodes(3, fp, [&](Index e, Real* w) {
      body_force_element(mesh, coeff, tab, gravity, e, w);
    });
    return f;
  }
  for_each_element_colored(mesh, [&](Index e) {
    body_force_element(mesh, coeff, tab, gravity, e, fp);
  });
  return f;
}

Vector assemble_forcing(const StructuredMesh& mesh,
                        const std::function<Vec3(const Vec3&)>& force) {
  PT_ASSERT(force != nullptr);
  const auto& tab = q2_tabulation();
  Vector f(num_velocity_dofs(mesh), 0.0);
  Real* fp = f.data();

  for_each_element_colored(mesh, [&](Index e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    Index nodes[kQ2NodesPerEl];
    mesh.element_nodes(e, nodes);

    Real fe[kQ2NodesPerEl][3] = {};
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Vec3 fq = force({g.xq[q][0], g.xq[q][1], g.xq[q][2]});
      for (int i = 0; i < kQ2NodesPerEl; ++i)
        for (int c = 0; c < 3; ++c)
          fe[i][c] += g.wdetj[q] * fq[c] * tab.N[q][i];
    }
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c) fp[velocity_dof(nodes[i], c)] += fe[i][c];
  });
  return f;
}

Vector assemble_traction_force(
    const StructuredMesh& mesh, MeshFace face,
    const std::function<Vec3(const Vec3&)>& traction) {
  PT_ASSERT(traction != nullptr);
  Vector f(num_velocity_dofs(mesh), 0.0);

  // Face parametrization: `axis` is the fixed direction, `side` picks min or
  // max; (t1, t2) are the in-face directions.
  const int axis = static_cast<int>(face) / 2;
  const bool max_side = static_cast<int>(face) % 2 == 1;
  const int t1 = (axis + 1) % 3, t2 = (axis + 2) % 3;

  const Index m[3] = {mesh.mx(), mesh.my(), mesh.mz()};
  const Index n1 = m[t1], n2 = m[t2];

  for (Index e2 = 0; e2 < n2; ++e2) {
    for (Index e1 = 0; e1 < n1; ++e1) {
      Index eijk[3];
      eijk[axis] = max_side ? m[axis] - 1 : 0;
      eijk[t1] = e1;
      eijk[t2] = e2;
      const Index e = mesh.element_index(eijk[0], eijk[1], eijk[2]);

      // The 9 face nodes of the Q2 element and the 4 face corner coords.
      Index nodes[kQ2NodesPerEl];
      mesh.element_nodes(e, nodes);
      const int fixed_local = max_side ? 2 : 0;
      Index fnodes[9];
      for (int b = 0; b < 3; ++b)
        for (int a = 0; a < 3; ++a) {
          int loc[3];
          loc[axis] = fixed_local;
          loc[t1] = a;
          loc[t2] = b;
          fnodes[a + 3 * b] = nodes[loc[0] + 3 * loc[1] + 9 * loc[2]];
        }
      Real xc[4][3]; // bilinear face geometry from the face corners
      for (int b = 0; b < 2; ++b)
        for (int a = 0; a < 2; ++a) {
          const Index n = fnodes[2 * a + 6 * b];
          const Vec3 x = mesh.node_coord(n);
          for (int d = 0; d < 3; ++d) xc[a + 2 * b][d] = x[d];
        }

      // 3x3 Gauss on the face.
      for (int qb = 0; qb < 3; ++qb) {
        for (int qa = 0; qa < 3; ++qa) {
          const Real xi = Gauss3::pts[qa], et = Gauss3::pts[qb];
          const Real w = Gauss3::wts[qa] * Gauss3::wts[qb];
          // Bilinear geometry: position and tangents.
          const Real Nc[4] = {(1 - xi) * (1 - et) / 4, (1 + xi) * (1 - et) / 4,
                              (1 - xi) * (1 + et) / 4, (1 + xi) * (1 + et) / 4};
          const Real dNxi[4] = {-(1 - et) / 4, (1 - et) / 4, -(1 + et) / 4,
                                (1 + et) / 4};
          const Real dNet[4] = {-(1 - xi) / 4, -(1 + xi) / 4, (1 - xi) / 4,
                                (1 + xi) / 4};
          Vec3 x{0, 0, 0}, gx{0, 0, 0}, ge{0, 0, 0};
          for (int v = 0; v < 4; ++v)
            for (int d = 0; d < 3; ++d) {
              x[d] += Nc[v] * xc[v][d];
              gx[d] += dNxi[v] * xc[v][d];
              ge[d] += dNet[v] * xc[v][d];
            }
          const Vec3 cr{gx[1] * ge[2] - gx[2] * ge[1],
                        gx[2] * ge[0] - gx[0] * ge[2],
                        gx[0] * ge[1] - gx[1] * ge[0]};
          const Real dS = norm3(cr);

          const Vec3 t = traction(x);
          // Q2 surface basis: tensor of the two 1D quadratics.
          for (int b = 0; b < 3; ++b)
            for (int a = 0; a < 3; ++a) {
              const Real N = q2_basis_1d(a, xi) * q2_basis_1d(b, et);
              const Index node = fnodes[a + 3 * b];
              for (int c = 0; c < 3; ++c)
                f[velocity_dof(node, c)] += w * dS * t[c] * N;
            }
        }
      }
    }
  }
  return f;
}

PressureMassSchur::PressureMassSchur(const StructuredMesh& mesh,
                                     const QuadCoefficients& coeff)
    : nel_(mesh.num_elements()) {
  blocks_.assign(nel_ * 16, 0.0);
  inv_blocks_.assign(nel_ * 16, 0.0);

  parallel_for(nel_, [&](Index e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    const P1Frame frame = element_p1_frame(mesh, e);

    Real M[4][4] = {};
    for (int q = 0; q < kQuadPerEl; ++q) {
      Real psi[kP1NodesPerEl];
      p1disc_eval(frame, g.xq[q], psi);
      const Real s = g.wdetj[q] / coeff.eta(e, q);
      for (int k = 0; k < 4; ++k)
        for (int l = 0; l < 4; ++l) M[k][l] += s * psi[k] * psi[l];
    }

    Real* blk = &blocks_[e * 16];
    for (int k = 0; k < 4; ++k)
      for (int l = 0; l < 4; ++l) blk[4 * k + l] = M[k][l];

    // Direct 4x4 inverse via Gauss-Jordan (SPD, well-conditioned thanks to
    // the scaled physical-frame basis).
    Real a[4][8];
    for (int k = 0; k < 4; ++k) {
      for (int l = 0; l < 4; ++l) {
        a[k][l] = M[k][l];
        a[k][4 + l] = (k == l) ? 1.0 : 0.0;
      }
    }
    for (int c = 0; c < 4; ++c) {
      // Partial pivot within the remaining rows.
      int piv = c;
      for (int r = c + 1; r < 4; ++r)
        if (std::abs(a[r][c]) > std::abs(a[piv][c])) piv = r;
      if (piv != c)
        for (int l = 0; l < 8; ++l) std::swap(a[c][l], a[piv][l]);
      PT_ASSERT_MSG(std::abs(a[c][c]) > 0.0, "singular pressure mass block");
      const Real inv = Real(1) / a[c][c];
      for (int l = 0; l < 8; ++l) a[c][l] *= inv;
      for (int r = 0; r < 4; ++r) {
        if (r == c) continue;
        const Real f = a[r][c];
        if (f == 0.0) continue;
        for (int l = 0; l < 8; ++l) a[r][l] -= f * a[c][l];
      }
    }
    Real* ib = &inv_blocks_[e * 16];
    for (int k = 0; k < 4; ++k)
      for (int l = 0; l < 4; ++l) ib[4 * k + l] = a[k][4 + l];
  });
}

void PressureMassSchur::apply(const Vector& r, Vector& z) const {
  PT_ASSERT(r.size() == size());
  if (z.size() != size()) z.resize(size());
  const Real* rp = r.data();
  Real* zp = z.data();
  parallel_for(nel_, [&](Index e) {
    const Real* ib = &inv_blocks_[e * 16];
    for (int k = 0; k < 4; ++k) {
      Real s = 0.0;
      for (int l = 0; l < 4; ++l) s += ib[4 * k + l] * rp[4 * e + l];
      zp[4 * e + k] = s;
    }
  });
}

void PressureMassSchur::mult(const Vector& x, Vector& y) const {
  PT_ASSERT(x.size() == size());
  if (y.size() != size()) y.resize(size());
  const Real* xp = x.data();
  Real* yp = y.data();
  parallel_for(nel_, [&](Index e) {
    const Real* blk = &blocks_[e * 16];
    for (int k = 0; k < 4; ++k) {
      Real s = 0.0;
      for (int l = 0; l < 4; ++l) s += blk[4 * k + l] * xp[4 * e + l];
      yp[4 * e + k] = s;
    }
  });
}

} // namespace ptatin
