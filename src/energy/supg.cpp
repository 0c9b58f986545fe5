#include "energy/supg.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fem/basis.hpp"
#include "fem/dofmap.hpp"
#include "fem/lattice_pattern.hpp"
#include "ksp/gmres.hpp"
#include "ksp/pc.hpp"
#include "stokes/fields.hpp"

namespace ptatin {

namespace {

Real supg_tau(Real vnorm, Real h, Real kappa) {
  if (vnorm < 1e-14) return 0.0;
  const Real pe = vnorm * h / (Real(2) * std::max(kappa, Real(1e-300)));
  // coth(Pe) - 1/Pe, series-expanded for small Pe to avoid cancellation.
  Real xi;
  if (pe < 1e-4) {
    xi = pe / Real(3);
  } else {
    xi = Real(1) / std::tanh(pe) - Real(1) / pe;
  }
  return h / (Real(2) * vnorm) * xi;
}

} // namespace

EnergySolver::EnergySolver(const StructuredMesh& mesh, Real kappa)
    : mesh_(mesh), kappa_(kappa) {}

Real EnergySolver::element_system(
    const Vector& u, Real dt, const Vector& T, Index e,
    Real Ae[kQ1NodesPerEl][kQ1NodesPerEl], Real be[kQ1NodesPerEl]) const {
  const auto& tab = q1_tabulation();
  Index verts[kQ1NodesPerEl];
  mesh_.element_corner_vertices(e, verts);
  Real xe[kQ1NodesPerEl][3];
  mesh_.element_corner_coords(e, xe);

  Vec3 lo, hi;
  mesh_.element_bbox(e, lo, hi);
  const Real h = std::cbrt((hi[0] - lo[0]) * (hi[1] - lo[1]) *
                           (hi[2] - lo[2]));

  for (int i = 0; i < kQ1NodesPerEl; ++i) {
    for (int j = 0; j < kQ1NodesPerEl; ++j) Ae[i][j] = 0.0;
    be[i] = 0.0;
  }
  Real tau_max = 0.0;
  const Real idt = Real(1) / dt;

  for (int q = 0; q < QuadQ1::kPoints; ++q) {
    // Geometry at the Q1 quadrature point.
    Mat3 J{};
    for (int v = 0; v < kQ1NodesPerEl; ++v)
      for (int r = 0; r < 3; ++r)
        for (int d = 0; d < 3; ++d)
          J[3 * r + d] += xe[v][r] * tab.dN[q][v][d];
    const Real det = det3(J);
    PT_DEBUG_ASSERT(det > 0);
    const Mat3 gi = inv3(J, det);
    const Real w = tab.w[q] * det;

    // Physical gradients of the Q1 basis.
    Real g[kQ1NodesPerEl][3];
    for (int v = 0; v < kQ1NodesPerEl; ++v)
      for (int r = 0; r < 3; ++r)
        g[v][r] = tab.dN[q][v][0] * gi[0 + r] + tab.dN[q][v][1] * gi[3 + r] +
                  tab.dN[q][v][2] * gi[6 + r];

    // Velocity at the quadrature point: locate its reference coordinate in
    // the Q2 element (the Q1 quadrature point in the same element e).
    const auto p = QuadQ1::point(q);
    const Vec3 vel = interpolate_velocity(mesh_, u, e, {p[0], p[1], p[2]});
    const Real vnorm =
        std::sqrt(vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    const Real tau = supg_tau(vnorm, h, kappa_);
    tau_max = std::max(tau_max, tau);

    const Real old_T = [&] {
      Real t = 0;
      for (int v = 0; v < kQ1NodesPerEl; ++v) t += tab.N[q][v] * T[verts[v]];
      return t;
    }();
    for (int i = 0; i < kQ1NodesPerEl; ++i) {
      // SUPG-augmented test function: N_i + tau u.grad(N_i).
      const Real ugi = vel[0] * g[i][0] + vel[1] * g[i][1] + vel[2] * g[i][2];
      const Real wi = tab.N[q][i] + tau * ugi;

      for (int j = 0; j < kQ1NodesPerEl; ++j) {
        const Real ugj =
            vel[0] * g[j][0] + vel[1] * g[j][1] + vel[2] * g[j][2];
        Real val = wi * (idt * tab.N[q][j] + ugj); // time + advection
        // Diffusion against the unstabilized gradient (Q1: second
        // derivatives vanish, so tau-weighted diffusion drops).
        val += kappa_ * (g[i][0] * g[j][0] + g[i][1] * g[j][1] +
                         g[i][2] * g[j][2]);
        Ae[i][j] += w * val;
      }
      be[i] += w * wi * (idt * old_T);
    }
  }
  return tau_max;
}

Real EnergySolver::assemble(const Vector& u, Real dt, const VertexBc& bc,
                            const Vector& T, CsrMatrix& A,
                            Vector& rhs) const {
  const Index nv = mesh_.num_vertices();
  // Vertex-lattice 27-point neighbourhoods in closed form
  // (fem/lattice_pattern.hpp).
  const LatticePattern pattern = LatticePattern::q1_vertex(mesh_);
  A = pattern.matrix();
  rhs.resize(nv);
  rhs.set_all(0.0);
  const Index* rp = A.row_ptr().data();
  Real* va = A.values().data();

  // Serial element order: an entry sums its element contributions in
  // element order, from +0.0, so exact-zero contributions change nothing.
  Real tau_max = 0.0;
  for (Index e = 0; e < mesh_.num_elements(); ++e) {
    Real Ae[kQ1NodesPerEl][kQ1NodesPerEl];
    Real be[kQ1NodesPerEl];
    tau_max = std::max(tau_max, element_system(u, dt, T, e, Ae, be));
    Index ei, ej, ek;
    mesh_.element_ijk(e, ei, ej, ek);
    for (int i = 0; i < kQ1NodesPerEl; ++i) {
      const Index vi = ei + (i & 1), vj = ej + ((i >> 1) & 1),
                  vk = ek + (i >> 2);
      const Index row = mesh_.vertex_index(vi, vj, vk);
      for (int j = 0; j < kQ1NodesPerEl; ++j)
        va[rp[row] + pattern.column_offset(vi, vj, vk, ei + (j & 1),
                                           ej + ((j >> 1) & 1), ek + (j >> 2),
                                           0)] += Ae[i][j];
      rhs[row] += be[i];
    }
  }

  // Dirichlet rows.
  for (Index v = 0; v < nv; ++v) {
    if (!bc.is_constrained(v)) continue;
    A.zero_row_set_identity(v);
    rhs[v] = bc.value(v);
  }
  return tau_max;
}

EnergySolveStats EnergySolver::step(const Vector& u, Real dt,
                                    const VertexBc& bc, Vector& T) const {
  PT_ASSERT(T.size() == mesh_.num_vertices());
  PT_ASSERT(bc.size() == mesh_.num_vertices());
  EnergySolveStats stats;
  CsrMatrix A;
  Vector rhs;
  stats.tau_max = assemble(u, dt, bc, T, A, rhs);

  // Solve (nonsymmetric with advection): GMRES + ILU(0).
  MatrixOperator op(&A);
  Ilu0Pc pc(A);
  KrylovSettings s;
  s.rtol = 1e-10;
  s.max_it = 500;
  s.restart = 50;
  s.sentinel_every = sentinel_every_;
  s.sentinel_tol = sentinel_tol_;
  Vector Tn;
  Tn.copy_from(T); // warm start
  stats.linear = gmres_solve(op, pc, rhs, Tn, s);
  T.copy_from(Tn);
  return stats;
}

} // namespace ptatin
