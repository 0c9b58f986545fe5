#include "stokes/fields.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "fem/basis.hpp"
#include "fem/dofmap.hpp"
#include "stokes/geometry.hpp"

namespace ptatin {

void evaluate_strain_rates(const StructuredMesh& mesh, const Vector& u,
                           std::vector<StrainRateSample>& out) {
  PT_ASSERT(u.size() == num_velocity_dofs(mesh));
  const auto& tab = q2_tabulation();
  out.assign(mesh.num_elements() * kQuadPerEl, StrainRateSample{});
  const Real* up = u.data();

  parallel_for(mesh.num_elements(), [&](Index e) {
    Index nodes[kQ2NodesPerEl];
    mesh.element_nodes(e, nodes);
    Real ue[kQ2NodesPerEl][3];
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c) ue[i][c] = up[velocity_dof(nodes[i], c)];

    ElementGeometry g;
    element_geometry(mesh, e, g);

    for (int q = 0; q < kQuadPerEl; ++q) {
      const Mat3& ga = g.gamma[q];
      Real G[3][3] = {};
      for (int i = 0; i < kQ2NodesPerEl; ++i) {
        Real gi[3];
        for (int r = 0; r < 3; ++r)
          gi[r] = tab.dN[q][i][0] * ga[0 + r] + tab.dN[q][i][1] * ga[3 + r] +
                  tab.dN[q][i][2] * ga[6 + r];
        for (int c = 0; c < 3; ++c)
          for (int r = 0; r < 3; ++r) G[c][r] += ue[i][c] * gi[r];
      }
      StrainRateSample& s = out[e * kQuadPerEl + q];
      s.d[0] = G[0][0];
      s.d[1] = G[1][1];
      s.d[2] = G[2][2];
      s.d[3] = Real(0.5) * (G[0][1] + G[1][0]);
      s.d[4] = Real(0.5) * (G[0][2] + G[2][0]);
      s.d[5] = Real(0.5) * (G[1][2] + G[2][1]);
      s.j2 = Real(0.5) * (s.d[0] * s.d[0] + s.d[1] * s.d[1] + s.d[2] * s.d[2]) +
             s.d[3] * s.d[3] + s.d[4] * s.d[4] + s.d[5] * s.d[5];
    }
  });
}

void evaluate_pressure_at_quadrature(const StructuredMesh& mesh,
                                     const Vector& p, std::vector<Real>& out) {
  PT_ASSERT(p.size() == num_pressure_dofs(mesh));
  out.assign(mesh.num_elements() * kQuadPerEl, 0.0);
  const Real* pp = p.data();

  parallel_for(mesh.num_elements(), [&](Index e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    const P1Frame frame = element_p1_frame(mesh, e);
    for (int q = 0; q < kQuadPerEl; ++q) {
      Real psi[kP1NodesPerEl];
      p1disc_eval(frame, g.xq[q], psi);
      Real v = 0.0;
      for (int k = 0; k < kP1NodesPerEl; ++k)
        v += psi[k] * pp[pressure_dof(e, k)];
      out[e * kQuadPerEl + q] = v;
    }
  });
}

void evaluate_vertex_field_at_quadrature(const StructuredMesh& mesh,
                                         const Vector& tv,
                                         std::vector<Real>& out) {
  PT_ASSERT(tv.size() == mesh.num_vertices());
  const auto& geom = geom_tabulation();
  out.assign(mesh.num_elements() * kQuadPerEl, 0.0);
  const Real* tp = tv.data();

  parallel_for(mesh.num_elements(), [&](Index e) {
    Index verts[kQ1NodesPerEl];
    mesh.element_corner_vertices(e, verts);
    for (int q = 0; q < kQuadPerEl; ++q) {
      Real v = 0.0;
      for (int a = 0; a < kQ1NodesPerEl; ++a)
        v += geom.N[q][a] * tp[verts[a]];
      out[e * kQuadPerEl + q] = v;
    }
  });
}

Vec3 interpolate_velocity(const StructuredMesh& mesh, const Vector& u, Index e,
                          const Vec3& xi) {
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(e, nodes);
  Real N[kQ2NodesPerEl];
  const Real p[3] = {xi[0], xi[1], xi[2]};
  q2_eval(p, N);
  Vec3 v{0, 0, 0};
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c)
      v[c] += N[i] * u[velocity_dof(nodes[i], c)];
  return v;
}

StrainRateSample strain_rate_at_point(const StructuredMesh& mesh,
                                      const Vector& u, Index e,
                                      const Vec3& xi) {
  // Geometry: trilinear Jacobian at xi.
  Real xe[kQ1NodesPerEl][3];
  mesh.element_corner_coords(e, xe);
  Real Ng[kQ1NodesPerEl], dNg[kQ1NodesPerEl][3];
  const Real p[3] = {xi[0], xi[1], xi[2]};
  q1_eval(p, Ng);
  q1_eval_deriv(p, dNg);
  Mat3 J{};
  for (int v = 0; v < kQ1NodesPerEl; ++v)
    for (int r = 0; r < 3; ++r)
      for (int d = 0; d < 3; ++d) J[3 * r + d] += xe[v][r] * dNg[v][d];
  const Real det = det3(J);
  PT_DEBUG_ASSERT(det > 0);
  const Mat3 gi = inv3(J, det);

  // Q2 gradients.
  Real dN[kQ2NodesPerEl][3];
  q2_eval_deriv(p, dN);
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(e, nodes);

  Real G[3][3] = {};
  for (int i = 0; i < kQ2NodesPerEl; ++i) {
    Real g[3];
    for (int r = 0; r < 3; ++r)
      g[r] = dN[i][0] * gi[0 + r] + dN[i][1] * gi[3 + r] + dN[i][2] * gi[6 + r];
    for (int c = 0; c < 3; ++c) {
      const Real uc = u[velocity_dof(nodes[i], c)];
      for (int r = 0; r < 3; ++r) G[c][r] += uc * g[r];
    }
  }

  StrainRateSample s;
  s.d[0] = G[0][0];
  s.d[1] = G[1][1];
  s.d[2] = G[2][2];
  s.d[3] = Real(0.5) * (G[0][1] + G[1][0]);
  s.d[4] = Real(0.5) * (G[0][2] + G[2][0]);
  s.d[5] = Real(0.5) * (G[1][2] + G[2][1]);
  s.j2 = Real(0.5) * (s.d[0] * s.d[0] + s.d[1] * s.d[1] + s.d[2] * s.d[2]) +
         s.d[3] * s.d[3] + s.d[4] * s.d[4] + s.d[5] * s.d[5];
  return s;
}

Real pressure_at_point(const StructuredMesh& mesh, const Vector& p, Index e,
                       const Vec3& x_physical) {
  const P1Frame frame = element_p1_frame(mesh, e);
  Real psi[kP1NodesPerEl];
  const Real x[3] = {x_physical[0], x_physical[1], x_physical[2]};
  p1disc_eval(frame, x, psi);
  Real v = 0.0;
  for (int k = 0; k < kP1NodesPerEl; ++k) v += psi[k] * p[pressure_dof(e, k)];
  return v;
}

Real interpolate_vertex_field(const StructuredMesh& mesh, const Vector& tv,
                              Index e, const Vec3& xi) {
  Index verts[kQ1NodesPerEl];
  mesh.element_corner_vertices(e, verts);
  Real N[kQ1NodesPerEl];
  const Real p[3] = {xi[0], xi[1], xi[2]};
  q1_eval(p, N);
  Real v = 0.0;
  for (int a = 0; a < kQ1NodesPerEl; ++a) v += N[a] * tv[verts[a]];
  return v;
}

Real divergence_l2(const StructuredMesh& mesh, const Vector& u) {
  std::vector<StrainRateSample> s;
  evaluate_strain_rates(mesh, u, s);
  // div u = tr(D); integrate (div u)^2 with the quadrature weights.
  Real total = 0.0;
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const auto& d = s[e * kQuadPerEl + q].d;
      const Real div = d[0] + d[1] + d[2];
      total += g.wdetj[q] * div * div;
    }
  }
  return std::sqrt(total);
}

} // namespace ptatin
