// Gauss-Lobatto collocated tensor-product operator (§III-D remark).
//
// "Spectral element methods typically perform a further optimization of
// choosing Gauss-Lobatto quadrature, for which B̂ is the identity. This
// reduces the flops in D_e by a factor of 3 but is not sufficiently accurate
// for our deformed meshes with variable coefficients."
//
// We implement the variant as an ablation: the 3-point Lobatto rule has its
// points AT the Q2 nodes, so basis interpolation disappears (B = I) and the
// gradient is a single 1D contraction per direction. The price is quadrature
// exactness degree 3 instead of 5 — the operator DIFFERS from the Galerkin
// one (see Ablation 6 in bench/ablation_solver.cpp and the accuracy tests).
#include "stokes/viscous_ops_gl.hpp"

#include "stokes/tensor_contract.hpp"

namespace ptatin {

namespace {

struct GlTabulation {
  Real D1[3][3];            ///< 1D derivative at the Lobatto points (= nodes)
  Real w[kQuadPerEl];       ///< tensorized Lobatto weights
  Real geomN[kQuadPerEl][kQ1NodesPerEl];
  Real geomdN[kQuadPerEl][kQ1NodesPerEl][3];
};

const GlTabulation& gl_tabulation() {
  static const GlTabulation tab = [] {
    GlTabulation t{};
    constexpr Real pts[3] = {-1.0, 0.0, 1.0};
    constexpr Real wts[3] = {1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0};
    for (int q = 0; q < 3; ++q)
      for (int a = 0; a < 3; ++a) t.D1[q][a] = q2_deriv_1d(a, pts[q]);
    for (int qz = 0; qz < 3; ++qz)
      for (int qy = 0; qy < 3; ++qy)
        for (int qx = 0; qx < 3; ++qx) {
          const int q = qx + 3 * qy + 9 * qz;
          t.w[q] = wts[qx] * wts[qy] * wts[qz];
          const Real xi[3] = {pts[qx], pts[qy], pts[qz]};
          q1_eval(xi, t.geomN[q]);
          q1_eval_deriv(xi, t.geomdN[q]);
        }
    return t;
  }();
  return tab;
}

} // namespace

void TensorGLViscousOperator::apply_unmasked(const Vector& x, Vector& y,
                                             bool newton) const {
  PT_ASSERT_MSG(!newton, "GL ablation back-end is Picard-only");
  const auto& tab = gl_tabulation();
  y.set_all(0.0);
  const Real* xp = x.data();
  Real* yp = y.data();

  for_each_element_colored(mesh_, [&](Index e) {
    Index nodes[kQ2NodesPerEl];
    mesh_.element_nodes(e, nodes);
    Real xe[kQ1NodesPerEl][3];
    mesh_.element_corner_coords(e, xe);

    Real u[3][kQ2NodesPerEl];
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c) u[c][i] = xp[velocity_dof(nodes[i], c)];

    // With B = I, the reference gradient per direction is ONE contraction.
    Real gref[3][3][kQuadPerEl];
    for (int c = 0; c < 3; ++c) {
      tensor_kernel::contract_axis<false>(tab.D1, 0, u[c], gref[c][0]);
      tensor_kernel::contract_axis<false>(tab.D1, 1, u[c], gref[c][1]);
      tensor_kernel::contract_axis<false>(tab.D1, 2, u[c], gref[c][2]);
    }

    Real sref[3][3][kQuadPerEl];
    for (int q = 0; q < kQuadPerEl; ++q) {
      // Geometry at the Lobatto point.
      Mat3 J{};
      for (int v = 0; v < kQ1NodesPerEl; ++v)
        for (int r = 0; r < 3; ++r)
          for (int d = 0; d < 3; ++d)
            J[3 * r + d] += xe[v][r] * tab.geomdN[q][v][d];
      const Real det = det3(J);
      const Mat3 ga = inv3(J, det);
      const Real scale = tab.w[q] * det;

      Real G[3][3];
      for (int c = 0; c < 3; ++c)
        for (int r = 0; r < 3; ++r)
          G[c][r] = gref[c][0][q] * ga[0 + r] + gref[c][1][q] * ga[3 + r] +
                    gref[c][2][q] * ga[6 + r];

      const Real eta = coeff_.eta(e, q);
      const Real Dxx = G[0][0], Dyy = G[1][1], Dzz = G[2][2];
      const Real Dxy = Real(0.5) * (G[0][1] + G[1][0]);
      const Real Dxz = Real(0.5) * (G[0][2] + G[2][0]);
      const Real Dyz = Real(0.5) * (G[1][2] + G[2][1]);
      Real s[3][3];
      s[0][0] = 2 * eta * Dxx;
      s[1][1] = 2 * eta * Dyy;
      s[2][2] = 2 * eta * Dzz;
      s[0][1] = s[1][0] = 2 * eta * Dxy;
      s[0][2] = s[2][0] = 2 * eta * Dxz;
      s[1][2] = s[2][1] = 2 * eta * Dyz;

      for (int c = 0; c < 3; ++c)
        for (int d = 0; d < 3; ++d)
          sref[c][d][q] = scale * (s[c][0] * ga[3 * d + 0] +
                                   s[c][1] * ga[3 * d + 1] +
                                   s[c][2] * ga[3 * d + 2]);
    }

    Real ye[3][kQ2NodesPerEl];
    for (int c = 0; c < 3; ++c) {
      Real t1[27], t2[27], t3[27];
      tensor_kernel::contract_axis<true>(tab.D1, 0, sref[c][0], t1);
      tensor_kernel::contract_axis<true>(tab.D1, 1, sref[c][1], t2);
      tensor_kernel::contract_axis<true>(tab.D1, 2, sref[c][2], t3);
      for (int i = 0; i < 27; ++i) ye[c][i] = t1[i] + t2[i] + t3[i];
    }

    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c) yp[velocity_dof(nodes[i], c)] += ye[c][i];
  });
}

OperatorCostModel TensorGLViscousOperator::cost_model() const {
  // The gradient application shrinks 3x (one 1D sweep per direction instead
  // of three): the Tensor model's 2 x 4374 gradient flops become 2 x 1458,
  // everything else unchanged: 15228 - 2*(4374 - 1458) = 9396.
  return {9396.0, 1008.0, 2376.0};
}

} // namespace ptatin
