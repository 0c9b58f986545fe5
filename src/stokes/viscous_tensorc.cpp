// Stored-coefficient tensor-product operator ("Tensor C", §III-D).
//
// Per quadrature point we precompute Gtilde = sqrt(w detJ eta) * (dxi/dx).
// The apply then needs no coordinates, no Jacobian inversion, and no eta
// load: P = Gref * Gtilde is the scaled physical gradient, T = P + P^T the
// scaled strain (x2), and Sref = T * Gtilde^T the reference stress, giving
// exactly the integrand 2 eta D(u):D(w) w detJ. This stores 9*27 scalars per
// element (the paper's anisotropic variant stores 21*27; ours is the
// isotropic specialization).
//
// Batched path (batch_width = 8): W elements in SoA lane buffers, with
// the stored Gtilde gathered lane-wise per quadrature point; bitwise
// identical to the scalar path (see viscous_tensor.cpp).
#include <cmath>

#include "stokes/tensor_contract.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

namespace {

/// One element of the scalar path (also the batched path's ragged tail).
inline void apply_tensorc_element(const StructuredMesh& mesh,
                                  const Q2Tabulation& tab, Index e,
                                  const Real* gtilde, const Real* xp,
                                  Real* yp) {
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(e, nodes);

  Real u[3][kQ2NodesPerEl];
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) u[c][i] = xp[velocity_dof(nodes[i], c)];

  Real gref[3][3][kQuadPerEl];
  for (int c = 0; c < 3; ++c)
    tensor_kernel::tensor_gradient(tab.B1, tab.D1, u[c], gref[c][0],
                                   gref[c][1], gref[c][2]);

  Real sref[3][3][kQuadPerEl];
  const Real* gt_base = gtilde + static_cast<std::size_t>(e) * kQuadPerEl * 9;
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Real* gt = gt_base + 9 * q; // gt[3d + r] = Gtilde_{d,r}
    // P[c][r] = sum_d gref[c][d] gt[d][r]  (scaled physical gradient).
    Real P[3][3];
    for (int c = 0; c < 3; ++c)
      for (int r = 0; r < 3; ++r)
        P[c][r] = gref[c][0][q] * gt[0 + r] + gref[c][1][q] * gt[3 + r] +
                  gref[c][2][q] * gt[6 + r];
    // T = P + P^T  (= 2 * scaled strain).
    Real T[3][3];
    for (int c = 0; c < 3; ++c)
      for (int r = 0; r < 3; ++r) T[c][r] = P[c][r] + P[r][c];
    // Sref[c][d] = sum_r T[c][r] gt[d][r].
    for (int c = 0; c < 3; ++c)
      for (int d = 0; d < 3; ++d)
        sref[c][d][q] = T[c][0] * gt[3 * d + 0] + T[c][1] * gt[3 * d + 1] +
                        T[c][2] * gt[3 * d + 2];
  }

  Real ye[3][kQ2NodesPerEl] = {};
  for (int c = 0; c < 3; ++c)
    tensor_kernel::tensor_gradient_transpose(tab.B1, tab.D1, sref[c][0],
                                             sref[c][1], sref[c][2], ye[c]);

  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) yp[velocity_dof(nodes[i], c)] += ye[c][i];
}

} // namespace

TensorCViscousOperator::TensorCViscousOperator(const StructuredMesh& mesh,
                                               const QuadCoefficients& coeff,
                                               const DirichletBc* bc,
                                               int batch_width,
                                               const SubdomainEngine* engine)
    : ViscousOperatorBase(mesh, coeff, bc, batch_width, engine) {
  gtilde_.assign(static_cast<std::size_t>(mesh_.num_elements()) * kQuadPerEl * 9,
                 0.0);
  parallel_for(mesh_.num_elements(), [&](Index e) {
    ElementGeometry g;
    element_geometry(mesh_, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real s = std::sqrt(g.wdetj[q] * coeff_.eta(e, q));
      Real* gt = &gtilde_[(static_cast<std::size_t>(e) * kQuadPerEl + q) * 9];
      for (int t = 0; t < 9; ++t) gt[t] = s * g.gamma[q][t];
    }
  });
}

template <int W>
void TensorCViscousOperator::apply_lanes(const Index* elems, const Real* xp,
                                         Real* yp) const {
  const auto& tab = q2_tabulation();
  const Real* gtilde = gtilde_.data();
  Index nodes[W][kQ2NodesPerEl];
  const Real* gt_base[W];
  for (int l = 0; l < W; ++l) {
    mesh_.element_nodes(elems[l], nodes[l]);
    gt_base[l] =
        gtilde + static_cast<std::size_t>(elems[l]) * kQuadPerEl * 9;
  }

  alignas(kSimdAlign) Real u[3][kQ2NodesPerEl * W];
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int l = 0; l < W; ++l) {
      const Index base = velocity_dof(nodes[l][i], 0);
      u[0][i * W + l] = xp[base + 0];
      u[1][i * W + l] = xp[base + 1];
      u[2][i * W + l] = xp[base + 2];
    }

  alignas(kSimdAlign) Real gref[3][3][kQuadPerEl * W];
  for (int c = 0; c < 3; ++c)
    tensor_kernel::tensor_gradient_batched<W>(
        tab.B1, tab.D1, u[c], gref[c][0], gref[c][1], gref[c][2]);

  alignas(kSimdAlign) Real sref[3][3][kQuadPerEl * W];
  for (int q = 0; q < kQuadPerEl; ++q) {
    // Lane transpose of the stored metric: gt[t][l].
    alignas(kSimdAlign) Real gt[9][W];
    for (int l = 0; l < W; ++l) {
      const Real* g = gt_base[l] + 9 * q;
      for (int t = 0; t < 9; ++t) gt[t][l] = g[t];
    }

    alignas(kSimdAlign) Real P[3][3][W];
    for (int c = 0; c < 3; ++c)
      for (int r = 0; r < 3; ++r) {
        const Real* g0 = &gref[c][0][q * W];
        const Real* g1 = &gref[c][1][q * W];
        const Real* g2 = &gref[c][2][q * W];
        PT_SIMD
        for (int l = 0; l < W; ++l)
          P[c][r][l] = g0[l] * gt[0 + r][l] + g1[l] * gt[3 + r][l] +
                       g2[l] * gt[6 + r][l];
      }

    alignas(kSimdAlign) Real T[3][3][W];
    for (int c = 0; c < 3; ++c)
      for (int r = 0; r < 3; ++r) {
        PT_SIMD
        for (int l = 0; l < W; ++l) T[c][r][l] = P[c][r][l] + P[r][c][l];
      }

    for (int c = 0; c < 3; ++c)
      for (int d = 0; d < 3; ++d) {
        Real* out = &sref[c][d][q * W];
        PT_SIMD
        for (int l = 0; l < W; ++l)
          out[l] = T[c][0][l] * gt[3 * d + 0][l] +
                   T[c][1][l] * gt[3 * d + 1][l] +
                   T[c][2][l] * gt[3 * d + 2][l];
      }
  }

  alignas(kSimdAlign) Real ye[3][kQ2NodesPerEl * W] = {};
  for (int c = 0; c < 3; ++c)
    tensor_kernel::tensor_gradient_transpose_batched<W>(
        tab.B1, tab.D1, sref[c][0], sref[c][1], sref[c][2], ye[c]);

  // Lane by lane: the engine's lists hand consecutive, node-sharing
  // elements to one batch, and each node must take them in list order.
  for (int l = 0; l < W; ++l)
    for (int i = 0; i < kQ2NodesPerEl; ++i) {
      const Index base = velocity_dof(nodes[l][i], 0);
      yp[base + 0] += ye[0][i * W + l];
      yp[base + 1] += ye[1][i * W + l];
      yp[base + 2] += ye[2][i * W + l];
    }
}

void TensorCViscousOperator::apply_unmasked(const Vector& x, Vector& y,
                                            bool newton) const {
  PT_ASSERT_MSG(!newton, "TensorC back-end is Picard-only");
  const auto& tab = q2_tabulation();
  const Real* xp = x.data();
  const Real* gtilde = gtilde_.data();
  sweep(
      y.data(),
      [&](auto lanes, const Index* elems, Real* yp) {
        apply_lanes<decltype(lanes)::value>(elems, xp, yp);
      },
      [&](Index e, Real* yp) {
        apply_tensorc_element(mesh_, tab, e, gtilde, xp, yp);
      });
}

OperatorCostModel TensorCViscousOperator::cost_model() const {
  // §III-D analytic model: 14214 flops; 4920 B perfect / 5832 B pessimal.
  // Width-invariant: batching does not change per-element counts.
  return {14214.0, 4920.0, 5832.0};
}

} // namespace ptatin
