// Non-tensor matrix-free viscous operator (§III-D, Eq. 18).
//
// The reference matrix-free implementation: per element, gather the 81
// velocity values, recompute the metric terms at each of the 27 quadrature
// points, form physical basis gradients from the full dN table (the implicit
// 81x27 D_e matrix), evaluate the stress, and scatter the weak-form residual.
//
// Batched path (batch_width = 8): W elements in SoA lane buffers;
// every statement of the per-q kernel runs lane-vectorized and is bitwise
// identical to the scalar path (see viscous_tensor.cpp).
#include "stokes/viscous_ops.hpp"

namespace ptatin {

namespace {

/// Add the (optionally Newton-augmented) stress at one quadrature point.
/// G is the physical velocity gradient; returns sigma (full 3x3, scaled).
inline void stress_at_point(const Real G[3][3], Real eta, Real scale,
                            bool newton, Real deta, const Real* d0,
                            Real sigma[3][3]) {
  // D = sym(G); sigma = 2 eta D.
  const Real Dxx = G[0][0], Dyy = G[1][1], Dzz = G[2][2];
  const Real Dxy = Real(0.5) * (G[0][1] + G[1][0]);
  const Real Dxz = Real(0.5) * (G[0][2] + G[2][0]);
  const Real Dyz = Real(0.5) * (G[1][2] + G[2][1]);

  Real sxx = 2 * eta * Dxx, syy = 2 * eta * Dyy, szz = 2 * eta * Dzz;
  Real sxy = 2 * eta * Dxy, sxz = 2 * eta * Dxz, syz = 2 * eta * Dyz;

  if (newton) {
    // delta_sigma += 2 eta' (D0 : D(du)) D0 with D0 stored symmetric
    // (xx,yy,zz,xy,xz,yz).
    const Real dd = d0[0] * Dxx + d0[1] * Dyy + d0[2] * Dzz +
                    2 * (d0[3] * Dxy + d0[4] * Dxz + d0[5] * Dyz);
    const Real f = 2 * deta * dd;
    sxx += f * d0[0];
    syy += f * d0[1];
    szz += f * d0[2];
    sxy += f * d0[3];
    sxz += f * d0[4];
    syz += f * d0[5];
  }

  sigma[0][0] = scale * sxx;
  sigma[1][1] = scale * syy;
  sigma[2][2] = scale * szz;
  sigma[0][1] = sigma[1][0] = scale * sxy;
  sigma[0][2] = sigma[2][0] = scale * sxz;
  sigma[1][2] = sigma[2][1] = scale * syz;
}

/// One element of the scalar path (also the batched path's ragged tail).
inline void apply_mf_element(const StructuredMesh& mesh,
                             const QuadCoefficients& coeff,
                             const Q2Tabulation& tab, bool newton, Index e,
                             const Real* xp, Real* yp) {
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(e, nodes);

  Real ue[kQ2NodesPerEl][3];
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) ue[i][c] = xp[velocity_dof(nodes[i], c)];

  ElementGeometry g;
  element_geometry(mesh, e, g);

  Real ye[kQ2NodesPerEl][3] = {};
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Mat3& ga = g.gamma[q];
    // Physical basis gradients gphys[i][r].
    Real gphys[kQ2NodesPerEl][3];
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int r = 0; r < 3; ++r)
        gphys[i][r] = tab.dN[q][i][0] * ga[0 + r] +
                      tab.dN[q][i][1] * ga[3 + r] + tab.dN[q][i][2] * ga[6 + r];

    // Velocity gradient G[c][r] = sum_i ue[i][c] gphys[i][r].
    Real G[3][3] = {};
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c)
        for (int r = 0; r < 3; ++r) G[c][r] += ue[i][c] * gphys[i][r];

    Real sigma[3][3];
    stress_at_point(G, coeff.eta(e, q), g.wdetj[q], newton,
                    newton ? coeff.deta(e, q) : Real(0),
                    newton ? coeff.d0(e, q) : nullptr, sigma);

    // Scatter: ye[i][c] += sum_r sigma[c][r] gphys[i][r].
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c)
        ye[i][c] += sigma[c][0] * gphys[i][0] + sigma[c][1] * gphys[i][1] +
                    sigma[c][2] * gphys[i][2];
  }

  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) yp[velocity_dof(nodes[i], c)] += ye[i][c];
}

} // namespace

template <int W>
void MfViscousOperator::apply_lanes(const Index* elems, const Real* xp,
                                    Real* yp, bool newton) const {
  const auto& tab = q2_tabulation();
  Index nodes[W][kQ2NodesPerEl];
  for (int l = 0; l < W; ++l) mesh_.element_nodes(elems[l], nodes[l]);

  // ue[i][c][l]: node-major like the scalar kernel, lane-minor.
  alignas(kSimdAlign) Real ue[kQ2NodesPerEl][3][W];
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int l = 0; l < W; ++l) {
      const Index base = velocity_dof(nodes[l][i], 0);
      ue[i][0][l] = xp[base + 0];
      ue[i][1][l] = xp[base + 1];
      ue[i][2][l] = xp[base + 2];
    }

  ElementGeometryBatch<W> g;
  element_geometry_batch<W>(mesh_, elems, g);

  alignas(kSimdAlign) Real ye[kQ2NodesPerEl][3][W] = {};
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Real* ga = &g.gamma[q][0][0]; // ga[(3d + r)*W + l]
    alignas(kSimdAlign) Real gphys[kQ2NodesPerEl][3][W];
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int r = 0; r < 3; ++r) {
        const Real d0n = tab.dN[q][i][0];
        const Real d1n = tab.dN[q][i][1];
        const Real d2n = tab.dN[q][i][2];
        PT_SIMD
        for (int l = 0; l < W; ++l)
          gphys[i][r][l] = d0n * ga[(0 + r) * W + l] +
                           d1n * ga[(3 + r) * W + l] +
                           d2n * ga[(6 + r) * W + l];
      }

    alignas(kSimdAlign) Real G[3][3][W] = {};
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c)
        for (int r = 0; r < 3; ++r) {
          PT_SIMD
          for (int l = 0; l < W; ++l)
            G[c][r][l] += ue[i][c][l] * gphys[i][r][l];
        }

    // Stress per lane — the scalar stress_at_point body, lane-wise.
    alignas(kSimdAlign) Real eta[W];
    for (int l = 0; l < W; ++l) eta[l] = coeff_.eta(elems[l], q);
    const Real* wd = g.wdetj[q];

    alignas(kSimdAlign) Real sig[3][3][W];
    alignas(kSimdAlign) Real sxx[W], syy[W], szz[W], sxy[W], sxz[W],
        syz[W];
    PT_SIMD
    for (int l = 0; l < W; ++l) {
      const Real Dxx = G[0][0][l], Dyy = G[1][1][l], Dzz = G[2][2][l];
      const Real Dxy = Real(0.5) * (G[0][1][l] + G[1][0][l]);
      const Real Dxz = Real(0.5) * (G[0][2][l] + G[2][0][l]);
      const Real Dyz = Real(0.5) * (G[1][2][l] + G[2][1][l]);
      sxx[l] = 2 * eta[l] * Dxx;
      syy[l] = 2 * eta[l] * Dyy;
      szz[l] = 2 * eta[l] * Dzz;
      sxy[l] = 2 * eta[l] * Dxy;
      sxz[l] = 2 * eta[l] * Dxz;
      syz[l] = 2 * eta[l] * Dyz;
    }
    if (newton) {
      alignas(kSimdAlign) Real deta[W], d0[kSymSize][W];
      for (int l = 0; l < W; ++l) {
        deta[l] = coeff_.deta(elems[l], q);
        const Real* d = coeff_.d0(elems[l], q);
        for (int t = 0; t < kSymSize; ++t) d0[t][l] = d[t];
      }
      PT_SIMD
      for (int l = 0; l < W; ++l) {
        const Real Dxx = G[0][0][l], Dyy = G[1][1][l], Dzz = G[2][2][l];
        const Real Dxy = Real(0.5) * (G[0][1][l] + G[1][0][l]);
        const Real Dxz = Real(0.5) * (G[0][2][l] + G[2][0][l]);
        const Real Dyz = Real(0.5) * (G[1][2][l] + G[2][1][l]);
        const Real dd = d0[0][l] * Dxx + d0[1][l] * Dyy + d0[2][l] * Dzz +
                        2 * (d0[3][l] * Dxy + d0[4][l] * Dxz +
                             d0[5][l] * Dyz);
        const Real f = 2 * deta[l] * dd;
        sxx[l] += f * d0[0][l];
        syy[l] += f * d0[1][l];
        szz[l] += f * d0[2][l];
        sxy[l] += f * d0[3][l];
        sxz[l] += f * d0[4][l];
        syz[l] += f * d0[5][l];
      }
    }
    PT_SIMD
    for (int l = 0; l < W; ++l) {
      sig[0][0][l] = wd[l] * sxx[l];
      sig[1][1][l] = wd[l] * syy[l];
      sig[2][2][l] = wd[l] * szz[l];
      sig[0][1][l] = sig[1][0][l] = wd[l] * sxy[l];
      sig[0][2][l] = sig[2][0][l] = wd[l] * sxz[l];
      sig[1][2][l] = sig[2][1][l] = wd[l] * syz[l];
    }

    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c) {
        PT_SIMD
        for (int l = 0; l < W; ++l)
          ye[i][c][l] += sig[c][0][l] * gphys[i][0][l] +
                         sig[c][1][l] * gphys[i][1][l] +
                         sig[c][2][l] * gphys[i][2][l];
      }
  }

  // Lane by lane: the engine's lists hand consecutive, node-sharing
  // elements to one batch, and each node must take them in list order.
  for (int l = 0; l < W; ++l)
    for (int i = 0; i < kQ2NodesPerEl; ++i) {
      const Index base = velocity_dof(nodes[l][i], 0);
      yp[base + 0] += ye[i][0][l];
      yp[base + 1] += ye[i][1][l];
      yp[base + 2] += ye[i][2][l];
    }
}

void MfViscousOperator::apply_unmasked(const Vector& x, Vector& y,
                                       bool newton) const {
  const auto& tab = q2_tabulation();
  const Real* xp = x.data();
  sweep(
      y.data(),
      [&](auto lanes, const Index* elems, Real* yp) {
        apply_lanes<decltype(lanes)::value>(elems, xp, yp, newton);
      },
      [&](Index e, Real* yp) {
        apply_mf_element(mesh_, coeff_, tab, newton, e, xp, yp);
      });
}

OperatorCostModel MfViscousOperator::cost_model() const {
  // §III-D analytic model: 53622 flops; 1008 B perfect / 2376 B pessimal.
  // Width-invariant: batching does not change per-element counts.
  return {53622.0, 1008.0, 2376.0};
}

} // namespace ptatin
