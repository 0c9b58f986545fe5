#include "stokes/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ptatin {

void compute_element_geometry(const Real xe[kQ1NodesPerEl][3],
                              ElementGeometry& g) {
  const auto& geom = geom_tabulation();
  const auto& tab = q2_tabulation();
  for (int q = 0; q < kQuadPerEl; ++q) {
    // J_rd = d x_r / d xi_d = sum_v xe[v][r] dN_v/dxi_d.
    Mat3 J{};
    Real xq[3] = {0, 0, 0};
    for (int v = 0; v < kQ1NodesPerEl; ++v) {
      for (int r = 0; r < 3; ++r) {
        xq[r] += geom.N[q][v] * xe[v][r];
        for (int d = 0; d < 3; ++d) J[3 * r + d] += xe[v][r] * geom.dN[q][v][d];
      }
    }
    const Real det = det3(J);
    PT_DEBUG_ASSERT(det > 0.0);
    g.gamma[q] = inv3(J, det); // gamma_dr = d xi_d / d x_r
    g.wdetj[q] = tab.w[q] * det;
    for (int r = 0; r < 3; ++r) g.xq[q][r] = xq[r];
  }
}

P1Frame compute_p1_frame(const Real xe[kQ1NodesPerEl][3]) {
  P1Frame f{};
  for (int d = 0; d < 3; ++d) {
    Real lo = xe[0][d], hi = xe[0][d];
    for (int v = 1; v < kQ1NodesPerEl; ++v) {
      lo = std::min(lo, xe[v][d]);
      hi = std::max(hi, xe[v][d]);
    }
    f.center[d] = Real(0.5) * (lo + hi);
    const Real half = Real(0.5) * (hi - lo);
    f.scale[d] = half > 0 ? Real(1) / half : Real(1);
  }
  return f;
}

void element_geometry(const StructuredMesh& mesh, Index e, ElementGeometry& g) {
  Real xe[kQ1NodesPerEl][3];
  mesh.element_corner_coords(e, xe);
  compute_element_geometry(xe, g);
}

namespace {

/// element_geometry_batch into g when it is non-null, with the lanes' P1
/// basis when p1 is non-null.
template <int W>
void geometry_batch(const StructuredMesh& mesh, const Index* elems,
                    ElementGeometryBatch<W>* g, P1BasisBatch<W>* p1) {
  const auto& geom = geom_tabulation();
  const auto& tab = q2_tabulation();

  // Gather corner coordinates into lanes: xe[v][r][lane]; with p1 also each
  // lane's pressure frame, from the scalar compute_p1_frame.
  alignas(kSimdAlign) Real xe[kQ1NodesPerEl][3][W];
  alignas(kSimdAlign) Real center[3][W], inv_half[3][W];
  for (int l = 0; l < W; ++l) {
    Real xs[kQ1NodesPerEl][3];
    mesh.element_corner_coords(elems[l], xs);
    for (int v = 0; v < kQ1NodesPerEl; ++v)
      for (int r = 0; r < 3; ++r) xe[v][r][l] = xs[v][r];
    if (p1 != nullptr) {
      const P1Frame f = compute_p1_frame(xs);
      for (int r = 0; r < 3; ++r) {
        center[r][l] = f.center[r];
        inv_half[r][l] = f.scale[r];
      }
    }
  }
  if (p1 != nullptr) {
    for (int q = 0; q < kQuadPerEl; ++q) {
      // x_q in compute_element_geometry's order (v-major sums from 0), then
      // p1disc_eval's (x - center) * scale.
      alignas(kSimdAlign) Real xq[3][W] = {};
      for (int v = 0; v < kQ1NodesPerEl; ++v)
        for (int r = 0; r < 3; ++r) {
          const Real nv = geom.N[q][v];
          PT_SIMD
          for (int l = 0; l < W; ++l) xq[r][l] += nv * xe[v][r][l];
        }
      for (int r = 0; r < 3; ++r) {
        Real* psi = p1->psi[q][r];
        PT_SIMD
        for (int l = 0; l < W; ++l)
          psi[l] = (xq[r][l] - center[r][l]) * inv_half[r][l];
      }
    }
  }

  if (g == nullptr) return;
  for (int q = 0; q < kQuadPerEl; ++q) {
    // Per lane, the exact accumulation order of compute_element_geometry:
    // J[3r+d] += xe[v][r] dN[q][v][d], v-major. This file is compiled with
    // FP contraction pinned off (see CMakeLists.txt), so the lane-vectorized
    // det3/inv3 below rounds identically to the scalar path.
    alignas(kSimdAlign) Real J[9][W] = {};
    for (int v = 0; v < kQ1NodesPerEl; ++v)
      for (int r = 0; r < 3; ++r)
        for (int d = 0; d < 3; ++d) {
          const Real dn = geom.dN[q][v][d];
          PT_SIMD
          for (int l = 0; l < W; ++l) J[3 * r + d][l] += xe[v][r][l] * dn;
        }

    Real* ga = &g->gamma[q][0][0];
    Real* wd = g->wdetj[q];
    const Real wq = tab.w[q];
    alignas(kSimdAlign) Real det[W];
    PT_SIMD
    for (int l = 0; l < W; ++l)
      // det3 / inv3 of common/small_mat.hpp, expanded lane-wise with the
      // identical expression trees so rounding matches the scalar path.
      det[l] = J[0][l] * (J[4][l] * J[8][l] - J[5][l] * J[7][l]) -
               J[1][l] * (J[3][l] * J[8][l] - J[5][l] * J[6][l]) +
               J[2][l] * (J[3][l] * J[7][l] - J[4][l] * J[6][l]);
    for (int l = 0; l < W; ++l) PT_DEBUG_ASSERT(det[l] > 0.0);
    PT_SIMD
    for (int l = 0; l < W; ++l) {
      const Real id = Real(1) / det[l];
      ga[0 * W + l] = (J[4][l] * J[8][l] - J[5][l] * J[7][l]) * id;
      ga[1 * W + l] = (J[2][l] * J[7][l] - J[1][l] * J[8][l]) * id;
      ga[2 * W + l] = (J[1][l] * J[5][l] - J[2][l] * J[4][l]) * id;
      ga[3 * W + l] = (J[5][l] * J[6][l] - J[3][l] * J[8][l]) * id;
      ga[4 * W + l] = (J[0][l] * J[8][l] - J[2][l] * J[6][l]) * id;
      ga[5 * W + l] = (J[2][l] * J[3][l] - J[0][l] * J[5][l]) * id;
      ga[6 * W + l] = (J[3][l] * J[7][l] - J[4][l] * J[6][l]) * id;
      ga[7 * W + l] = (J[1][l] * J[6][l] - J[0][l] * J[7][l]) * id;
      ga[8 * W + l] = (J[0][l] * J[4][l] - J[1][l] * J[3][l]) * id;
      wd[l] = wq * det[l];
    }
  }
}

} // namespace

template <int W>
void element_geometry_batch(const StructuredMesh& mesh, const Index* elems,
                            ElementGeometryBatch<W>& g) {
  geometry_batch<W>(mesh, elems, &g, nullptr);
}

template <int W>
void element_geometry_batch(const StructuredMesh& mesh, const Index* elems,
                            ElementGeometryBatch<W>& g, P1BasisBatch<W>& p1) {
  geometry_batch<W>(mesh, elems, &g, &p1);
}

template <int W>
void p1_basis_batch(const StructuredMesh& mesh, const Index* elems,
                    P1BasisBatch<W>& p1) {
  geometry_batch<W>(mesh, elems, nullptr, &p1);
}

template void element_geometry_batch<8>(const StructuredMesh&, const Index*,
                                        ElementGeometryBatch<8>&);
template void element_geometry_batch<8>(const StructuredMesh&, const Index*,
                                        ElementGeometryBatch<8>&,
                                        P1BasisBatch<8>&);
template void p1_basis_batch<8>(const StructuredMesh&, const Index*,
                                P1BasisBatch<8>&);

P1Frame element_p1_frame(const StructuredMesh& mesh, Index e) {
  Real xe[kQ1NodesPerEl][3];
  mesh.element_corner_coords(e, xe);
  return compute_p1_frame(xe);
}

} // namespace ptatin
