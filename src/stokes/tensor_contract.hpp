// One-dimensional contraction kernels shared by the tensor-product operators.
//
// The 3^3 nodal lattice of a Q2 element is contracted axis-by-axis with the
// 3x3 one-dimensional basis (B̂) and derivative (D̂) matrices — the sum
// factorization of §III-D that applies the reference gradient in
// 3 * 2 * 3^4 = 4374 flops instead of the 13122 of the dense contraction.
//
// Every loop has a fixed trip count and unrolls fully. Each sum accumulates
// left-associated in a fixed order, scalar and batched alike: the bitwise
// batched == scalar contract and the -final_state digests depend on it.
#pragma once

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace ptatin {
namespace tensor_kernel {

/// Points per direction, and values per element lattice.
inline constexpr int kP = 3;
inline constexpr int kN = kP * kP * kP;

/// Contract a 27-value lattice along one axis with a 3x3 matrix:
/// out[q over axis] = sum_a M[q][a] in[a over axis]. `Transpose` applies M^T.
template <bool Transpose>
inline void contract_axis(const Real M[kP][kP], int axis, const Real* in,
                          Real* out) {
  const int stride = axis == 0 ? 1 : (axis == 1 ? kP : kP * kP);
  const int s1 = axis == 0 ? kP : 1;
  const int s2 = axis == 2 ? kP : kP * kP;
  for (int l2 = 0; l2 < kP; ++l2)
    for (int l1 = 0; l1 < kP; ++l1) {
      const int base = l1 * s1 + l2 * s2;
      Real v[kP];
      for (int a = 0; a < kP; ++a) v[a] = in[base + a * stride];
      for (int q = 0; q < kP; ++q) {
        Real acc = (Transpose ? M[0][q] : M[q][0]) * v[0];
        for (int a = 1; a < kP; ++a)
          acc += (Transpose ? M[a][q] : M[q][a]) * v[a];
        out[base + q * stride] = acc;
      }
    }
}

/// Forward gradient: nodal values (27) -> three reference derivatives at the
/// 27 tensorized quadrature points.
inline void tensor_gradient(const Real B[kP][kP], const Real D[kP][kP],
                            const Real* u, Real* gx, Real* gy, Real* gz) {
  Real t1[kN], t2[kN], t3[kN];
  contract_axis<false>(D, 0, u, t1);
  contract_axis<false>(B, 1, t1, t2);
  contract_axis<false>(B, 2, t2, gx);
  contract_axis<false>(B, 0, u, t1);
  contract_axis<false>(D, 1, t1, t2);
  contract_axis<false>(B, 2, t2, gy);
  contract_axis<false>(B, 1, t1, t3); // t1 = B_x u reused
  contract_axis<false>(D, 2, t3, gz);
}

/// Adjoint of tensor_gradient: accumulate nodal residuals from the three
/// reference-stress fields at quadrature points.
inline void tensor_gradient_transpose(const Real B[kP][kP],
                                      const Real D[kP][kP], const Real* sx,
                                      const Real* sy, const Real* sz,
                                      Real* y) {
  Real t1[kN], t2[kN], t3[kN];
  contract_axis<true>(B, 2, sx, t1);
  contract_axis<true>(B, 1, t1, t2);
  contract_axis<true>(D, 0, t2, t3);
  for (int i = 0; i < kN; ++i) y[i] += t3[i];
  contract_axis<true>(B, 2, sy, t1);
  contract_axis<true>(D, 1, t1, t2);
  contract_axis<true>(B, 0, t2, t3);
  for (int i = 0; i < kN; ++i) y[i] += t3[i];
  contract_axis<true>(D, 2, sz, t1);
  contract_axis<true>(B, 1, t1, t2);
  contract_axis<true>(B, 0, t2, t3);
  for (int i = 0; i < kN; ++i) y[i] += t3[i];
}

// ---------------------------------------------------------------------------
// Cross-element batched variants (§III-D "vectorize over elements").
//
// Data layout: SoA lane buffers `v[node][lane]` — the value index is major,
// the SIMD lane (element within the batch) minor, so every statement of the
// scalar kernel becomes one W-wide vector instruction over the lane loop.
// Each lane executes the scalar kernel's arithmetic in the scalar order, so
// batched results are bitwise identical to the per-element path.
// ---------------------------------------------------------------------------

/// Batched contract_axis: in/out are [27][W] lane buffers.
template <bool Transpose, int W>
inline void contract_axis_batched(const Real M[kP][kP], int axis,
                                  const Real* in, Real* out) {
  const int stride = axis == 0 ? 1 : (axis == 1 ? kP : kP * kP);
  const int s1 = axis == 0 ? kP : 1;
  const int s2 = axis == 2 ? kP : kP * kP;
  for (int l2 = 0; l2 < kP; ++l2)
    for (int l1 = 0; l1 < kP; ++l1) {
      const int base = l1 * s1 + l2 * s2;
      const Real* v[kP];
      for (int a = 0; a < kP; ++a) v[a] = in + (base + a * stride) * W;
      for (int q = 0; q < kP; ++q) {
        Real m[kP];
        for (int a = 0; a < kP; ++a) m[a] = Transpose ? M[a][q] : M[q][a];
        Real* o = out + (base + q * stride) * W;
        PT_SIMD
        for (int l = 0; l < W; ++l) {
          Real acc = m[0] * v[0][l];
          for (int a = 1; a < kP; ++a) acc += m[a] * v[a][l];
          o[l] = acc;
        }
      }
    }
}

/// Batched forward gradient: u, gx, gy, gz are [27][W] lane buffers.
template <int W>
inline void tensor_gradient_batched(const Real B[kP][kP], const Real D[kP][kP],
                                    const Real* u, Real* gx, Real* gy,
                                    Real* gz) {
  alignas(kSimdAlign) Real t1[kN * W], t2[kN * W], t3[kN * W];
  contract_axis_batched<false, W>(D, 0, u, t1);
  contract_axis_batched<false, W>(B, 1, t1, t2);
  contract_axis_batched<false, W>(B, 2, t2, gx);
  contract_axis_batched<false, W>(B, 0, u, t1);
  contract_axis_batched<false, W>(D, 1, t1, t2);
  contract_axis_batched<false, W>(B, 2, t2, gy);
  contract_axis_batched<false, W>(B, 1, t1, t3); // t1 = B_x u reused
  contract_axis_batched<false, W>(D, 2, t3, gz);
}

/// Batched adjoint gradient: sx, sy, sz, y are [27][W] lane buffers.
template <int W>
inline void tensor_gradient_transpose_batched(const Real B[kP][kP],
                                              const Real D[kP][kP],
                                              const Real* sx, const Real* sy,
                                              const Real* sz, Real* y) {
  alignas(kSimdAlign) Real t1[kN * W], t2[kN * W], t3[kN * W];
  contract_axis_batched<true, W>(B, 2, sx, t1);
  contract_axis_batched<true, W>(B, 1, t1, t2);
  contract_axis_batched<true, W>(D, 0, t2, t3);
  PT_SIMD
  for (int i = 0; i < kN * W; ++i) y[i] += t3[i];
  contract_axis_batched<true, W>(B, 2, sy, t1);
  contract_axis_batched<true, W>(D, 1, t1, t2);
  contract_axis_batched<true, W>(B, 0, t2, t3);
  PT_SIMD
  for (int i = 0; i < kN * W; ++i) y[i] += t3[i];
  contract_axis_batched<true, W>(D, 2, sz, t1);
  contract_axis_batched<true, W>(B, 1, t1, t2);
  contract_axis_batched<true, W>(B, 0, t2, t3);
  PT_SIMD
  for (int i = 0; i < kN * W; ++i) y[i] += t3[i];
}

} // namespace tensor_kernel
} // namespace ptatin
