// One-dimensional contraction kernels shared by the tensor-product operators.
//
// The 3^3 nodal lattice of a Q2 element is contracted axis-by-axis with the
// 3x3 one-dimensional basis (B̂) and derivative (D̂) matrices — the sum
// factorization of §III-D that applies the reference gradient in
// 3 * 2 * 3^4 = 4374 flops instead of the 13122 of the dense contraction.
//
// The kernels are templated over the compile-time 1D point count P (P = 3
// for Q2) so every loop has a fixed trip count and unrolls fully. Each sum
// accumulates left-associated in a fixed order, scalar and batched alike:
// the bitwise batched == scalar contract and the -final_state digests
// depend on it.
#pragma once

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace ptatin {
namespace tensor_kernel {

/// Contract a P^3-value lattice along one axis with a PxP matrix (row-major,
/// M[q*P + a]): out[q over axis] = sum_a M[q][a] in[a over axis].
/// `Transpose` applies M^T.
template <bool Transpose, int P>
inline void contract_axis(const Real* M, int axis, const Real* in, Real* out) {
  const int stride = axis == 0 ? 1 : (axis == 1 ? P : P * P);
  const int s1 = axis == 0 ? P : 1;
  const int s2 = axis == 2 ? P : P * P;
  for (int l2 = 0; l2 < P; ++l2)
    for (int l1 = 0; l1 < P; ++l1) {
      const int base = l1 * s1 + l2 * s2;
      Real v[P];
      for (int a = 0; a < P; ++a) v[a] = in[base + a * stride];
      for (int q = 0; q < P; ++q) {
        Real acc = (Transpose ? M[0 * P + q] : M[q * P + 0]) * v[0];
        for (int a = 1; a < P; ++a)
          acc += (Transpose ? M[a * P + q] : M[q * P + a]) * v[a];
        out[base + q * stride] = acc;
      }
    }
}

/// Q2 convenience overload over the historical [3][3] matrix type.
template <bool Transpose>
inline void contract_axis(const Real M[3][3], int axis, const Real* in,
                          Real* out) {
  contract_axis<Transpose, 3>(&M[0][0], axis, in, out);
}

/// Forward gradient: nodal values (P^3) -> three reference derivatives at the
/// P^3 tensorized quadrature points.
template <int P>
inline void tensor_gradient_p(const Real* B, const Real* D, const Real* u,
                              Real* gx, Real* gy, Real* gz) {
  constexpr int N = P * P * P;
  Real t1[N], t2[N], t3[N];
  contract_axis<false, P>(D, 0, u, t1);
  contract_axis<false, P>(B, 1, t1, t2);
  contract_axis<false, P>(B, 2, t2, gx);
  contract_axis<false, P>(B, 0, u, t1);
  contract_axis<false, P>(D, 1, t1, t2);
  contract_axis<false, P>(B, 2, t2, gy);
  contract_axis<false, P>(B, 1, t1, t3); // t1 = B_x u reused
  contract_axis<false, P>(D, 2, t3, gz);
}

inline void tensor_gradient(const Real B[3][3], const Real D[3][3],
                            const Real* u, Real* gx, Real* gy, Real* gz) {
  tensor_gradient_p<3>(&B[0][0], &D[0][0], u, gx, gy, gz);
}

/// Adjoint of tensor_gradient: accumulate nodal residuals from the three
/// reference-stress fields at quadrature points.
template <int P>
inline void tensor_gradient_transpose_p(const Real* B, const Real* D,
                                        const Real* sx, const Real* sy,
                                        const Real* sz, Real* y) {
  constexpr int N = P * P * P;
  Real t1[N], t2[N], t3[N];
  contract_axis<true, P>(B, 2, sx, t1);
  contract_axis<true, P>(B, 1, t1, t2);
  contract_axis<true, P>(D, 0, t2, t3);
  for (int i = 0; i < N; ++i) y[i] += t3[i];
  contract_axis<true, P>(B, 2, sy, t1);
  contract_axis<true, P>(D, 1, t1, t2);
  contract_axis<true, P>(B, 0, t2, t3);
  for (int i = 0; i < N; ++i) y[i] += t3[i];
  contract_axis<true, P>(D, 2, sz, t1);
  contract_axis<true, P>(B, 1, t1, t2);
  contract_axis<true, P>(B, 0, t2, t3);
  for (int i = 0; i < N; ++i) y[i] += t3[i];
}

inline void tensor_gradient_transpose(const Real B[3][3], const Real D[3][3],
                                      const Real* sx, const Real* sy,
                                      const Real* sz, Real* y) {
  tensor_gradient_transpose_p<3>(&B[0][0], &D[0][0], sx, sy, sz, y);
}

/// Interpolate nodal values to quadrature points: out = (B⊗B⊗B) u.
template <int P>
inline void tensor_interpolate_p(const Real* B, const Real* u, Real* out) {
  constexpr int N = P * P * P;
  Real t1[N], t2[N];
  contract_axis<false, P>(B, 0, u, t1);
  contract_axis<false, P>(B, 1, t1, t2);
  contract_axis<false, P>(B, 2, t2, out);
}

inline void tensor_interpolate(const Real B[3][3], const Real* u, Real* out) {
  tensor_interpolate_p<3>(&B[0][0], u, out);
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

/// Batched contract_axis: in/out are [P^3][W] lane buffers, M is PxP
/// row-major.
template <bool Transpose, int P, int W>
inline void contract_axis_batched(const Real* M, int axis, const Real* in,
                                  Real* out) {
  const int stride = axis == 0 ? 1 : (axis == 1 ? P : P * P);
  const int s1 = axis == 0 ? P : 1;
  const int s2 = axis == 2 ? P : P * P;
  for (int l2 = 0; l2 < P; ++l2)
    for (int l1 = 0; l1 < P; ++l1) {
      const int base = l1 * s1 + l2 * s2;
      const Real* v[P];
      for (int a = 0; a < P; ++a) v[a] = in + (base + a * stride) * W;
      for (int q = 0; q < P; ++q) {
        Real m[P];
        for (int a = 0; a < P; ++a)
          m[a] = Transpose ? M[a * P + q] : M[q * P + a];
        Real* o = out + (base + q * stride) * W;
        PT_SIMD
        for (int l = 0; l < W; ++l) {
          Real acc = m[0] * v[0][l];
          for (int a = 1; a < P; ++a) acc += m[a] * v[a][l];
          o[l] = acc;
        }
      }
    }
}

/// Q2 convenience overload over the historical [3][3] matrix type.
template <bool Transpose, int W>
inline void contract_axis_batched(const Real M[3][3], int axis, const Real* in,
                                  Real* out) {
  contract_axis_batched<Transpose, 3, W>(&M[0][0], axis, in, out);
}

/// Batched forward gradient: u, gx, gy, gz are [P^3][W] lane buffers.
template <int P, int W>
inline void tensor_gradient_batched_p(const Real* B, const Real* D,
                                      const Real* u, Real* gx, Real* gy,
                                      Real* gz) {
  constexpr int N = P * P * P;
  alignas(kSimdAlign) Real t1[N * W], t2[N * W], t3[N * W];
  contract_axis_batched<false, P, W>(D, 0, u, t1);
  contract_axis_batched<false, P, W>(B, 1, t1, t2);
  contract_axis_batched<false, P, W>(B, 2, t2, gx);
  contract_axis_batched<false, P, W>(B, 0, u, t1);
  contract_axis_batched<false, P, W>(D, 1, t1, t2);
  contract_axis_batched<false, P, W>(B, 2, t2, gy);
  contract_axis_batched<false, P, W>(B, 1, t1, t3); // t1 = B_x u reused
  contract_axis_batched<false, P, W>(D, 2, t3, gz);
}

template <int W>
inline void tensor_gradient_batched(const Real B[3][3], const Real D[3][3],
                                    const Real* u, Real* gx, Real* gy,
                                    Real* gz) {
  tensor_gradient_batched_p<3, W>(&B[0][0], &D[0][0], u, gx, gy, gz);
}

/// Batched adjoint gradient: sx, sy, sz, y are [P^3][W] lane buffers.
template <int P, int W>
inline void tensor_gradient_transpose_batched_p(const Real* B, const Real* D,
                                                const Real* sx, const Real* sy,
                                                const Real* sz, Real* y) {
  constexpr int N = P * P * P;
  alignas(kSimdAlign) Real t1[N * W], t2[N * W], t3[N * W];
  contract_axis_batched<true, P, W>(B, 2, sx, t1);
  contract_axis_batched<true, P, W>(B, 1, t1, t2);
  contract_axis_batched<true, P, W>(D, 0, t2, t3);
  PT_SIMD
  for (int i = 0; i < N * W; ++i) y[i] += t3[i];
  contract_axis_batched<true, P, W>(B, 2, sy, t1);
  contract_axis_batched<true, P, W>(D, 1, t1, t2);
  contract_axis_batched<true, P, W>(B, 0, t2, t3);
  PT_SIMD
  for (int i = 0; i < N * W; ++i) y[i] += t3[i];
  contract_axis_batched<true, P, W>(D, 2, sz, t1);
  contract_axis_batched<true, P, W>(B, 1, t1, t2);
  contract_axis_batched<true, P, W>(B, 0, t2, t3);
  PT_SIMD
  for (int i = 0; i < N * W; ++i) y[i] += t3[i];
}

template <int W>
inline void tensor_gradient_transpose_batched(const Real B[3][3],
                                              const Real D[3][3],
                                              const Real* sx, const Real* sy,
                                              const Real* sz, Real* y) {
  tensor_gradient_transpose_batched_p<3, W>(&B[0][0], &D[0][0], sx, sy, sz, y);
}

} // namespace tensor_kernel
} // namespace ptatin
