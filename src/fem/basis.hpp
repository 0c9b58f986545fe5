// Finite element bases: Q2 (velocity), Q1 (geometry / projection / energy),
// and the physical-frame discontinuous linear pressure P1disc.
//
// The Q2 basis is also exposed in 1D tensor-product form: the 3x3 matrices
// B̂ (basis evaluation) and D̂ (derivative evaluation) at the 1D Gauss points,
// from which the tensor-product kernels of §III-D build the 81x27 reference
// gradient action as (D̂⊗B̂⊗B̂, B̂⊗D̂⊗B̂, B̂⊗B̂⊗D̂) without ever forming it.
#pragma once

#include <array>

#include "common/types.hpp"
#include "fem/quadrature.hpp"

namespace ptatin {

// ---------------------------------------------------------------------------
// 1D quadratic Lagrange basis on nodes {-1, 0, +1}.
// ---------------------------------------------------------------------------

inline Real q2_basis_1d(int a, Real x) {
  switch (a) {
    case 0: return Real(0.5) * x * (x - 1);
    case 1: return (1 - x) * (1 + x);
    default: return Real(0.5) * x * (x + 1);
  }
}

inline Real q2_deriv_1d(int a, Real x) {
  switch (a) {
    case 0: return x - Real(0.5);
    case 1: return Real(-2) * x;
    default: return x + Real(0.5);
  }
}

// 1D linear Lagrange basis on nodes {-1, +1}.
inline Real q1_basis_1d(int a, Real x) {
  return a == 0 ? Real(0.5) * (1 - x) : Real(0.5) * (1 + x);
}

inline Real q1_deriv_1d(int a, Real) { return a == 0 ? Real(-0.5) : Real(0.5); }

// ---------------------------------------------------------------------------
// 3D bases evaluated at an arbitrary reference point.
// Local node ordering: a + 3b + 9c (x fastest), matching mesh element maps.
// ---------------------------------------------------------------------------

/// N[27]: Q2 shape functions at xi.
void q2_eval(const Real xi[3], Real N[kQ2NodesPerEl]);

/// dN[27][3]: Q2 reference-space gradients at xi.
void q2_eval_deriv(const Real xi[3], Real dN[kQ2NodesPerEl][3]);

/// N[8]: Q1 shape functions at xi (node ordering a + 2b + 4c).
void q1_eval(const Real xi[3], Real N[kQ1NodesPerEl]);

/// dN[8][3]: Q1 reference-space gradients at xi.
void q1_eval_deriv(const Real xi[3], Real dN[kQ1NodesPerEl][3]);

// ---------------------------------------------------------------------------
// Tabulated values at the 3x3x3 Gauss points (shared by all element kernels).
// ---------------------------------------------------------------------------

struct Q2Tabulation {
  /// N[q][i]: basis i at quadrature point q.
  Real N[kQuadPerEl][kQ2NodesPerEl];
  /// dN[q][i][d]: reference derivative of basis i in direction d at point q.
  Real dN[kQuadPerEl][kQ2NodesPerEl][3];
  /// Quadrature weights.
  Real w[kQuadPerEl];

  /// 1D tensor factors at the 3 Gauss points: B[q1d][a], D[q1d][a].
  Real B1[3][3];
  Real D1[3][3];
};

/// The process-wide Q2 tabulation (computed once, immutable).
const Q2Tabulation& q2_tabulation();

struct Q1Tabulation {
  Real N[QuadQ1::kPoints][kQ1NodesPerEl];
  Real dN[QuadQ1::kPoints][kQ1NodesPerEl][3];
  Real w[QuadQ1::kPoints];
};

const Q1Tabulation& q1_tabulation();

/// Q1 geometry tabulated at the Q2 27-point rule (for the coordinate mapping
/// inside Q2 element kernels: 8 corner coordinates per element, §III-D).
struct GeomTabulation {
  Real N[kQuadPerEl][kQ1NodesPerEl];
  Real dN[kQuadPerEl][kQ1NodesPerEl][3];
};

const GeomTabulation& geom_tabulation();

// ---------------------------------------------------------------------------
// P1disc pressure basis, defined in PHYSICAL coordinates (x, y, z).
//
// §II-B: "To preserve the order of accuracy of the Q2-P1disc discretization,
// we define the pressure basis in the x,y,z coordinate system, as opposed to
// in the 'mapped' coordinate system." Basis: {1, (x-xb)/hx, (y-yb)/hy,
// (z-zb)/hz} with xb the element barycenter and h the element extents
// (the scaling keeps element mass matrices well conditioned).
// ---------------------------------------------------------------------------

struct P1Frame {
  Real center[3];
  Real scale[3]; ///< inverse half-extents
};

/// psi[4]: pressure basis at physical point x given the element frame.
inline void p1disc_eval(const P1Frame& f, const Real x[3],
                        Real psi[kP1NodesPerEl]) {
  psi[0] = 1.0;
  psi[1] = (x[0] - f.center[0]) * f.scale[0];
  psi[2] = (x[1] - f.center[1]) * f.scale[1];
  psi[3] = (x[2] - f.center[2]) * f.scale[2];
}

} // namespace ptatin
