// Fixed-size 3x3 matrix helpers for isoparametric coordinate mappings.
//
// Every quadrature point of every element needs a 3x3 Jacobian inverse and
// determinant (§III-D: "Inverting these and then taking determinants produces
// the gradients ∇ξ and quadrature weighting"). These are fully inlined.
#pragma once

#include <array>
#include <cmath>

#include "common/types.hpp"

namespace ptatin {

/// Row-major 3x3 matrix.
using Mat3 = std::array<Real, 9>;
using Vec3 = std::array<Real, 3>;

inline Real det3(const Mat3& m) {
  return m[0] * (m[4] * m[8] - m[5] * m[7]) -
         m[1] * (m[3] * m[8] - m[5] * m[6]) +
         m[2] * (m[3] * m[7] - m[4] * m[6]);
}

/// Inverse of a 3x3 matrix given its (nonzero) determinant.
inline Mat3 inv3(const Mat3& m, Real det) {
  const Real id = Real(1) / det;
  return Mat3{(m[4] * m[8] - m[5] * m[7]) * id, (m[2] * m[7] - m[1] * m[8]) * id,
              (m[1] * m[5] - m[2] * m[4]) * id, (m[5] * m[6] - m[3] * m[8]) * id,
              (m[0] * m[8] - m[2] * m[6]) * id, (m[2] * m[3] - m[0] * m[5]) * id,
              (m[3] * m[7] - m[4] * m[6]) * id, (m[1] * m[6] - m[0] * m[7]) * id,
              (m[0] * m[4] - m[1] * m[3]) * id};
}

inline Vec3 matvec3(const Mat3& m, const Vec3& v) {
  return Vec3{m[0] * v[0] + m[1] * v[1] + m[2] * v[2],
              m[3] * v[0] + m[4] * v[1] + m[5] * v[2],
              m[6] * v[0] + m[7] * v[1] + m[8] * v[2]};
}

inline Real norm3(const Vec3& v) {
  return std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
}

} // namespace ptatin
