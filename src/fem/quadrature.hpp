// Gauss–Legendre quadrature rules.
//
// All Q2 integrals use the full 3x3x3 Gauss rule (27 points/element) — the
// paper explicitly rejects the spectral-element Gauss–Lobatto collapse
// because it "is not sufficiently accurate for our deformed meshes with
// variable coefficients" (§III-D). Q1 integrals (energy equation, projection
// tests) use the 2x2x2 rule.
#pragma once

#include <array>

#include "common/types.hpp"

namespace ptatin {

/// One-dimensional 3-point Gauss rule on [-1, 1] (exact through degree 5).
struct Gauss3 {
  static constexpr std::array<Real, 3> pts = {-0.7745966692414834, 0.0,
                                              0.7745966692414834};
  static constexpr std::array<Real, 3> wts = {5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0};
};

/// One-dimensional 2-point Gauss rule on [-1, 1] (exact through degree 3).
struct Gauss2 {
  static constexpr std::array<Real, 2> pts = {-0.5773502691896257,
                                              0.5773502691896257};
  static constexpr std::array<Real, 2> wts = {1.0, 1.0};
};

/// Tensorized 3D quadrature rule.
template <class Rule1D>
struct TensorQuadrature {
  static constexpr int kPoints1D = static_cast<int>(Rule1D::pts.size());
  static constexpr int kPoints = kPoints1D * kPoints1D * kPoints1D;

  /// Reference coordinates of point q (x fastest).
  static constexpr std::array<Real, 3> point(int q) {
    const int i = q % kPoints1D;
    const int j = (q / kPoints1D) % kPoints1D;
    const int k = q / (kPoints1D * kPoints1D);
    return {Rule1D::pts[i], Rule1D::pts[j], Rule1D::pts[k]};
  }
  static constexpr Real weight(int q) {
    const int i = q % kPoints1D;
    const int j = (q / kPoints1D) % kPoints1D;
    const int k = q / (kPoints1D * kPoints1D);
    return Rule1D::wts[i] * Rule1D::wts[j] * Rule1D::wts[k];
  }
};

using QuadQ2 = TensorQuadrature<Gauss3>; ///< 27-point rule for Q2 forms
using QuadQ1 = TensorQuadrature<Gauss2>; ///< 8-point rule for Q1 forms

static_assert(QuadQ2::kPoints == kQuadPerEl);

} // namespace ptatin
