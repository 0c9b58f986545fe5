// Core scalar and index types used throughout the pTatin3D reproduction.
//
// The paper (§IV-A) reports all results with 64-bit indices; we follow suit so
// that global degree-of-freedom counts on large meshes cannot overflow.
#pragma once

#include <cstdint>
#include <cstddef>

namespace ptatin {

/// Floating-point scalar used for all field data and linear algebra.
using Real = double;

/// Global index type (64-bit, matching the paper's configuration).
using Index = std::int64_t;

/// Number of spatial dimensions. pTatin3D is a 3D code.
inline constexpr int kDim = 3;

/// Q2 velocity element: 3^3 nodes per element.
inline constexpr int kQ2NodesPerEl = 27;

/// Q1 element (coordinates / projection / energy): 2^3 nodes.
inline constexpr int kQ1NodesPerEl = 8;

/// Discontinuous linear pressure P1disc: {1, x, y, z} per element.
inline constexpr int kP1NodesPerEl = 4;

/// 3x3x3 Gauss quadrature used for all Q2 integrals.
inline constexpr int kQuadPerEl = 27;

} // namespace ptatin
