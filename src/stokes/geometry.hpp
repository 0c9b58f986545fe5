// Per-element isoparametric geometry evaluation shared by all kernels.
//
// §III-D: "To compute the physical gradient matrices on isoparametrically
// mapped elements, one computes the coordinate gradient ... Inverting these
// and then taking determinants produces the gradients ∇ξ and quadrature
// weighting for physical elements." Geometry is trilinear (8 corners).
#pragma once

#include "common/aligned.hpp"
#include "common/small_mat.hpp"
#include "common/types.hpp"
#include "fem/basis.hpp"
#include "fem/mesh.hpp"

namespace ptatin {

/// Metric terms of one element at all 27 quadrature points.
struct ElementGeometry {
  /// gamma[q] = (d xi / d x) at quadrature point q, row-major 3x3.
  Mat3 gamma[kQuadPerEl];
  /// wdetj[q] = quadrature weight * |det(dx/dxi)|.
  Real wdetj[kQuadPerEl];
  /// Physical coordinates of the quadrature points.
  Real xq[kQuadPerEl][3];
};

/// Compute geometry from the element's 8 corner coordinates.
void compute_element_geometry(const Real xe[kQ1NodesPerEl][3],
                              ElementGeometry& g);

/// Element frame for the physical-coordinate P1disc pressure basis (§II-B):
/// barycenter and inverse half-extents from the corner bounding box.
P1Frame compute_p1_frame(const Real xe[kQ1NodesPerEl][3]);

/// Convenience: gather corners and compute geometry for element e.
void element_geometry(const StructuredMesh& mesh, Index e, ElementGeometry& g);

/// Metric terms of W elements in SoA lane layout (lane = element in batch).
/// Each lane holds exactly the values ElementGeometry would: the batched
/// evaluation performs the scalar arithmetic per lane, so lanes are bitwise
/// identical to per-element results. xq is omitted: only the folded Stokes
/// sweep needs the quadrature points, as the P1 basis of P1BasisBatch.
template <int W>
struct ElementGeometryBatch {
  alignas(kSimdAlign) Real gamma[kQuadPerEl][9][W];
  alignas(kSimdAlign) Real wdetj[kQuadPerEl][W];
};

/// The P1(disc) pressure basis of W elements at the quadrature points, SoA:
/// psi[q][k - 1][lane] = psi_k(x_q) for k = 1..3 (psi_0 = 1). Each lane is
/// bitwise p1disc_eval(element_p1_frame(e), ElementGeometry::xq[q]).
template <int W>
struct P1BasisBatch {
  alignas(kSimdAlign) Real psi[kQuadPerEl][3][W];
};

/// Gather corners of elems[0..W) and compute their geometry lane-parallel.
template <int W>
void element_geometry_batch(const StructuredMesh& mesh, const Index* elems,
                            ElementGeometryBatch<W>& g);

/// The same, plus the lanes' pressure basis at the quadrature points (the
/// coupled Tens sweep, docs/KERNELS.md).
template <int W>
void element_geometry_batch(const StructuredMesh& mesh, const Index* elems,
                            ElementGeometryBatch<W>& g, P1BasisBatch<W>& p1);

/// The lanes' pressure basis alone, bitwise the p1 of the call above (the
/// coupled sweep of an operator whose geometry is cached).
template <int W>
void p1_basis_batch(const StructuredMesh& mesh, const Index* elems,
                    P1BasisBatch<W>& p1);

P1Frame element_p1_frame(const StructuredMesh& mesh, Index e);

} // namespace ptatin
