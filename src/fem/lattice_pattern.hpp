// Closed-form CSR sparsity of the structured-mesh couplings.
//
// On an IJK lattice the columns coupled to any row form a lattice box, so
// row lengths, column lists and the storage slot of every element entry are
// integer arithmetic — no per-row sort/unique and no binary search:
//
//  - a Q2 node couples to the nodes within ±2 lattice steps along a
//    direction in which it is an element vertex, ±1 along one in which it
//    is element-interior;
//  - a velocity row of the gradient block B couples to the pressure modes
//    of the (at most 8) elements around its node;
//  - a pressure row of B^T couples to the 27 nodes of its element;
//  - a Q1 vertex couples to its ±1 vertex neighbours.
//
// Boxes are clipped at the mesh boundary. The columns come out sorted and
// duplicate-free: exactly the union of the element couplings per row.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "fem/mesh.hpp"
#include "la/csr.hpp"

namespace ptatin {

class LatticePattern {
public:
  /// Velocity x velocity on the Q2 node lattice (the viscous block).
  static LatticePattern q2_velocity(const StructuredMesh& mesh);
  /// Velocity x P1disc pressure (B): Q2 nodes x elements.
  static LatticePattern gradient(const StructuredMesh& mesh);
  /// Pressure x velocity (B^T): elements x Q2 nodes.
  static LatticePattern divergence(const StructuredMesh& mesh);
  /// Scalar Q1 vertex lattice (the energy equation).
  static LatticePattern q1_vertex(const StructuredMesh& mesh);

  /// Zero-valued matrix with this pattern.
  CsrMatrix matrix() const;

  /// Position of column (ci, cj, ck, cc) within each row of row point
  /// (i, j, k), counted from the row's first slot. The column must be in
  /// the row's box.
  Index column_offset(Index i, Index j, Index k, Index ci, Index cj, Index ck,
                      int cc) const {
    const Axis &x = axes_[0], &y = axes_[1], &z = axes_[2];
    return (((ck - z.lo[k]) * y.len[j] + (cj - y.lo[j])) * x.len[i] +
            (ci - x.lo[i])) *
               col_block_ +
           cc;
  }

private:
  /// One lattice direction: row point i couples to the column points
  /// [lo[i], lo[i] + len[i]) of a column lattice with `ncols` points.
  struct Axis {
    std::vector<Index> lo, len;
    Index ncols = 0;
  };

  /// Rows are numbered (point, component) with `row_block` components per
  /// row point and columns likewise with `col_block`; points run x fastest.
  LatticePattern(std::array<Axis, 3> axes, int row_block, int col_block);

  template <class Range>
  static Axis make_axis(Index nrows, Index ncols, Range range);

  std::array<Axis, 3> axes_;
  int row_block_, col_block_;
};

} // namespace ptatin
