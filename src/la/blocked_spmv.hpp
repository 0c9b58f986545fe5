// Blocked CSR SpMV: row-block tiling for coarse-level applies.
//
// The assembled coarse operators (Galerkin / AMG levels) have near-uniform
// row lengths, so 8-row slices are stored as SELL-style padded row slabs
// (ELLPACK-R row-major: every row's entries sit contiguous at a uniform
// stride, padded to the slice width) — uniform-stride streaming loads and
// one parallel task per slice instead of per row. Ragged slices, where
// padding would more than double the stored entries, keep plain packed CSR
// order inside the block.
//
// Determinism contract: the padded layout keeps every row's entries
// CONTIGUOUS and in CSR order, so one inner dot-product loop — written in
// the exact source shape of CsrMatrix::mult's — serves both layouts, and
// the compiler provably makes the same vectorization/FMA-contraction
// choices for it that it makes for the plain kernel (contraction is a
// per-loop decision, NOT implied by per-statement forms; csr mult compiles
// to full-rounded packed multiplies with in-order adds plus an FMA tail
// here, which no hand-written lane-major kernel can reproduce). Padding is
// never read by mult (row lengths come from the source row_ptr), so the
// result is bitwise identical to CsrMatrix::mult — the parity tests enforce
// this at 1/2/8 threads.
#pragma once

#include <vector>

#include "la/csr.hpp"

namespace ptatin {

class BlockedSpMV {
public:
  /// Rows per slice. 8 matches the widest SIMD lane count the element
  /// kernels use (docs/KERNELS.md).
  static constexpr Index kC = 8;

  BlockedSpMV() = default;
  explicit BlockedSpMV(const CsrMatrix& a) { rebuild(a); }

  /// Build (or rebuild) the blocked layout from scratch.
  void rebuild(const CsrMatrix& a);

  /// y <- A x. Bitwise identical to CsrMatrix::mult.
  void mult(const Vector& x, Vector& y) const;

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  /// Stored entries (incl. padding) over real nnz; 1.0 = no padding.
  double padding_ratio() const;

private:
  struct Block {
    Index off = 0;       ///< start into vals_/cols_
    Index first_row = 0;
    Index nrows = 0;     ///< <= kC (short only for the last block)
    Index width = 0;     ///< max row length in the slice (padded layout)
    bool sell = true;    ///< false: packed CSR fallback for ragged rows
  };

  Index rows_ = 0, cols_ = 0;
  std::vector<Block> blocks_;
  std::vector<Index> cols_idx_;
  std::vector<Real> vals_;
  std::vector<Index> src_row_ptr_; ///< copy of the source row_ptr
};

} // namespace ptatin
