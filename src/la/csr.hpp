// Compressed sparse row matrix: the assembled-operator (Mat) analogue.
//
// This is the back-end for the "Asmb" rows of Tables I–IV, for Galerkin
// coarse-grid operators (R A P), and for every AMG level. SpMV is threaded by
// row block. Products (SpGEMM, transpose, PtAP) use classical row-merge with
// a per-thread sparse accumulator.
#pragma once

#include <string>
#include <vector>

#include "common/sealed.hpp"
#include "common/types.hpp"
#include "la/vector.hpp"

namespace ptatin {

class CsrMatrix {
public:
  CsrMatrix() = default;
  CsrMatrix(Index rows, Index cols) : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Adopt raw CSR arrays (row_ptr has rows+1 entries; cols/vals have nnz).
  CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
            std::vector<Index> col_idx, std::vector<Real> vals);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return row_ptr_.empty() ? 0 : row_ptr_.back(); }

  const std::vector<Index>& row_ptr() const { return row_ptr_; }
  const std::vector<Index>& col_idx() const { return col_idx_; }
  const std::vector<Real>& values() const { return vals_; }
  std::vector<Real>& values() { return vals_; }

  /// Enumerate the three CSR arrays as SDC seal regions named
  /// "<prefix>.row_ptr/.col_idx/.values" (docs/ROBUSTNESS.md). Only valid
  /// while the matrix is setup-immutable: the seal layer re-reads these
  /// pointers at every verify, so any structural mutation must re-arm.
  void append_seal_regions(const std::string& prefix,
                           std::vector<sdc::Region>& regions) const;

  /// y <- A x.
  void mult(const Vector& x, Vector& y) const;
  /// y <- y + A x.
  void mult_add(const Vector& x, Vector& y) const;
  /// y <- A^T x (serial scatter; used in setup paths only).
  void mult_transpose(const Vector& x, Vector& y) const;

  /// Extract the diagonal (missing diagonal entries read as 0).
  Vector diagonal() const;

  /// Find entry (i, j) by binary search; nullptr if not in pattern.
  Real* find(Index i, Index j);
  const Real* find(Index i, Index j) const;

  /// Replace row i with e_i^T (diag=1, off-diag=0). Used for strong Dirichlet.
  void zero_row_set_identity(Index i);

  CsrMatrix transpose() const;

  /// C <- A * B (classical SpGEMM).
  static CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b);

  /// Galerkin triple product: C <- P^T A P.
  static CsrMatrix ptap(const CsrMatrix& a, const CsrMatrix& p);

  /// C <- alpha*A + B with union pattern (A, B same shape).
  static CsrMatrix add(Real alpha, const CsrMatrix& a, const CsrMatrix& b);

  /// Estimated memory footprint in bytes (values + column indices + row ptr).
  double memory_bytes() const {
    return double(vals_.size()) * sizeof(Real) +
           double(col_idx_.size()) * sizeof(Index) +
           double(row_ptr_.size()) * sizeof(Index);
  }

private:
  Index rows_ = 0, cols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Real> vals_;

  friend class CooMatrix;
};

} // namespace ptatin
