#include "la/blocked_spmv.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ptatin {

void BlockedSpMV::rebuild(const CsrMatrix& a) {
  rows_ = a.rows();
  cols_ = a.cols();
  src_row_ptr_ = a.row_ptr();
  const Index* rp = src_row_ptr_.data();
  const Index* ci = a.col_idx().data();
  const Real* va = a.values().data();

  const Index nblocks = (rows_ + kC - 1) / kC;
  blocks_.assign(static_cast<std::size_t>(nblocks), Block{});

  // Pass 1: per-block layout decision and storage offsets.
  Index total = 0;
  for (Index b = 0; b < nblocks; ++b) {
    Block& blk = blocks_[static_cast<std::size_t>(b)];
    blk.first_row = b * kC;
    blk.nrows = std::min<Index>(kC, rows_ - blk.first_row);
    Index width = 0, nnz = 0;
    for (Index r = 0; r < blk.nrows; ++r) {
      const Index row = blk.first_row + r;
      const Index len = rp[row + 1] - rp[row];
      width = std::max(width, len);
      nnz += len;
    }
    blk.width = width;
    // Ragged slice: padding would more than double the stored entries, so
    // keep those rows in plain CSR order instead.
    blk.sell = (width <= 32) || (width * kC <= 2 * nnz);
    blk.off = total;
    total += blk.sell ? width * kC : nnz;
  }

  cols_idx_.assign(static_cast<std::size_t>(total), 0);
  vals_.assign(static_cast<std::size_t>(total), 0.0);

  // Pass 2: scatter entries into the padded row-major (or fallback packed)
  // layout. Padding trails each row — value 0.0, column reusing the row's
  // last real column — and is never read by mult (lengths come from the
  // source row_ptr); it only keeps the stride uniform.
  parallel_for(nblocks, [&](Index b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    if (blk.sell) {
      for (Index r = 0; r < blk.nrows; ++r) {
        const Index row = blk.first_row + r;
        const Index lo = rp[row];
        const Index len = rp[row + 1] - lo;
        const Index pad_col = len > 0 ? ci[lo + len - 1] : 0;
        for (Index t = 0; t < blk.width; ++t) {
          const Index dst = blk.off + r * blk.width + t;
          if (t < len) {
            cols_idx_[static_cast<std::size_t>(dst)] = ci[lo + t];
            vals_[static_cast<std::size_t>(dst)] = va[lo + t];
          } else {
            cols_idx_[static_cast<std::size_t>(dst)] = pad_col;
            vals_[static_cast<std::size_t>(dst)] = 0.0;
          }
        }
      }
    } else {
      const Index base = rp[blk.first_row];
      const Index len = rp[blk.first_row + blk.nrows] - base;
      std::copy(ci + base, ci + base + len,
                cols_idx_.begin() + static_cast<std::ptrdiff_t>(blk.off));
      std::copy(va + base, va + base + len,
                vals_.begin() + static_cast<std::ptrdiff_t>(blk.off));
    }
  });
}

void BlockedSpMV::mult(const Vector& x, Vector& y) const {
  PT_ASSERT(x.size() == cols_);
  if (y.size() != rows_) y.resize(rows_);
  const Index* ci = cols_idx_.data();
  const Real* va = vals_.data();
  const Index* rp = src_row_ptr_.data();
  const Real* xp = x.data();
  Real* yp = y.data();
  parallel_for(static_cast<Index>(blocks_.size()), [&](Index b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    const Index base = rp[blk.first_row];
    for (Index r = 0; r < blk.nrows; ++r) {
      const Index row = blk.first_row + r;
      const Index len = rp[row + 1] - rp[row];
      const Index lo = blk.sell ? blk.off + r * blk.width
                                : blk.off + (rp[row] - base);
      // One inner loop, identical in source shape to CsrMatrix::mult's, so
      // the compiler's vectorization/contraction choices match and the sum
      // is bitwise identical to the plain kernel.
      Real sum = 0.0;
      for (Index t = 0; t < len; ++t) sum += va[lo + t] * xp[ci[lo + t]];
      yp[row] = sum;
    }
  });
}

double BlockedSpMV::padding_ratio() const {
  const Index nnz = src_row_ptr_.empty() ? 0 : src_row_ptr_.back();
  return nnz > 0 ? double(vals_.size()) / double(nnz) : 1.0;
}

} // namespace ptatin
