#include "la/csr.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ptatin {

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
                     std::vector<Index> col_idx, std::vector<Real> vals)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      vals_(std::move(vals)) {
  PT_ASSERT(static_cast<Index>(row_ptr_.size()) == rows_ + 1);
  PT_ASSERT(col_idx_.size() == vals_.size());
  PT_ASSERT(row_ptr_.back() == static_cast<Index>(vals_.size()));
}

void CsrMatrix::append_seal_regions(const std::string& prefix,
                                    std::vector<sdc::Region>& regions) const {
  regions.push_back({prefix + ".row_ptr", row_ptr_.data(),
                     row_ptr_.size() * sizeof(Index)});
  regions.push_back({prefix + ".col_idx", col_idx_.data(),
                     col_idx_.size() * sizeof(Index)});
  regions.push_back(
      {prefix + ".values", vals_.data(), vals_.size() * sizeof(Real)});
}

void CsrMatrix::mult(const Vector& x, Vector& y) const {
  PT_ASSERT(x.size() == cols_);
  if (y.size() != rows_) y.resize(rows_);
  const Index* rp = row_ptr_.data();
  const Index* ci = col_idx_.data();
  const Real* va = vals_.data();
  const Real* xp = x.data();
  Real* yp = y.data();
  parallel_for(rows_, [&](Index i) {
    Real sum = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) sum += va[k] * xp[ci[k]];
    yp[i] = sum;
  });
}

void CsrMatrix::mult_add(const Vector& x, Vector& y) const {
  PT_ASSERT(x.size() == cols_ && y.size() == rows_);
  const Index* rp = row_ptr_.data();
  const Index* ci = col_idx_.data();
  const Real* va = vals_.data();
  const Real* xp = x.data();
  Real* yp = y.data();
  parallel_for(rows_, [&](Index i) {
    Real sum = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) sum += va[k] * xp[ci[k]];
    yp[i] += sum;
  });
}

void CsrMatrix::mult_transpose(const Vector& x, Vector& y) const {
  PT_ASSERT(x.size() == rows_);
  if (y.size() != cols_) y.resize(cols_);
  y.set_all(0.0);
  Real* yp = y.data();
  for (Index i = 0; i < rows_; ++i) {
    const Real xi = x[i];
    if (xi == 0.0) continue;
    for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      yp[col_idx_[k]] += vals_[k] * xi;
  }
}

Vector CsrMatrix::diagonal() const {
  Vector d(rows_, 0.0);
  parallel_for(rows_, [&](Index i) {
    // Rows are sorted, so the diagonal is a binary search, not a scan.
    const Index lo = row_ptr_[i], hi = row_ptr_[i + 1];
    auto begin = col_idx_.begin() + lo;
    auto end = col_idx_.begin() + hi;
    auto it = std::lower_bound(begin, end, i);
    if (it != end && *it == i)
      d[i] = vals_[static_cast<std::size_t>(lo + (it - begin))];
  });
  return d;
}

Real* CsrMatrix::find(Index i, Index j) {
  PT_DEBUG_ASSERT(i >= 0 && i < rows_);
  const Index lo = row_ptr_[i], hi = row_ptr_[i + 1];
  auto begin = col_idx_.begin() + lo;
  auto end = col_idx_.begin() + hi;
  auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return nullptr;
  return &vals_[static_cast<std::size_t>(lo + (it - begin))];
}

const Real* CsrMatrix::find(Index i, Index j) const {
  return const_cast<CsrMatrix*>(this)->find(i, j);
}

void CsrMatrix::zero_row_set_identity(Index i) {
  for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
    vals_[k] = (col_idx_[k] == i) ? 1.0 : 0.0;
}

CsrMatrix CsrMatrix::transpose() const {
  // Counting sort by column. Every entry's destination is well-defined
  // independent of scheduling — position = column start + number of earlier
  // (in global CSR order) entries with the same column — so the parallel
  // path below produces the exact arrays the serial scatter would, for any
  // thread count: rows of the transpose list original rows in increasing
  // order, i.e. already sorted.
  std::vector<Index> ci(nnz());
  std::vector<Real> va(nnz());
  const int nteam = num_threads();
  if (nteam <= 1 || rows_ < 4 * kReduceChunk) {
    std::vector<Index> rp(cols_ + 1, 0);
    for (Index k = 0; k < nnz(); ++k) ++rp[col_idx_[k] + 1];
    for (Index j = 0; j < cols_; ++j) rp[j + 1] += rp[j];
    std::vector<Index> next(rp.begin(), rp.end() - 1);
    for (Index i = 0; i < rows_; ++i) {
      for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const Index j = col_idx_[k];
        const Index dst = next[j]++;
        ci[dst] = i;
        va[dst] = vals_[k];
      }
    }
    return CsrMatrix(cols_, rows_, std::move(rp), std::move(ci),
                     std::move(va));
  }

  // Parallel: per-row-chunk column histograms, a column-major exclusive
  // scan in chunk order (turning each chunk's count into its write cursor),
  // then a parallel per-chunk scatter.
  const Index nchunks = nteam;
  const Index chunk_rows = (rows_ + nchunks - 1) / nchunks;
  std::vector<std::vector<Index>> counts(static_cast<std::size_t>(nchunks));
  parallel_for(nchunks, [&](Index c) {
    auto& cnt = counts[static_cast<std::size_t>(c)];
    cnt.assign(static_cast<std::size_t>(cols_), 0);
    const Index lo = c * chunk_rows;
    const Index hi = std::min(rows_, lo + chunk_rows);
    for (Index k = row_ptr_[lo]; k < row_ptr_[hi]; ++k) ++cnt[col_idx_[k]];
  });
  std::vector<Index> rp(cols_ + 1, 0);
  Index run = 0;
  for (Index j = 0; j < cols_; ++j) {
    rp[j] = run;
    for (Index c = 0; c < nchunks; ++c) {
      auto& cnt = counts[static_cast<std::size_t>(c)];
      const Index nj = cnt[static_cast<std::size_t>(j)];
      cnt[static_cast<std::size_t>(j)] = run; // becomes the write cursor
      run += nj;
    }
  }
  rp[cols_] = run;
  parallel_for(nchunks, [&](Index c) {
    auto& cursor = counts[static_cast<std::size_t>(c)];
    const Index lo = c * chunk_rows;
    const Index hi = std::min(rows_, lo + chunk_rows);
    for (Index i = lo; i < hi; ++i) {
      for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const Index j = col_idx_[k];
        const Index dst = cursor[static_cast<std::size_t>(j)]++;
        ci[dst] = i;
        va[dst] = vals_[k];
      }
    }
  });
  return CsrMatrix(cols_, rows_, std::move(rp), std::move(ci), std::move(va));
}

namespace {

/// Sparse accumulator (SPA) for one output row of an SpGEMM.
struct SparseAccumulator {
  explicit SparseAccumulator(Index ncols)
      : value(ncols, 0.0), marker(ncols, -1) {}

  void scatter(Index col, Real v, Index row_id, std::vector<Index>& cols_out) {
    if (marker[col] != row_id) {
      marker[col] = row_id;
      cols_out.push_back(col);
      value[col] = v;
    } else {
      value[col] += v;
    }
  }

  std::vector<Real> value;
  std::vector<Index> marker;
};

} // namespace

CsrMatrix CsrMatrix::multiply(const CsrMatrix& a, const CsrMatrix& b) {
  PT_ASSERT(a.cols() == b.rows());
  const Index m = a.rows();
  const Index n = b.cols();

  std::vector<Index> rp(m + 1, 0);
  std::vector<std::vector<Index>> row_cols(m);
  std::vector<std::vector<Real>> row_vals(m);

  // Rows vary wildly in fill, so schedule them dynamically: an atomic block
  // dispenser replaces `omp for schedule(dynamic, 64)` so the identical code
  // drives both the OpenMP team and the TSan std::thread team.
  constexpr Index kRowBlock = 64;
  std::atomic<Index> next_row{0};
  parallel_team([&](int, int) {
    SparseAccumulator spa(n);
    std::vector<Index> cols;
    for (Index blk = next_row.fetch_add(kRowBlock, std::memory_order_relaxed);
         blk < m;
         blk = next_row.fetch_add(kRowBlock, std::memory_order_relaxed)) {
      const Index blk_end = std::min<Index>(m, blk + kRowBlock);
      for (Index i = blk; i < blk_end; ++i) {
        cols.clear();
        for (Index ka = a.row_ptr_[i]; ka < a.row_ptr_[i + 1]; ++ka) {
          const Index k = a.col_idx_[ka];
          const Real av = a.vals_[ka];
          if (av == 0.0) continue;
          for (Index kb = b.row_ptr_[k]; kb < b.row_ptr_[k + 1]; ++kb)
            spa.scatter(b.col_idx_[kb], av * b.vals_[kb], i, cols);
        }
        std::sort(cols.begin(), cols.end());
        row_cols[i].assign(cols.begin(), cols.end());
        row_vals[i].resize(cols.size());
        for (std::size_t t = 0; t < cols.size(); ++t)
          row_vals[i][t] = spa.value[cols[t]];
        rp[i + 1] = static_cast<Index>(cols.size());
      }
    }
  });

  for (Index i = 0; i < m; ++i) rp[i + 1] += rp[i];
  std::vector<Index> ci(rp[m]);
  std::vector<Real> va(rp[m]);
  parallel_for(m, [&](Index i) {
    std::copy(row_cols[i].begin(), row_cols[i].end(), ci.begin() + rp[i]);
    std::copy(row_vals[i].begin(), row_vals[i].end(), va.begin() + rp[i]);
  });
  return CsrMatrix(m, n, std::move(rp), std::move(ci), std::move(va));
}

CsrMatrix CsrMatrix::ptap(const CsrMatrix& a, const CsrMatrix& p) {
  PT_ASSERT(a.rows() == a.cols());
  PT_ASSERT(a.cols() == p.rows());
  CsrMatrix pt = p.transpose();
  CsrMatrix ap = multiply(a, p);
  return multiply(pt, ap);
}

CsrMatrix CsrMatrix::add(Real alpha, const CsrMatrix& a, const CsrMatrix& b) {
  PT_ASSERT(a.rows() == b.rows() && a.cols() == b.cols());
  const Index m = a.rows();
  std::vector<Index> rp(m + 1, 0);
  std::vector<Index> ci;
  std::vector<Real> va;
  ci.reserve(a.nnz() + b.nnz());
  va.reserve(a.nnz() + b.nnz());
  for (Index i = 0; i < m; ++i) {
    Index ka = a.row_ptr_[i], kb = b.row_ptr_[i];
    const Index ea = a.row_ptr_[i + 1], eb = b.row_ptr_[i + 1];
    while (ka < ea || kb < eb) {
      Index ja = ka < ea ? a.col_idx_[ka] : a.cols();
      Index jb = kb < eb ? b.col_idx_[kb] : a.cols();
      if (ja == jb) {
        ci.push_back(ja);
        va.push_back(alpha * a.vals_[ka++] + b.vals_[kb++]);
      } else if (ja < jb) {
        ci.push_back(ja);
        va.push_back(alpha * a.vals_[ka++]);
      } else {
        ci.push_back(jb);
        va.push_back(b.vals_[kb++]);
      }
    }
    rp[i + 1] = static_cast<Index>(ci.size());
  }
  return CsrMatrix(m, a.cols(), std::move(rp), std::move(ci), std::move(va));
}

} // namespace ptatin
