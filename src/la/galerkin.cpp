#include "la/galerkin.hpp"

#include <atomic>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ptatin {

namespace {

/// Numeric-only SpGEMM replay: write multiply(a, b)'s values into c, whose
/// pattern is the cached multiply(a, b) pattern. The scatter order and the
/// first-touch `=` / subsequent `+=` accumulator semantics mirror
/// CsrMatrix::multiply exactly (including its `av == 0.0` pruning), so the
/// values are bitwise identical to the from-scratch product.
///
/// Because of that pruning, the product's PATTERN depends on a's zero-set,
/// which drifts across re-assemblies (near-cancellation entries wobble
/// between 1e-19 and exact 0.0). Rather than invalidating on any zero flip
/// — which would reject essentially every real refresh — the replay verifies
/// the pattern on the fly: per row, the number of scattered columns must
/// equal the cached row length and every cached column must have been
/// touched (together: touched set == cached set, exactly). Returns false on
/// any mismatch, in which case c's values are garbage and the caller must
/// run a full setup.
bool multiply_numeric(const CsrMatrix& a, const CsrMatrix& b, CsrMatrix& c) {
  PT_ASSERT(a.cols() == b.rows());
  PT_ASSERT(c.rows() == a.rows() && c.cols() == b.cols());
  const Index m = a.rows();
  const Index n = b.cols();
  const Index* arp = a.row_ptr().data();
  const Index* aci = a.col_idx().data();
  const Real* ava = a.values().data();
  const Index* brp = b.row_ptr().data();
  const Index* bci = b.col_idx().data();
  const Real* bva = b.values().data();
  const Index* crp = c.row_ptr().data();
  const Index* cci = c.col_idx().data();
  Real* cva = c.values().data();

  // Same dynamic row-block dispenser as CsrMatrix::multiply: rows vary in
  // fill, and the identical code drives both the OpenMP team and the TSan
  // std::thread team.
  constexpr Index kRowBlock = 64;
  std::atomic<Index> next_row{0};
  std::atomic<bool> ok{true};
  parallel_team([&](int, int) {
    // Value and marker fused into one slot so each random column access in
    // the scatter touches a single cache line — the replay is scatter-bound,
    // and the layout changes nothing about the FP sequence.
    struct Slot {
      Real value;
      Index marker;
    };
    std::vector<Slot> acc(static_cast<std::size_t>(n), Slot{0.0, -1});
    for (Index blk = next_row.fetch_add(kRowBlock, std::memory_order_relaxed);
         blk < m;
         blk = next_row.fetch_add(kRowBlock, std::memory_order_relaxed)) {
      if (!ok.load(std::memory_order_relaxed)) return;
      const Index blk_end = std::min<Index>(m, blk + kRowBlock);
      for (Index i = blk; i < blk_end; ++i) {
        Index touched = 0;
        for (Index ka = arp[i]; ka < arp[i + 1]; ++ka) {
          const Index k = aci[ka];
          const Real av = ava[ka];
          if (av == 0.0) continue;
          for (Index kb = brp[k]; kb < brp[k + 1]; ++kb) {
            const Real v = av * bva[kb];
            Slot& s = acc[bci[kb]];
            if (s.marker != i) {
              s.marker = i;
              s.value = v;
              ++touched;
            } else {
              s.value += v;
            }
          }
        }
        // A column outside the cached pattern was scattered (pattern grew):
        // the count can only exceed the row length, never hide inside it,
        // because the gather below also proves every cached column was hit.
        if (touched != crp[i + 1] - crp[i]) {
          ok.store(false, std::memory_order_relaxed);
          return;
        }
        for (Index kc = crp[i]; kc < crp[i + 1]; ++kc) {
          const Slot& s = acc[cci[kc]];
          if (s.marker != i) { // pattern shrank: entry has no terms
            ok.store(false, std::memory_order_relaxed);
            return;
          }
          cva[kc] = s.value;
        }
      }
    }
  });
  return ok.load(std::memory_order_relaxed);
}

} // namespace

bool GalerkinProduct::cache_valid(const CsrMatrix& a,
                                  const CsrMatrix& p) const {
  return a.row_ptr() == a_row_ptr_ && a.col_idx() == a_col_idx_ &&
         p.row_ptr() == p_row_ptr_ && p.col_idx() == p_col_idx_;
}

void GalerkinProduct::full_setup(const CsrMatrix& a, const CsrMatrix& p) {
  PT_ASSERT(a.rows() == a.cols());
  PT_ASSERT(a.cols() == p.rows());
  a_row_ptr_ = a.row_ptr();
  a_col_idx_ = a.col_idx();
  p_row_ptr_ = p.row_ptr();
  p_col_idx_ = p.col_idx();

  pt_ = p.transpose();
  // Replay the transpose's counting sort on indices to record, for each P^T
  // entry, which P entry it copies — the refresh is then a pure permutation
  // gather (no FP ops, trivially bitwise identical).
  pt_src_.assign(static_cast<std::size_t>(p.nnz()), 0);
  {
    std::vector<Index> next(pt_.row_ptr().begin(), pt_.row_ptr().end() - 1);
    const Index* prp = p.row_ptr().data();
    const Index* pci = p.col_idx().data();
    for (Index i = 0; i < p.rows(); ++i)
      for (Index k = prp[i]; k < prp[i + 1]; ++k)
        pt_src_[static_cast<std::size_t>(next[pci[k]]++)] = k;
  }

  ap_ = CsrMatrix::multiply(a, p);
  c_ = CsrMatrix::multiply(pt_, ap_);
  ready_ = true;
}

bool GalerkinProduct::refresh(const CsrMatrix& a, const CsrMatrix& p) {
  // 1. P^T values by cached permutation.
  const Real* pv = p.values().data();
  Real* ptv = pt_.values().data();
  const Index* src = pt_src_.data();
  parallel_for(p.nnz(), [&](Index k) { ptv[k] = pv[src[k]]; });
  // 2. AP = A * P, numeric only (verifies AP's pattern is unchanged).
  // 3. C = P^T * AP, numeric only (verifies C's pattern likewise).
  return multiply_numeric(a, p, ap_) && multiply_numeric(pt_, ap_, c_);
}

CsrMatrix GalerkinProduct::product(const CsrMatrix& a, const CsrMatrix& p) {
  if (ready_ && cache_valid(a, p) && refresh(a, p)) {
    last_refresh_ = true;
    ++refreshes_;
  } else {
    full_setup(a, p);
    last_refresh_ = false;
    ++setups_;
  }
  return c_;
}

} // namespace ptatin
