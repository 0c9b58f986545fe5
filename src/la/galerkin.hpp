// Cached Galerkin triple product: the MatPtAPSymbolic/Numeric split.
//
// Every operator rebuild (each Newton step, each timestep) recomputes the
// coarse-grid operators C = P^T A P. The sparsity patterns of P^T, A*P, and
// C depend only on the *patterns* of A and P (plus which stored entries are
// exactly zero — CsrMatrix::multiply skips those), and the patterns are
// fixed across rebuilds of a geometric hierarchy: only the viscosity values
// change. GalerkinProduct computes the transpose and both SpGEMM patterns
// once, then replays a numeric-only product on subsequent calls — the same
// flops, none of the symbolic work (transpose counting sort, per-row column
// sort/unique, allocation).
//
// Determinism contract: the numeric refresh executes the exact FP operation
// sequence of a from-scratch CsrMatrix::ptap (same sparse-accumulator
// scatter order, same first-touch `=` / subsequent `+=` semantics, same
// sorted gather), so the refreshed values are BITWISE identical to the
// from-scratch product. Because multiply prunes exact-zero entries of its
// first operand, the product pattern can drift when near-cancellation
// entries of A wobble between 0.0 and 1e-19 across re-assemblies; the
// replay therefore verifies the pattern on the fly (per-row touched count
// plus gather markers prove touched set == cached set) and silently falls
// back to a full setup on any mismatch — the result is always exact.
#pragma once

#include <vector>

#include "la/csr.hpp"

namespace ptatin {

class GalerkinProduct {
public:
  GalerkinProduct() = default;

  /// C <- P^T A P. First call (or any call whose inputs change the cached
  /// product patterns) performs the full symbolic+numeric product and
  /// primes the cache; later calls replay numeric-only.
  CsrMatrix product(const CsrMatrix& a, const CsrMatrix& p);

  /// True when the most recent product() call took the numeric-only path.
  bool last_was_refresh() const { return last_refresh_; }

  long setups() const { return setups_; }
  long refreshes() const { return refreshes_; }

private:
  bool cache_valid(const CsrMatrix& a, const CsrMatrix& p) const;
  void full_setup(const CsrMatrix& a, const CsrMatrix& p);
  /// Numeric-only replay; false when a product pattern drifted (caller must
  /// full_setup — the cached values are garbage until then).
  bool refresh(const CsrMatrix& a, const CsrMatrix& p);

  bool ready_ = false;
  // Cached INPUT patterns (cheap pre-check). The product patterns also
  // depend on which stored entries of A are exactly 0.0 (multiply prunes
  // them); that is verified during the replay itself, not here.
  std::vector<Index> a_row_ptr_, a_col_idx_;
  std::vector<Index> p_row_ptr_, p_col_idx_;
  CsrMatrix pt_;               ///< P^T, values refreshed by permutation
  std::vector<Index> pt_src_;  ///< pt_ value k copies from p value pt_src_[k]
  CsrMatrix ap_;               ///< A*P pattern + scratch values
  CsrMatrix c_;                ///< result pattern + values of the last call
  long setups_ = 0, refreshes_ = 0;
  bool last_refresh_ = false;
};

} // namespace ptatin
