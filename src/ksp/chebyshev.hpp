// Jacobi-preconditioned Chebyshev iteration: the paper's multigrid smoother.
//
// §III-C fixes the production smoother as "Jacobi-preconditioned Chebyshev
// iterations targeting the interval [0.2 λmax, 1.1 λmax], where λmax is an
// estimate of the largest eigenvalue of the Jacobi-preconditioned operator".
// Chebyshev needs only operator applications and pointwise scaling, so it
// runs unchanged on assembled, matrix-free, and tensor-product levels and
// exposes the fine-grained parallelism multiplicative smoothers lack.
#pragma once

#include "ksp/operator.hpp"
#include "ksp/pc.hpp"

namespace ptatin {

/// A reusable Chebyshev smoother: setup estimates λmax of D^{-1}A once, then
/// smooth() runs a fixed number of iterations (no convergence test — this is
/// the V(m,m) smoother, not a solver).
class ChebyshevSmoother {
public:
  ChebyshevSmoother() = default;

  /// `diag` is the operator diagonal; λmax is estimated internally, and the
  /// smoother targets [0.2 λmax, 1.1 λmax].
  void setup(const LinearOperator& a, Vector diag);

  /// In-place smoothing of A x = b starting from x (zero or nonzero). With
  /// `zero_guess` the caller promises x == 0 on entry: the first residual is
  /// then b itself, and the operator apply on the zero vector is skipped.
  void smooth(const Vector& b, Vector& x, int iterations,
              bool zero_guess = false) const;

  Real lambda_max() const { return lambda_max_; }
  Real interval_min() const { return emin_; }
  Real interval_max() const { return emax_; }

private:
  const LinearOperator* a_ = nullptr;
  Vector inv_diag_;
  Real lambda_max_ = 0.0, emin_ = 0.0, emax_ = 0.0;
  /// Persistent sweep scratch, sized at setup: smooth() sits on the V-cycle
  /// hot path and must not heap-allocate per call (docs/KERNELS.md).
  mutable Vector r_, p_;
};

} // namespace ptatin
