#include "ksp/chebyshev.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/muladd.hpp"
#include "common/parallel.hpp"
#include "ksp/eig_estimate.hpp"
#include "obs/metrics.hpp"

namespace ptatin {

namespace {
/// Iterations of the λmax estimator.
constexpr int kEigEstIterations = 12;
/// The smoothed interval as fractions of the estimated λmax (§III-C).
constexpr Real kEminFraction = 0.2;
constexpr Real kEmaxFraction = 1.1;
} // namespace

void ChebyshevSmoother::setup(const LinearOperator& a, Vector diag) {
  PT_ASSERT(a.rows() == a.cols());
  PT_ASSERT(diag.size() == a.rows());
  a_ = &a;
  inv_diag_ = std::move(diag);
  Real* d = inv_diag_.data();
  parallel_for(inv_diag_.size(), [&](Index i) {
    PT_DEBUG_ASSERT(d[i] != 0.0);
    d[i] = Real(1) / d[i];
  });

  lambda_max_ = estimate_lambda_max_jacobi(a, inv_diag_, kEigEstIterations);
  // A NaN/Inf or nonpositive estimate means the operator (or its diagonal)
  // is already corrupted. Degrade to a conservative default interval rather
  // than aborting: the smoother merely smooths badly, and the outer Krylov
  // guards (dtol/NaN) catch a genuinely broken operator.
  if (!(std::isfinite(lambda_max_) && lambda_max_ > 0.0)) {
    log_warn("Chebyshev: invalid eigenvalue estimate (", lambda_max_,
             "); falling back to lambda_max = 1");
    obs::MetricsRegistry::instance()
        .counter("safeguard.cheb_eig_fallback")
        .inc();
    lambda_max_ = 1.0;
  }
  emin_ = kEminFraction * lambda_max_;
  emax_ = kEmaxFraction * lambda_max_;
  // Size the sweep scratch once: smooth() is the V-cycle hot path and must
  // not allocate per call.
  const Index n = a.rows();
  r_.resize(n);
  p_.resize(n);
}

void ChebyshevSmoother::smooth(const Vector& b, Vector& x, int iterations,
                               bool zero_guess) const {
  PT_ASSERT(a_ != nullptr);
  // -smooth_pre 0 / -smooth_post 0 must mean ZERO smoothing work: the
  // pre-loop half step below used to run unconditionally, so a 0-iteration
  // smooth still smoothed once.
  if (iterations <= 0) return;
  const Index n = b.size();
  if (x.size() != n) x.resize(n, 0.0);
  if (r_.size() != n) {
    r_.resize(n);
    p_.resize(n);
  }

  // Chebyshev semi-iteration on the Jacobi-preconditioned system
  // (D^{-1}A) x = D^{-1} b, spectrum bounded by [emin_, emax_].
  const Real theta = Real(0.5) * (emax_ + emin_);
  const Real delta = Real(0.5) * (emax_ - emin_);
  const Real sigma = theta / delta;
  const Real* idg = inv_diag_.data();

  // One operator apply plus ONE pass over the vectors per iteration: r_
  // holds A x, and the pass forms the residual, Jacobi-scales it, advances
  // the recurrence and applies the correction. The statement forms mirror
  // the Vector-operation sweep (residual, scale, aypx, axpy; the reference
  // in tests/test_coarse.cpp) — the ±1-coefficient and single-multiply
  // statements are exact under any contraction choice, and the one genuine
  // mul+add (the axpy step of the recurrence) uses pt_muladd to match
  // Vector::axpy's FMA codegen — so the result is bitwise that sweep's. A
  // zero guess takes the residual b directly; it can differ from b - A 0
  // only in the sign of a zero, which adding it to x = +0 erases.
  const Real* bp = b.data();
  Real* rp = r_.data();
  Real* pp = p_.data();
  Real* xp = x.data();

  if (!zero_guess) a_->apply(x, r_);
  Real rho = Real(1) / sigma;
  {
    const Real inv_theta = Real(1) / theta;
    parallel_for(n, [&](Index i) {
      const Real ri = zero_guess ? bp[i] : Real(-1) * rp[i] + bp[i];
      const Real zi = ri * idg[i];
      const Real pi = zi * inv_theta;
      pp[i] = pi;
      xp[i] += Real(1) * pi;
    });
  }
  for (int k = 1; k < iterations; ++k) {
    a_->apply(x, r_);
    const Real rho_new = Real(1) / (Real(2) * sigma - rho);
    const Real c1 = rho_new * rho;
    const Real c2 = Real(2) * rho_new / delta;
    parallel_for(n, [&](Index i) {
      const Real ri = Real(-1) * rp[i] + bp[i];
      const Real zi = ri * idg[i];
      Real pi = pp[i] * c1;
      pi = pt_muladd(c2, zi, pi);
      pp[i] = pi;
      xp[i] += Real(1) * pi;
    });
    rho = rho_new;
  }
}

} // namespace ptatin
