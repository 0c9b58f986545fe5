#include "ksp/eig_estimate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/muladd.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace ptatin {

Real estimate_lambda_max_jacobi(const LinearOperator& a, const Vector& inv_diag,
                                int iterations) {
  const Index n = a.rows();
  PT_ASSERT(inv_diag.size() == n);
  Vector v(n), w(n);

  // Deterministic pseudo-random start vector excites all modes reproducibly.
  Rng rng(0xC0FFEEull);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1.0, 1.0);
  Real vnorm = v.norm2();
  PT_ASSERT(vnorm > 0.0);
  v.scale(Real(1) / vnorm);

  Real lambda = 0.0;
  const Real* idg = inv_diag.data();
  for (int k = 0; k < iterations; ++k) {
    a.apply(v, w);
    // w <- D^{-1} w fused into the pass that sums ||w||^2: bitwise the
    // scaling loop followed by w.norm2() (Vector::dot's lanes and
    // pt_muladd terms), one parallel region instead of two.
    Real* wp = w.data();
    const Real ww = parallel_reduce_lanes(n, [&](Index i, Real acc) {
      const Real wi = wp[i] * idg[i];
      wp[i] = wi;
      return pt_muladd(wi, wi, acc);
    });
    lambda = std::sqrt(ww); // Rayleigh-style growth factor for the unit v
    if (!(lambda > 0.0)) return 0.0;
    v.set_scaled(Real(1) / lambda, w);
  }
  return lambda;
}

} // namespace ptatin
