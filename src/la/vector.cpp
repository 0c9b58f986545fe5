#include "la/vector.hpp"

#include <cmath>
#include <type_traits>

#include "common/muladd.hpp"
#include "common/parallel.hpp"

namespace ptatin {

void Vector::set_all(Real alpha) {
  parallel_for(size(), [&](Index i) { data_[i] = alpha; });
}

void Vector::axpy(Real alpha, const Vector& x) {
  PT_ASSERT(x.size() == size());
  const Real* xp = x.data();
  Real* yp = data();
  parallel_for(size(),
               [&](Index i) { yp[i] = pt_muladd(alpha, xp[i], yp[i]); });
}

void Vector::aypx(Real alpha, const Vector& x) {
  PT_ASSERT(x.size() == size());
  const Real* xp = x.data();
  Real* yp = data();
  parallel_for(size(), [&](Index i) { yp[i] = alpha * yp[i] + xp[i]; });
}

void Vector::scale(Real alpha) {
  Real* p = data();
  parallel_for(size(), [&](Index i) { p[i] *= alpha; });
}

void Vector::copy_from(const Vector& x) {
  if (size() != x.size()) resize(x.size());
  const Real* xp = x.data();
  Real* yp = data();
  parallel_for(size(), [&](Index i) { yp[i] = xp[i]; });
}

void Vector::set_scaled(Real alpha, const Vector& x) {
  if (size() != x.size()) {
    data_.clear();
    data_.resize(static_cast<std::size_t>(x.size()));
  }
  const Real* xp = x.data();
  Real* yp = data();
  parallel_for(size(), [&](Index i) { yp[i] = xp[i] * alpha; });
}

void Vector::pointwise_mult(const Vector& x) {
  PT_ASSERT(x.size() == size());
  const Real* xp = x.data();
  Real* yp = data();
  parallel_for(size(), [&](Index i) { yp[i] *= xp[i]; });
}

void Vector::pointwise_div(const Vector& x) {
  PT_ASSERT(x.size() == size());
  const Real* xp = x.data();
  Real* yp = data();
  parallel_for(size(), [&](Index i) { yp[i] /= xp[i]; });
}

Real Vector::dot(const Vector& x) const {
  PT_ASSERT(x.size() == size());
  const Real* xp = x.data();
  const Real* yp = data();
  // The lane reduction is deterministic (fixed chunks, lanes and combine
  // order), so dot products — and the residual histories built from them —
  // are bitwise reproducible at any thread count. The explicit pt_muladd
  // lets mgs_sweep replay the dot bitwise whatever the compiler contracts.
  return parallel_reduce_lanes(size(), [&](Index i, Real acc) {
    return pt_muladd(xp[i], yp[i], acc);
  });
}

Real Vector::norm2() const { return std::sqrt(dot(*this)); }

Real Vector::norm_inf() const {
  if (size() == 0) return 0.0; // reduce_max identity is -inf, not 0
  const Real* p = data();
  return parallel_reduce_max(size(), [&](Index i) { return std::abs(p[i]); });
}

Real Vector::sum() const {
  const Real* p = data();
  return parallel_reduce_sum(size(), [&](Index i) { return p[i]; });
}

void Vector::remove_constant() {
  if (size() == 0) return;
  const Real mean = sum() / static_cast<Real>(size());
  Real* p = data();
  parallel_for(size(), [&](Index i) { p[i] -= mean; });
}

Real mgs_sweep(Real beta, const Vector& u, Vector& w, const Vector& next,
               const Vector* s, Vector* z) {
  PT_ASSERT(u.size() == w.size() && next.size() == w.size());
  PT_ASSERT((s == nullptr) == (z == nullptr));
  PT_ASSERT(s == nullptr || (s->size() == w.size() && z->size() == w.size()));
  const Real nb = -beta;
  const Real* up = u.data();
  Real* wp = w.data();
  const Real* np = next.data();
  const Real* sp = s != nullptr ? s->data() : nullptr;
  Real* zp = z != nullptr ? z->data() : nullptr;
  // Every load precedes the stores of the same entry, and a self dot uses
  // the updated register value, so the lane loop vectorizes without an
  // aliasing question.
  const auto sweep = [&](auto with_z, auto self_dot) {
    return parallel_reduce_lanes(w.size(), [&](Index i, Real acc) {
      const Real wi = pt_muladd(nb, up[i], wp[i]);
      const Real ni = decltype(self_dot)::value ? wi : np[i];
      if constexpr (decltype(with_z)::value)
        zp[i] = pt_muladd(nb, sp[i], zp[i]);
      wp[i] = wi;
      return pt_muladd(wi, ni, acc);
    });
  };
  using Yes = std::true_type;
  using No = std::false_type;
  const bool self = &next == &w;
  if (z != nullptr) return self ? sweep(Yes{}, Yes{}) : sweep(Yes{}, No{});
  return self ? sweep(No{}, Yes{}) : sweep(No{}, No{});
}

} // namespace ptatin
