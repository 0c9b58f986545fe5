// Distributed-style vector: the PETSc Vec analogue.
//
// Storage is a single shared-memory array; all BLAS-1 style operations are
// threaded with OpenMP (see common/parallel.hpp). The interface mirrors the
// subset of Vec operations the solvers need.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace ptatin {

class Vector {
public:
  Vector() = default;
  explicit Vector(Index n, Real value = 0.0) : data_(n, value) {}

  Index size() const { return static_cast<Index>(data_.size()); }
  void resize(Index n, Real value = 0.0) { data_.assign(n, value); }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }

  Real& operator[](Index i) { return data_[static_cast<std::size_t>(i)]; }
  Real operator[](Index i) const { return data_[static_cast<std::size_t>(i)]; }

  /// y <- alpha (all entries).
  void set_all(Real alpha);
  /// this <- this + alpha x.
  void axpy(Real alpha, const Vector& x);
  /// this <- alpha this + x.
  void aypx(Real alpha, const Vector& x);
  /// this <- alpha this.
  void scale(Real alpha);
  /// this <- x (deep copy, sizes must match or this is resized).
  void copy_from(const Vector& x);
  /// this <- alpha x in one parallel pass, bitwise copy_from + scale. A
  /// resize skips the zero-fill, so the pass is the entries' first touch.
  void set_scaled(Real alpha, const Vector& x);
  /// Pointwise multiply: this_i <- this_i * x_i.
  void pointwise_mult(const Vector& x);
  /// Pointwise divide: this_i <- this_i / x_i.
  void pointwise_div(const Vector& x);

  /// Deterministic (parallel_reduce_lanes order, pt_muladd terms).
  Real dot(const Vector& x) const;
  Real norm2() const;
  Real norm_inf() const;
  Real sum() const;

  /// Shift so entries sum to zero (used to fix the constant pressure
  /// nullspace when the whole boundary is Dirichlet).
  void remove_constant();

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

private:
  AlignedVector<Real> data_;
};

/// One modified Gram–Schmidt step fused with the next step's dot, in one
/// parallel pass over the vectors: w <- w - beta u, and z <- z - beta s when
/// z is given; returns dot(w, next), with `next` = w for the squared norm
/// that ends an orthogonalization. Bitwise equal to w.axpy(-beta, u),
/// z->axpy(-beta, *s), w.dot(next): every multiply-add is pt_muladd and the
/// dot takes Vector::dot's lane order. GCR (with z) and the (F)GMRES Arnoldi
/// step (without) orthogonalize through it.
Real mgs_sweep(Real beta, const Vector& u, Vector& w, const Vector& next,
               const Vector* s = nullptr, Vector* z = nullptr);

} // namespace ptatin
