// Abstract linear operator: the Mat/MatShell analogue.
//
// Everything the Krylov methods touch is a LinearOperator, so assembled CSR
// matrices, matrix-free Q2 viscous-block applications, tensor-product
// applications, and the coupled Stokes saddle operator are interchangeable —
// exactly the property §III-D exploits to mix matrix-free and assembled
// levels inside one multigrid hierarchy.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "la/csr.hpp"
#include "la/vector.hpp"

namespace ptatin {

class LinearOperator {
public:
  virtual ~LinearOperator() = default;

  /// y <- A x.
  virtual void apply(const Vector& x, Vector& y) const = 0;

  virtual Index rows() const = 0;
  virtual Index cols() const = 0;

  /// Diagonal of the operator (required by Jacobi-preconditioned smoothers;
  /// matrix-free back-ends compute it element-wise).
  virtual Vector diagonal() const;

  /// r <- b - A x.
  void residual(const Vector& b, const Vector& x, Vector& r) const;
};

/// Adapter exposing an assembled CSR matrix as a LinearOperator.
class MatrixOperator : public LinearOperator {
public:
  explicit MatrixOperator(const CsrMatrix* a) : a_(a) {}

  void apply(const Vector& x, Vector& y) const override { a_->mult(x, y); }
  Index rows() const override { return a_->rows(); }
  Index cols() const override { return a_->cols(); }
  Vector diagonal() const override { return a_->diagonal(); }

  const CsrMatrix& matrix() const { return *a_; }

private:
  const CsrMatrix* a_;
};

/// Operator defined by a callable (MatShell analogue).
class ShellOperator : public LinearOperator {
public:
  using ApplyFn = std::function<void(const Vector&, Vector&)>;

  ShellOperator(Index rows, Index cols, ApplyFn fn)
      : rows_(rows), cols_(cols), fn_(std::move(fn)) {}

  void apply(const Vector& x, Vector& y) const override { fn_(x, y); }
  Index rows() const override { return rows_; }
  Index cols() const override { return cols_; }

private:
  Index rows_, cols_;
  ApplyFn fn_;
};

} // namespace ptatin
