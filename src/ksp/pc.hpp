// Preconditioner interface and the simple built-in PCs.
//
// A Preconditioner applies z ~= A^{-1} r. Implementations may themselves run
// inner iterations (multigrid cycles, inner Krylov solves), making the
// preconditioner *nonlinear*; the outer method must then be flexible
// (FGMRES or GCR — §III-A).
#pragma once

#include <functional>
#include <memory>

#include "common/types.hpp"
#include "la/block_jacobi.hpp"
#include "la/csr.hpp"
#include "la/ilu0.hpp"
#include "la/vector.hpp"

namespace ptatin {

class Preconditioner {
public:
  virtual ~Preconditioner() = default;
  /// z <- M^{-1} r.
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// z <- r.
class IdentityPc : public Preconditioner {
public:
  void apply(const Vector& r, Vector& z) const override { z.copy_from(r); }
};

/// Pointwise Jacobi: z_i <- r_i / d_i.
class JacobiPc : public Preconditioner {
public:
  explicit JacobiPc(Vector diag);

  void apply(const Vector& r, Vector& z) const override;

private:
  Vector inv_diag_;
};

/// ILU(0) preconditioner on an assembled matrix.
class Ilu0Pc : public Preconditioner {
public:
  explicit Ilu0Pc(const CsrMatrix& a) : ilu_(a) {}
  void apply(const Vector& r, Vector& z) const override { ilu_.solve(r, z); }

private:
  Ilu0 ilu_;
};

/// Block-Jacobi / 1-level additive Schwarz preconditioner.
class BlockJacobiPc : public Preconditioner {
public:
  BlockJacobiPc(const CsrMatrix& a, Index nblocks, SubdomainSolve solve,
                Index overlap = 0) {
    bj_.setup(a, nblocks, solve, overlap);
  }
  void apply(const Vector& r, Vector& z) const override { bj_.apply(r, z); }

private:
  BlockJacobi bj_;
};

/// Preconditioner defined by a callable (PCShell analogue).
class ShellPc : public Preconditioner {
public:
  using ApplyFn = std::function<void(const Vector&, Vector&)>;
  explicit ShellPc(ApplyFn fn) : fn_(std::move(fn)) {}
  void apply(const Vector& r, Vector& z) const override { fn_(r, z); }

private:
  ApplyFn fn_;
};

} // namespace ptatin
