// The coupled Stokes saddle-point operator (Eq. 14):
//
//   [ J_uu  J_up ] [du]   [ F_u ]
//   [ J_pu   0   ] [dp] = [ F_p ]
//
// J_uu is any of the viscous back-ends, applied with the Newton term when
// this operator is built with it: "we use the true Newton linearization only
// when applying the Krylov operator ... For the preconditioner ... we use
// the Picard linearization" (§III-A). The preconditioner may therefore
// smooth with the same viscous operator object, whose own applies stay
// Picard. J_up = B and J_pu = B^T are assembled (4 columns per element):
// the block preconditioner, SCR and the lifting use them, and so does
// apply() on the Asmb, MF and TensC back-ends. On the Tens back-end apply()
// instead folds B and B^T into the viscous element sweep
// (TensorViscousOperator::apply_stokes). Dirichlet constraints are imposed
// by masking; inhomogeneous values enter through build_rhs (lifting).
#pragma once

#include <memory>

#include "fem/bc.hpp"
#include "ksp/operator.hpp"
#include "la/csr.hpp"
#include "stokes/blocks.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

class StokesOperator : public LinearOperator {
public:
  /// `a` is borrowed (must outlive this). B blocks are assembled here.
  /// With `newton`, every apply adds J_uu's Newton term (the coefficients
  /// must carry the Newton state).
  StokesOperator(const StructuredMesh& mesh, const ViscousOperatorBase& a,
                 const DirichletBc& bc, bool newton = false);

  Index rows() const override { return nu_ + np_; }
  Index cols() const override { return nu_ + np_; }
  Index num_velocity() const { return nu_; }
  Index num_pressure() const { return np_; }

  void apply(const Vector& x, Vector& y) const override;

  /// Coupled right-hand side with boundary lifting: given the body-force
  /// vector f (velocity space), returns [f - A g ; -B^T g] with constrained
  /// rows replaced by the boundary values.
  Vector build_rhs(const Vector& f) const;

  /// Residual norms split by field (for the Figure 2 monitors).
  void split_norms(const Vector& r, Real& unorm, Real& pnorm) const;

  // --- views ---------------------------------------------------------------
  const ViscousOperatorBase& viscous() const { return a_; }
  /// B before masking: a caller zeroes the constrained rows of its product
  /// (bc().zero_constrained) where it needs the masked block.
  const CsrMatrix& gradient() const { return b_full_; }
  /// B^T with the constrained velocity columns removed.
  const CsrMatrix& divergence() const { return bt_masked_; }
  const DirichletBc& bc() const { return bc_; }
  const StructuredMesh& mesh() const { return mesh_; }

  /// Split / combine helpers for the stacked layout [u; p].
  void extract_u(const Vector& x, Vector& u) const;
  void extract_p(const Vector& x, Vector& p) const;
  void combine(const Vector& u, const Vector& p, Vector& x) const;

private:
  const StructuredMesh& mesh_;
  const ViscousOperatorBase& a_;
  const DirichletBc& bc_;
  const bool newton_operator_;
  Index nu_ = 0, np_ = 0;
  CsrMatrix b_full_;    ///< gradient block before BC masking
  CsrMatrix bt_masked_; ///< its transpose without the constrained columns
  mutable Vector xu_, xp_, yu_, yp_;
};

} // namespace ptatin
