#include "saddle/stokes_operator.hpp"

#include "common/parallel.hpp"
#include "obs/perf.hpp"

namespace ptatin {

StokesOperator::StokesOperator(const StructuredMesh& mesh,
                               const ViscousOperatorBase& a,
                               const DirichletBc& bc, bool newton)
    : mesh_(mesh), a_(a), bc_(bc), newton_operator_(newton) {
  nu_ = num_velocity_dofs(mesh);
  np_ = num_pressure_dofs(mesh);
  PT_ASSERT(a.rows() == nu_);

  PerfScope span("MatAssembly(B)");
  assemble_gradient_blocks(mesh, bc, b_full_, bt_masked_);
}

void StokesOperator::extract_u(const Vector& x, Vector& u) const {
  if (u.size() != nu_) u.resize(nu_);
  const Real* xp = x.data();
  Real* up = u.data();
  parallel_for(nu_, [&](Index i) { up[i] = xp[i]; });
}

void StokesOperator::extract_p(const Vector& x, Vector& p) const {
  if (p.size() != np_) p.resize(np_);
  const Real* xp = x.data();
  Real* pp = p.data();
  parallel_for(np_, [&](Index i) { pp[i] = xp[nu_ + i]; });
}

void StokesOperator::combine(const Vector& u, const Vector& p,
                             Vector& x) const {
  PT_ASSERT(u.size() == nu_ && p.size() == np_);
  if (x.size() != rows()) x.resize(rows());
  Real* xp = x.data();
  const Real* up = u.data();
  const Real* pp = p.data();
  parallel_for(nu_, [&](Index i) { xp[i] = up[i]; });
  parallel_for(np_, [&](Index i) { xp[nu_ + i] = pp[i]; });
}

void StokesOperator::apply(const Vector& x, Vector& y) const {
  PerfScope perf("MatMult(Stokes)");
  PT_ASSERT(x.size() == rows());
  if (y.size() != rows()) y.resize(rows());

  // The Tens back-end folds B and B^T into its element sweep and works on
  // the stacked vectors in place, when it masks with these constraints.
  const auto* tens = dynamic_cast<const TensorViscousOperator*>(&a_);
  if (tens != nullptr && tens->bc() == &bc_) {
    tens->apply_stokes(x, y, newton_operator_);
    return;
  }

  extract_u(x, xu_);
  extract_p(x, xp_);

  // yu = A xu (masked) + B xp with B's constrained rows zeroed (each row
  // of the product starts at +0.0, so zeroing it after is bitwise masking B).
  a_.apply(xu_, yu_, newton_operator_);
  b_full_.mult(xp_, yp_); // yp_ reused as a velocity-sized temporary
  PT_ASSERT(yp_.size() == nu_);
  bc_.zero_constrained(yp_);
  yu_.axpy(1.0, yp_);

  // yp = B^T xu (columns at constrained dofs removed).
  bt_masked_.mult(xu_, yp_);

  combine(yu_, yp_, y);
}

Vector StokesOperator::build_rhs(const Vector& f) const {
  PT_ASSERT(f.size() == nu_);
  const Vector g = bc_.lifting();

  // Lift with the Picard form of the operator: rhs_u = f - A g. The
  // assembled back-end masks its matrix, so use a throwaway matrix-free
  // apply on the same coefficients.
  Vector ag(nu_);
  {
    TensorViscousOperator lift_op(mesh_, a_.coefficients(), nullptr,
                                  kSolverBatchWidth);
    Vector gg;
    gg.copy_from(g);
    lift_op.apply(gg, ag);
  }
  Vector ru;
  ru.copy_from(f);
  ru.axpy(-1.0, ag);
  // Constrained rows: identity equation u_bc = g_bc.
  bc_.set_values(ru);

  // rp = -B^T g (the full B: boundary velocities do contribute mass flux).
  Vector rp;
  b_full_.mult_transpose(g, rp);
  rp.scale(-1.0);

  Vector rhs;
  combine(ru, rp, rhs);
  return rhs;
}

void StokesOperator::split_norms(const Vector& r, Real& unorm,
                                 Real& pnorm) const {
  PT_ASSERT(r.size() == rows());
  const Real* rp = r.data();
  unorm = std::sqrt(
      parallel_reduce_sum(nu_, [&](Index i) { return rp[i] * rp[i]; }));
  pnorm = std::sqrt(parallel_reduce_sum(
      np_, [&](Index i) { return rp[nu_ + i] * rp[nu_ + i]; }));
}

} // namespace ptatin
