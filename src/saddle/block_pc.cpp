#include "saddle/block_pc.hpp"

#include "obs/perf.hpp"

namespace ptatin {

BlockTriangularPc::BlockTriangularPc(const StokesOperator& op,
                                     const Preconditioner& velocity_pc,
                                     const PressureMassSchur& schur,
                                     const BlockPcOptions& opts)
    : op_(op), vpc_(velocity_pc), schur_(schur), opts_(opts) {
  PT_ASSERT(schur.size() == op.num_pressure());
}

void BlockTriangularPc::apply(const Vector& r, Vector& z) const {
  PerfScope perf("PCApply(Stokes)");
  op_.extract_u(r, ru_);
  op_.extract_p(r, rp_);

  // Velocity solve: z_u = J~_uu^{-1} r_u.
  vpc_.apply(ru_, zu_);

  // Schur stage: z_p = -Mp^{-1} (r_p - J_pu z_u).
  if (!opts_.block_diagonal) {
    op_.divergence().mult(zu_, tu_); // tu_ = J_pu z_u (pressure sized)
    rp_.axpy(-1.0, tu_);
  }
  schur_.apply(rp_, zp_);
  zp_.scale(-1.0); // S ~ -J_pu J_uu^{-1} J_up is negative definite

  op_.combine(zu_, zp_, z);
}

} // namespace ptatin
