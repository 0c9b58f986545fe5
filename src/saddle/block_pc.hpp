// Block lower-triangular preconditioner for the coupled Stokes system
// (Eq. 17):
//
//   P = [ J~_uu   0  ]      z_u = J~_uu^{-1} r_u
//       [ J_pu   S~  ]      z_p = S~^{-1} (r_p - J_pu z_u)
//
// J~_uu^{-1} is the multigrid V-cycle (or any velocity preconditioner) and
// S~ is the viscosity-scaled pressure mass matrix, applied with the sign
// convention S ~ -J_pu J_uu^{-1} J_up (negative definite), i.e.
// z_p = -Mp^{-1} (r_p - J_pu z_u).
#pragma once

#include <memory>

#include "ksp/pc.hpp"
#include "saddle/stokes_operator.hpp"
#include "stokes/blocks.hpp"

namespace ptatin {

struct BlockPcOptions {
  /// Drop the coupling term J_pu z_u (block-diagonal variant, ablation).
  bool block_diagonal = false;
};

class BlockTriangularPc : public Preconditioner {
public:
  /// `velocity_pc` approximates J_uu^{-1} (e.g. a GmgHierarchy);
  /// `schur` is the viscosity-scaled pressure mass matrix.
  BlockTriangularPc(const StokesOperator& op, const Preconditioner& velocity_pc,
                    const PressureMassSchur& schur,
                    const BlockPcOptions& opts = {});

  void apply(const Vector& r, Vector& z) const override;

private:
  const StokesOperator& op_;
  const Preconditioner& vpc_;
  const PressureMassSchur& schur_;
  BlockPcOptions opts_;
  mutable Vector ru_, rp_, zu_, zp_, tu_;
};

} // namespace ptatin
