// Gauss-Lobatto collocated variant of the tensor-product operator (see
// viscous_gl.cpp and §III-D's spectral-element remark). NOT spectrally
// equivalent to the Galerkin operator on deformed meshes — provided as an
// ablation, not a production back-end.
#pragma once

#include "stokes/viscous_ops.hpp"

namespace ptatin {

/// NOTE: the coefficient array is interpreted AT the Lobatto points (which
/// coincide with the Q2 nodes), not at the Gauss points; for smooth or
/// constant viscosity the distinction is immaterial, which is all the
/// ablation needs.
class TensorGLViscousOperator : public ViscousOperatorBase {
public:
  using ViscousOperatorBase::ViscousOperatorBase;
  /// The Gauss-Lobatto ablation of the Tens kernel.
  FineOperatorType type() const override { return FineOperatorType::kTensor; }
  std::string name() const override { return "TensGL"; }
  OperatorCostModel cost_model() const override;

protected:
  void apply_unmasked(const Vector& x, Vector& y, bool newton) const override;
};

} // namespace ptatin
