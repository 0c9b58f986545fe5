// The one viscous back-end construction path: a switch over the back-end,
// with the batch width and the subdomain engine passed to the constructor.
#include "common/error.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

std::unique_ptr<ViscousOperatorBase>
make_viscous_backend(const KernelSpec& spec, const StructuredMesh& mesh,
                     const QuadCoefficients& coeff, const DirichletBc* bc) {
  const int w = spec.batch_width;
  // Checked here for every back-end: the assembled constructor takes no
  // width, so it would otherwise accept any.
  if (w != 0 && w != kSolverBatchWidth)
    PT_THROW("kernel " << kernel_label(spec)
                       << ": batch width must be 0 (scalar) or 8");
  switch (spec.type) {
    case FineOperatorType::kAssembled:
      return std::make_unique<AsmbViscousOperator>(mesh, coeff, bc,
                                                   spec.engine);
    case FineOperatorType::kMatrixFree:
      return std::make_unique<MfViscousOperator>(mesh, coeff, bc, w,
                                                 spec.engine);
    case FineOperatorType::kTensor:
      return std::make_unique<TensorViscousOperator>(mesh, coeff, bc, w,
                                                     spec.engine);
    case FineOperatorType::kTensorC:
      return std::make_unique<TensorCViscousOperator>(mesh, coeff, bc, w,
                                                      spec.engine);
  }
  PT_THROW("unknown fine operator type");
}

} // namespace ptatin
