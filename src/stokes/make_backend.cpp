// The one viscous back-end construction path: a switch over the back-end,
// with the batch width passed to the constructor and the subdomain engine
// wired afterwards.
#include "common/error.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

std::unique_ptr<ViscousOperatorBase>
make_viscous_backend(const KernelSpec& spec, const StructuredMesh& mesh,
                     const QuadCoefficients& coeff, const DirichletBc* bc) {
  const int w = spec.batch_width;
  // Checked here for every back-end: the assembled constructor takes no
  // width, so it would otherwise accept any.
  if (w != 0 && !is_batch_width(w))
    PT_THROW("kernel " << kernel_label(spec)
                       << ": batch width must be 0 (scalar) or 8");
  std::unique_ptr<ViscousOperatorBase> op;
  switch (spec.type) {
    case FineOperatorType::kAssembled:
      op = std::make_unique<AsmbViscousOperator>(mesh, coeff, bc);
      break;
    case FineOperatorType::kMatrixFree:
      op = std::make_unique<MfViscousOperator>(mesh, coeff, bc, w);
      break;
    case FineOperatorType::kTensor:
      op = std::make_unique<TensorViscousOperator>(mesh, coeff, bc, w);
      break;
    case FineOperatorType::kTensorC:
      op = std::make_unique<TensorCViscousOperator>(mesh, coeff, bc, w);
      break;
  }
  op->set_subdomain_engine(spec.engine);
  return op;
}

} // namespace ptatin
