// Operator back-end playground: demonstrates that the four viscous-operator
// implementations (assembled CSR, matrix-free, tensor-product, stored-
// coefficient tensor) are interchangeable LinearOperators producing
// identical results at very different cost — the core idea of §III-D.
//
// The batched variants at the solver's width (MF[b8]/Tens[b8]/TensC[b8])
// ride along to show the cross-element SIMD path is a drop-in too: bitwise
// identical to its scalar instance, so it prints the same "max diff".
//
//   ./build/examples/operator_backends [-m 8]
#include <cstdio>
#include <memory>

#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "ptatin/models_sinker.hpp"
#include "stokes/viscous_ops.hpp"

using namespace ptatin;

int main(int argc, char** argv) {
  Options opts = Options::from_args(argc, argv);
  const Index m = opts.get_index("m", 8);

  StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  SinkerParams sp;
  sp.mx = sp.my = sp.mz = m;
  QuadCoefficients coeff = sinker_coefficients(mesh, sp);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  std::vector<std::unique_ptr<ViscousOperatorBase>> ops;
  ops.push_back(std::make_unique<AsmbViscousOperator>(mesh, coeff, &bc));
  ops.push_back(std::make_unique<MfViscousOperator>(mesh, coeff, &bc));
  ops.push_back(std::make_unique<TensorViscousOperator>(mesh, coeff, &bc));
  ops.push_back(std::make_unique<TensorCViscousOperator>(mesh, coeff, &bc));
  const int bw = kSolverBatchWidth;
  ops.push_back(std::make_unique<MfViscousOperator>(mesh, coeff, &bc, bw));
  ops.push_back(std::make_unique<TensorViscousOperator>(mesh, coeff, &bc, bw));
  ops.push_back(std::make_unique<TensorCViscousOperator>(mesh, coeff, &bc, bw));

  Vector x(ops[0]->rows());
  Rng rng(7);
  for (Index i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1, 1);

  Vector y_ref;
  ops[0]->apply(x, y_ref);
  std::printf("%-8s %14s %14s %12s\n", "backend", "||Ax||", "max diff",
              "ms/apply");
  for (auto& op : ops) {
    Vector y;
    op->apply(x, y); // warm-up
    Timer t;
    const int reps = 10;
    for (int r = 0; r < reps; ++r) op->apply(x, y);
    Real diff = 0;
    for (Index i = 0; i < y.size(); ++i)
      diff = std::max(diff, std::abs(y[i] - y_ref[i]));
    std::printf("%-8s %14.6e %14.3e %12.2f\n", op->name().c_str(), y.norm2(),
                diff, t.seconds() / reps * 1e3);
  }
  std::printf("\nall four back-ends agree to rounding; pick by the "
              "flops-vs-bandwidth balance of your machine (§III-D).\n");
  return 0;
}
