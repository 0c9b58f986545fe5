// Table I reproduction: cost of one viscous-operator application for the
// four back-ends (Assembled, Matrix-free, Tensor, Tensor C).
//
// The paper reports, per element: flops, pessimal-cache bytes, perfect-cache
// bytes, and measured time/GF/s on 8 nodes of Edison. We print the same
// analytic models next to measured single-node timings on this host; the
// validated claim is the ORDERING and the relative speedups (Tens ~ several
// times faster than Asmb and MF), not absolute milliseconds.
//
// In addition to the paper's four rows we time the cross-element SIMD-batched
// variants of the matrix-free back-ends at the solver stack's width (MF[b8],
// Tens[b8], TensC[b8]; docs/KERNELS.md). Every operator is constructed
// through make_viscous_backend, the production construction path. Batched
// applies are bitwise identical to scalar, so their rows differ only in time.
//
// Usage: table1_operator [-m 12] [-reps 20] [-contrast 1e4]
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "obs/report.hpp"
#include "ptatin/models_sinker.hpp"
#include "stokes/viscous_ops.hpp"

using namespace ptatin;

namespace {

struct ApplyTiming {
  double median = 0.0; ///< seconds per apply
  double iqr = 0.0;    ///< interquartile range of the per-apply times
};

/// Linearly interpolated quantile q in [0, 1] of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * double(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

/// Times each of `reps` applies separately (after one warm-up apply, which
/// for Asmb also covers assembly) and reports their median and spread, so
/// one slow apply cannot skew a row.
ApplyTiming time_apply(const ViscousOperatorBase& op, const Vector& x,
                       Vector& y, int reps) {
  op.apply(x, y);
  std::vector<double> sec(reps);
  for (double& s : sec) {
    Timer t;
    op.apply(x, y);
    s = t.seconds();
  }
  std::sort(sec.begin(), sec.end());
  return {quantile(sec, 0.5), quantile(sec, 0.75) - quantile(sec, 0.25)};
}

Vector random_input(Index n) {
  Vector x(n);
  Rng rng(1);
  for (Index i = 0; i < n; ++i) x[i] = rng.uniform(-1, 1);
  return x;
}

} // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_options(
      argc, argv, "table1_operator",
      {{"m", "N", "mesh resolution (default 12)"},
       {"reps", "N", "timed applies per row (default 20)"},
       {"contrast", "X", "viscosity contrast (default 1e4)"},
       {"json", "FILE", "trajectory file (default BENCH_table1.json)"}});
  const Index m = opts.get_index("m", 12);
  const int reps = opts.get_int("reps", 20);
  const Real contrast = opts.get_real("contrast", 1e4);
  if (reps < 1) {
    std::fprintf(stderr, "error: -reps must be >= 1\n");
    return 2;
  }

  bench::banner(
      "Table I: viscous operator application cost (paper: SC14 Table I)");
  std::printf("mesh %lld^3 Q2 elements (%lld velocity dofs), viscosity "
              "contrast %.1e, %d separately timed applications per backend "
              "(median reported)\n\n",
              (long long)m, (long long)(3 * (2 * m + 1) * (2 * m + 1) *
                                        (2 * m + 1)),
              contrast, reps);

  StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  // Deformed mesh: the paper's kernels must handle non-axis-aligned cells.
  mesh.deform([](const Vec3& x) {
    return Vec3{x[0] + 0.03 * std::sin(3 * x[1]),
                x[1] + 0.03 * std::sin(3 * x[2]), x[2] + 0.03 * x[0] * x[1]};
  });

  SinkerParams sp;
  sp.mx = sp.my = sp.mz = m;
  sp.contrast = contrast;
  QuadCoefficients coeff = sinker_coefficients(mesh, sp);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  // Every row is built from a KernelSpec by make_viscous_backend — the
  // production construction path.
  std::vector<std::unique_ptr<ViscousOperatorBase>> ops;
  auto add = [&](FineOperatorType t, int width) {
    ops.push_back(make_viscous_backend(
        KernelSpec{.type = t, .batch_width = width}, mesh, coeff, &bc));
  };
  add(FineOperatorType::kAssembled, 0);
  add(FineOperatorType::kMatrixFree, 0);
  add(FineOperatorType::kTensor, 0);
  add(FineOperatorType::kTensorC, 0);
  add(FineOperatorType::kMatrixFree, kSolverBatchWidth);
  add(FineOperatorType::kTensor, kSolverBatchWidth);
  add(FineOperatorType::kTensorC, kSolverBatchWidth);

  bench::Table tab({"Operator", "Flops/el", "PessB/el", "PerfB/el", "AI",
                    "Time(ms)", "GF/s", "vs Asmb"});
  tab.print_header();

  const double nel = double(mesh.num_elements());
  double asmb_time = 0.0;
  obs::JsonValue rows = obs::JsonValue::array();
  Vector y;
  for (const auto& op_ptr : ops) {
    const ViscousOperatorBase& op = *op_ptr;
    const Vector x = random_input(op.rows());
    const ApplyTiming timing = time_apply(op, x, y, reps);
    const double sec = timing.median;
    if (op.name() == "Asmb") asmb_time = sec;

    const OperatorCostModel cm = op.cost_model();
    tab.cell(op.name());
    tab.cell(cm.flops_per_element, "%.0f");
    tab.cell(cm.bytes_pessimal, "%.0f");
    tab.cell(cm.bytes_perfect, "%.0f");
    tab.cell(cm.flops_per_element / cm.bytes_perfect, "%.1f");
    tab.cell(sec * 1e3, "%.2f");
    tab.cell(cm.flops_per_element * nel / sec * 1e-9, "%.2f");
    tab.cell(asmb_time > 0 ? asmb_time / sec : 1.0, "%.2fx");
    tab.endrow();

    obs::JsonValue jrow = obs::JsonValue::object();
    jrow["backend"] = obs::JsonValue(op.name());
    jrow["batch_width"] = obs::JsonValue((long long)op.batch_width());
    jrow["flops_per_element"] = obs::JsonValue(cm.flops_per_element);
    jrow["bytes_pessimal"] = obs::JsonValue(cm.bytes_pessimal);
    jrow["bytes_perfect"] = obs::JsonValue(cm.bytes_perfect);
    jrow["apply_seconds"] = obs::JsonValue(sec);
    jrow["apply_seconds_iqr"] = obs::JsonValue(timing.iqr);
    jrow["gflops_per_sec"] =
        obs::JsonValue(cm.flops_per_element * nel / sec * 1e-9);
    jrow["speedup_vs_asmb"] =
        obs::JsonValue(asmb_time > 0 ? asmb_time / sec : 1.0);
    rows.push_back(std::move(jrow));
  }

  obs::JsonValue run = obs::JsonValue::object();
  run["m"] = obs::JsonValue((long long)m);
  run["reps"] = obs::JsonValue(reps);
  run["contrast"] = obs::JsonValue(contrast);
  run["rows"] = std::move(rows);
  const std::string json_path =
      opts.get_string("json", "BENCH_table1.json");
  if (obs::append_bench_run(json_path, "table1_operator", std::move(run)))
    std::printf("\nrun appended to %s\n", json_path.c_str());

  std::printf("\npaper reference (Edison, 8 nodes): Asmb 42 ms | MF 53 ms | "
              "Tensor 15 ms | Tensor C 2.9+ ms-class entries;\n"
              "expected shape: Tens fastest per apply, MF compute-bound "
              "faster than bandwidth-bound Asmb at scale.\n");

  // Memory footprint comparison (the paper's motivation for matrix-free).
  {
    AsmbViscousOperator asmb(mesh, coeff, &bc);
    Vector xw = random_input(asmb.rows());
    asmb.apply(xw, y); // force assembly
    std::printf("\nassembled matrix storage: %.1f MB (%lld nonzeros); "
                "matrix-free state: coefficients %.1f MB\n",
                asmb.matrix().memory_bytes() / 1048576.0,
                (long long)asmb.matrix().nnz(),
                double(mesh.num_elements()) * kQuadPerEl * sizeof(Real) /
                    1048576.0);
  }

  return 0;
}
