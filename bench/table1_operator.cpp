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
// variants of the matrix-free back-ends (MF[bW], Tens[bW], TensC[bW], with
// W = -op_batch_width; docs/KERNELS.md), and the higher-order Qk tensor
// kernels (k = 3, 4; Tens[k3], Tens[k3,b8], ... — the accuracy-per-DOF axis).
// Every operator is constructed through the kernel-dispatch registry
// (fem/kernel_registry.hpp), so the rows exercise exactly the production
// construction path. Batched applies are bitwise identical to scalar, so
// their rows differ only in time.
//
// -smoke runs the perf assertions wired into CI: registry dispatch adds no
// apply cost over direct construction (same object comes back), and the k=3
// sum-factorized kernel beats the generic-order fallback.
//
// Usage: table1_operator [-m 12] [-reps 20] [-contrast 1e4]
//                        [-op_batch_width 8] [-orders 2,3,4] [-smoke]
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "fem/kernel_registry.hpp"
#include "obs/report.hpp"
#include "ptatin/models_sinker.hpp"
#include "stokes/viscous_ops.hpp"
#include "stokes/viscous_qk.hpp"

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
  Options opts = Options::from_args(argc, argv);
  const Index m = opts.get_index("m", 12);
  const int reps = opts.get_int("reps", 20);
  const Real contrast = opts.get_real("contrast", 1e4);
  const int batch_width = opts.get_int("op_batch_width", 8);
  const bool smoke = opts.get_bool("smoke", false);
  std::vector<Index> orders = {2, 3, 4};
  if (opts.has("orders")) orders = opts.get_index_list("orders");
  if (reps < 1) {
    std::fprintf(stderr, "error: -reps must be >= 1\n");
    return 2;
  }
  if (batch_width != 0 && !is_batch_width(batch_width)) {
    std::fprintf(stderr, "error: -op_batch_width must be 0, 4, or 8\n");
    return 2;
  }
  for (Index k : orders)
    if (k < 2 || k > 4) {
      std::fprintf(stderr, "error: -orders entries must be in 2..4\n");
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

  // Every row is a KernelSpec resolved through the registry — the production
  // construction path. Qk (k > 2) applies take no Dirichlet mask.
  struct Row {
    KernelSpec spec;
    std::unique_ptr<ViscousOperatorBase> op;
  };
  std::vector<Row> rows_ops;
  auto add = [&](FineOperatorType t, int order, int width) {
    KernelSpec s;
    s.type = t;
    s.order = order;
    s.batch_width = width;
    rows_ops.push_back(
        {s, make_viscous_backend(s, mesh, coeff,
                                 order == 2 ? &bc : nullptr)});
  };
  for (Index k : orders) {
    if (k == 2) {
      add(FineOperatorType::kAssembled, 2, 0);
      add(FineOperatorType::kMatrixFree, 2, 0);
      add(FineOperatorType::kTensor, 2, 0);
      add(FineOperatorType::kTensorC, 2, 0);
      if (batch_width != 0) {
        add(FineOperatorType::kMatrixFree, 2, batch_width);
        add(FineOperatorType::kTensor, 2, batch_width);
        add(FineOperatorType::kTensorC, 2, batch_width);
      }
    } else {
      add(FineOperatorType::kTensor, int(k), 0);
      if (batch_width != 0) add(FineOperatorType::kTensor, int(k), batch_width);
    }
  }

  bench::Table tab({"Operator", "k", "Flops/el", "PessB/el", "PerfB/el", "AI",
                    "Time(ms)", "GF/s", "vs Asmb"});
  tab.print_header();

  const double nel = double(mesh.num_elements());
  double asmb_time = 0.0;
  obs::JsonValue rows = obs::JsonValue::array();
  Vector y;
  for (auto& row : rows_ops) {
    ViscousOperatorBase& op = *row.op;
    const Vector x = random_input(op.rows());
    const ApplyTiming timing = time_apply(op, x, y, reps);
    const double sec = timing.median;
    if (op.name() == "Asmb") asmb_time = sec;

    const OperatorCostModel cm = op.cost_model();
    tab.cell(op.name());
    tab.cell(long(row.spec.order));
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
    jrow["order"] = obs::JsonValue((long long)row.spec.order);
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

  if (smoke) {
    // --- CI perf smoke ------------------------------------------------------
    // 1. Registry dispatch is construction-time only: the resolved k=2 tensor
    //    operator must apply no slower than a directly-constructed one
    //    (generous 1.5x bound absorbs timer noise on shared runners).
    std::printf("\nperf smoke:\n");
    KernelSpec s2;
    s2.type = FineOperatorType::kTensor;
    const auto via_registry = make_viscous_backend(s2, mesh, coeff, &bc);
    const TensorViscousOperator direct(mesh, coeff, &bc);
    const Vector x2 = random_input(direct.rows());
    const double t_reg = time_apply(*via_registry, x2, y, reps).median;
    const double t_dir = time_apply(direct, x2, y, reps).median;
    std::printf("  k=2 tens: registry %.3f ms vs direct %.3f ms\n",
                t_reg * 1e3, t_dir * 1e3);
    if (t_reg > 1.5 * t_dir) {
      std::fprintf(stderr,
                   "FAIL: registry-dispatched k=2 apply slower than direct "
                   "construction\n");
      return 1;
    }

    // 2. The k=3 sum-factorized specialization must beat the generic-order
    //    fallback (the whole point of registering a specialization).
    ensure_qk_kernels_registered();
    KernelSpec s3;
    s3.type = FineOperatorType::kTensor;
    s3.order = 3;
    const auto tens3 = make_viscous_backend(s3, mesh, coeff, nullptr);
    const KernelResolution fb =
        KernelRegistry::instance().resolve_fallback(s3);
    const auto gen3 = fb.factory(s3, mesh, coeff, nullptr);
    const Vector x3 = random_input(tens3->rows());
    const double t_tens3 = time_apply(*tens3, x3, y, reps).median;
    const double t_gen3 = time_apply(*gen3, x3, y, reps).median;
    std::printf("  k=3: tensor %.3f ms vs generic fallback %.3f ms\n",
                t_tens3 * 1e3, t_gen3 * 1e3);
    if (t_tens3 >= t_gen3) {
      std::fprintf(stderr,
                   "FAIL: k=3 tensor kernel not faster than the generic "
                   "fallback\n");
      return 1;
    }
    std::printf("  ok\n");
  }
  return 0;
}
