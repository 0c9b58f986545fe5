// Ablation benches for the design choices DESIGN.md calls out:
//   1. Galerkin vs rediscretized coarse operators
//   2. Chebyshev smoothing strength V(1,1) / V(2,2) / V(3,3)
//   3. GCR vs FGMRES outer Krylov
//   4. Lower-triangular vs block-diagonal fieldsplit
//   5. SCR vs full-space iteration + Uzawa (robustness-for-cost, §IV-A)
//   6. Gauss-Lobatto collocation vs full Gauss quadrature (§III-D remark)
//
// Usage: ablation_solver [-m 12] [-contrast 1e3]
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"
#include "stokes/viscous_ops_gl.hpp"

using namespace ptatin;

int main(int argc, char** argv) {
  const Options cli = bench::parse_options(
      argc, argv, "ablation_solver",
      {{"m", "N", "sinker mesh resolution (default 12)"},
       {"contrast", "X", "viscosity contrast (default 1e3)"}});
  const Index m = cli.get_index("m", 12);
  const Real contrast = cli.get_real("contrast", 1e3);

  SinkerParams sp;
  sp.mx = sp.my = sp.mz = m;
  sp.contrast = contrast;
  StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = sinker_boundary_conditions(mesh);
  QuadCoefficients coeff = sinker_coefficients(mesh, sp);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  const int levels = suggest_gmg_levels(m);

  auto run = [&](const std::string& label, StokesSolverOptions so) {
    so.krylov.rtol = 1e-5;
    so.krylov.max_it = 600;
    StokesSolver solver(mesh, coeff, bc, so);
    StokesSolveResult res = solver.solve(f);
    std::printf("%-34s its=%4d  setup=%6.2fs  solve=%6.2fs  %s\n",
                label.c_str(), res.stats.iterations, solver.setup_seconds(),
                res.solve_seconds, res.stats.converged ? "" : "NOT CONVERGED");
    return res;
  };

  StokesSolverOptions base;
  base.kernel.type = FineOperatorType::kTensor;
  base.gmg.levels = levels;
  base.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  base.coarse_bjacobi_blocks = 1;

  // One untimed solve, capped at one restart cycle like ptbench's warm-up,
  // so the first timed row does not pay the process's first-run costs.
  {
    StokesSolverOptions warm = base;
    warm.krylov.max_it = warm.krylov.restart;
    StokesSolver(mesh, coeff, bc, warm).solve(f);
  }

  bench::banner("Ablation 1: coarse operator construction");
  if (levels < 3) {
    // kGalerkin rediscretizes level L-2 and forms Galerkin products below
    // it, so with two levels both rows would build the same hierarchy.
    std::printf("skipped: %d GMG levels at m = %lld; the rows differ only "
                "from 3 levels (m = 12)\n",
                levels, (long long)m);
  } else {
    StokesSolverOptions so = base;
    so.gmg.coarse_type = CoarseOperatorType::kGalerkin;
    run("Galerkin coarse ops", so);
    so.gmg.coarse_type = CoarseOperatorType::kRediscretized;
    run("rediscretized coarse ops", so);
  }

  bench::banner("Ablation 2: Chebyshev smoothing strength");
  for (int s : {1, 2, 3}) {
    StokesSolverOptions so = base;
    so.gmg.smooth_pre = so.gmg.smooth_post = s;
    char label[64];
    std::snprintf(label, sizeof label, "V(%d,%d) Chebyshev/Jacobi", s, s);
    run(label, so);
  }

  bench::banner("Ablation 3: outer Krylov method");
  {
    StokesSolverOptions so = base;
    so.outer = OuterKrylov::kGcr;
    run("GCR (explicit residual)", so);
    so.outer = OuterKrylov::kFgmres;
    run("FGMRES", so);
  }

  bench::banner("Ablation 4: fieldsplit structure");
  {
    StokesSolverOptions so = base;
    so.block_pc.block_diagonal = false;
    run("lower-triangular (Eq. 17)", so);
    so.block_pc.block_diagonal = true;
    run("block-diagonal (coupling dropped)", so);
  }

  bench::banner("Ablation 5: full-space vs Schur complement reduction");
  {
    StokesSolverOptions so = base;
    so.krylov.rtol = 1e-5;
    StokesSolver solver(mesh, coeff, bc, so);
    StokesSolveResult res = solver.solve(f);
    std::printf("%-34s outer its=%4d  solve=%6.2fs\n", "full space (GCR)",
                res.stats.iterations, res.solve_seconds);

    Timer t;
    Vector u, p;
    ScrOptions scr;
    scr.outer.rtol = 1e-5;
    ScrStats st = solver.solve_scr(f, u, p, scr);
    std::printf("%-34s outer its=%4d  inner solves=%ld (total %ld Krylov "
                "its)  solve=%6.2fs\n",
                "SCR (accurate inner solves)", st.outer.iterations,
                st.inner_solves, st.inner_iterations, t.seconds());
    std::printf("SCR avoids the non-normality of the triangular PC at the "
                "cost of an accurate J_uu solve per outer iteration (§IV-A).\n");

    // Uzawa: the stationary member of the SCR family (§III-B).
    StokesSolver solver2(mesh, coeff, bc, so);
    Vector rhs = solver2.op().build_rhs(f);
    PressureMassSchur schur(mesh, coeff);
    Vector xu;
    UzawaOptions uo;
    uo.rtol = 1e-5;
    Timer tu;
    UzawaStats ust = uzawa_solve(solver2.op(), solver2.velocity_pc(), schur,
                                 rhs, xu, uo);
    std::printf("%-34s outer its=%4d  inner Krylov its=%ld  solve=%6.2fs\n",
                "Uzawa (stationary SCR)", ust.iterations,
                ust.inner_iterations, tu.seconds());
  }

  bench::banner("Ablation 6: Gauss-Lobatto collocation (§III-D remark)");
  {
    TensorViscousOperator gauss(mesh, coeff, &bc);
    TensorGLViscousOperator gl(mesh, coeff, &bc);
    Vector x(gauss.rows());
    Rng rng(5);
    for (Index i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1, 1);
    Vector yg, yl, d;

    gauss.apply(x, yg);
    gl.apply(x, yl);
    d.copy_from(yl);
    d.axpy(-1.0, yg);

    const int reps = 10;
    Timer tg;
    for (int r = 0; r < reps; ++r) gauss.apply(x, yg);
    const double sg = tg.seconds() / reps;
    Timer tl;
    for (int r = 0; r < reps; ++r) gl.apply(x, yl);
    const double sl = tl.seconds() / reps;

    std::printf("Gauss 3^3 quadrature (Tens)      %7.2f ms/apply  (%5.0f "
                "flops/el)\n",
                sg * 1e3, gauss.cost_model().flops_per_element);
    std::printf("Gauss-Lobatto collocation        %7.2f ms/apply  (%5.0f "
                "flops/el)\n",
                sl * 1e3, gl.cost_model().flops_per_element);
    std::printf("operator deviation ||A_GL x - A x|| / ||A x|| = %.2f\n",
                d.norm2() / yg.norm2());
    std::printf("GL is %.1fx cheaper but not sufficiently accurate for "
                "deformed meshes with variable coefficients (§III-D).\n",
                sg / sl);
  }
  return 0;
}
