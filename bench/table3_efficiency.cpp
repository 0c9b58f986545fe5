// Table III reproduction: efficiency in elements/core/second and GF/s for
// the two instrumented events of the paper:
//   "MG res"       — the finest-level residual evaluation (the SpMV kernel)
//   "Stokes solve" — the complete solve (Krylov + MG preconditioner)
//
// E/C/s = elements / cores / seconds combines algorithmic scalability and
// implementation efficiency (§IV-B). C is the OpenMP team the bench runs
// on (num_threads(), printed in the banner), so E/C/s is per core.
//
// Usage: table3_efficiency [-grids 8,12,16] [-contrast 1e4]
#include <sstream>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"

using namespace ptatin;

namespace {
std::vector<Index> parse_grids(const std::string& s) {
  std::vector<Index> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoll(tok));
  return out;
}
} // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_options(
      argc, argv, "table3_efficiency",
      {{"grids", "N,N,...", "mesh resolutions (default 8,12)"},
       {"contrast", "X", "viscosity contrast (default 1e3)"},
       {"res_reps", "N", "timed MG fine residuals (default 30)"}});
  const auto grids = parse_grids(opts.get_string("grids", "8,12"));
  const Real contrast = opts.get_real("contrast", 1e3);
  const int res_reps = opts.get_int("res_reps", 30);

  const int cores = num_threads();
  bench::banner("Table III: elements/core/second and GF/s for the MG fine "
                "residual and the full Stokes solve (C = " +
                std::to_string(cores) + " cores)");

  bench::Table tab({"SpMV", "Grid", "MGres(ms)", "MGres E/C/s", "MGres GF/s",
                    "Solve(s)", "Solve E/C/s", "Solve GF/s"});
  tab.print_header();

  for (Index m : grids) {
    SinkerParams sp;
    sp.mx = sp.my = sp.mz = m;
    sp.contrast = contrast;
    StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
    DirichletBc bc = sinker_boundary_conditions(mesh);
    QuadCoefficients coeff = sinker_coefficients(mesh, sp);
    Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
    const double nel = double(mesh.num_elements());

    const int levels = suggest_gmg_levels(m);

    struct Config {
      FineOperatorType backend;
      int batch_width;
    };
    const std::vector<Config> configs = {
        {FineOperatorType::kAssembled, 0},
        {FineOperatorType::kMatrixFree, 0},
        {FineOperatorType::kTensor, 0},
        // Cross-element SIMD-batched tensor back-end (docs/KERNELS.md):
        // bitwise-identical applies, so iteration counts match Tens exactly
        // and any E/C/s difference is pure kernel throughput.
        {FineOperatorType::kTensor, kSolverBatchWidth},
    };
    for (const Config& cfg : configs) {
      StokesSolverOptions so;
      so.kernel.type = cfg.backend;
      so.kernel.batch_width = cfg.batch_width;
      so.gmg.levels = levels;
      so.coarse_solve = GmgCoarseSolve::kAmg;
      so.amg.coarse_size = 400;
      so.krylov.rtol = 1e-5;
      so.krylov.max_it = 500;
      StokesSolver solver(mesh, coeff, bc, so);

      // --- "MG res": fine-level operator application --------------------------
      const auto* gmg = solver.gmg();
      const ViscousOperatorBase& fine_op = gmg->fine_operator();
      Vector x(fine_op.rows(), 1.0), y;
      bc.zero_constrained(x);
      fine_op.apply(x, y); // warm-up
      Timer t;
      for (int r = 0; r < res_reps; ++r) fine_op.apply(x, y);
      const double res_sec = t.seconds() / res_reps;
      const double res_gf =
          fine_op.cost_model().flops_per_element * nel / res_sec * 1e-9;

      // --- full Stokes solve ----------------------------------------------------
      StokesSolveResult res = solver.solve(f);
      // Solve "useful flops" estimate: fine applies dominate; count
      // 1 operator apply per Krylov iteration + V(2,2) smoothing (~5 fine
      // applies per PC application) — the same accounting the paper's GF/s
      // uses (flops executed / time).
      const double fine_applies_per_it = 1.0 + 5.0;
      const double solve_flops = fine_op.cost_model().flops_per_element * nel *
                                 fine_applies_per_it * res.stats.iterations;

      char grid[32];
      std::snprintf(grid, sizeof grid, "%lld^3", (long long)m);
      tab.cell(fine_op.name());
      tab.cell(grid);
      tab.cell(res_sec * 1e3, "%.2f");
      tab.cell(nel / cores / res_sec, "%.3g");
      tab.cell(res_gf, "%.2f");
      tab.cell(res.solve_seconds, "%.2f");
      tab.cell(nel / cores / res.solve_seconds, "%.3g");
      tab.cell(solve_flops / res.solve_seconds * 1e-9, "%.2f");
      tab.endrow();
    }
  }

  std::printf("\npaper reference shape (Table III): MF uniformly faster than "
              "Asmb, Tens uniformly faster than MF in E/C/s; Tens does fewer "
              "flops so its end-to-end GF/s is lower than MF's while its "
              "E/C/s is higher.\n");
  return 0;
}
