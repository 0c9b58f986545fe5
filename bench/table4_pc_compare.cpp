// Table IV reproduction: matrix-free geometric multigrid vs assembled
// multilevel preconditioners for the same sinker Stokes problem.
//
// Configurations (paper §IV-C):
//   GMG-mf  : finest level matrix-free tensor-product, coarse rediscretized
//             then Galerkin (the production configuration)
//   GMG-i   : finest level assembled, coarse levels Galerkin
//   GMG-ii  : as GMG-i (Galerkin everywhere below the finest) — in our
//             hierarchy GMG-i already is Galerkin-below-finest, so GMG-ii is
//             realized as GMG-i with V(3,3) smoothing (the stronger variant)
//   SA-i    : smoothed aggregation AMG on the assembled fine operator,
//             GAMG-style (threshold 0.01, Chebyshev smoother, bJacobi/LU
//             coarsest)
//   SAML-i  : SA with ML-style settings (coarse_size 100)
//   SAML-ii : SA with the stronger smoother (FGMRES(2) + bJacobi-ILU(0)) and
//             inexact Krylov coarsest solve
//
// Reported per configuration: Krylov its, MatMult time, PC setup, PC apply,
// total solve time — the same rows as the paper's Table IV.
//
// Usage: table4_pc_compare [-m 12] [-contrast 1e4]
#include "bench_common.hpp"
#include "obs/perf.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"

using namespace ptatin;

namespace {

struct Config {
  std::string name;
  StokesSolverOptions opts;
};

} // namespace

int main(int argc, char** argv) {
  const Options cli = bench::parse_options(
      argc, argv, "table4_pc_compare",
      {{"m", "N", "sinker mesh resolution (default 12)"},
       {"contrast", "X", "viscosity contrast (default 1e3)"}});
  const Index m = cli.get_index("m", 12);
  const Real contrast = cli.get_real("contrast", 1e3);

  bench::banner("Table IV: preconditioner comparison (sinker Stokes)");
  std::printf("mesh %lld^3, contrast %.1e, rtol 1e-5\n\n", (long long)m,
              contrast);

  SinkerParams sp;
  sp.mx = sp.my = sp.mz = m;
  sp.contrast = contrast;
  StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = sinker_boundary_conditions(mesh);
  QuadCoefficients coeff = sinker_coefficients(mesh, sp);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

  const int levels = suggest_gmg_levels(m);

  std::vector<Config> configs;
  {
    Config c;
    c.name = "GMG-mf";
    c.opts.kernel.type = FineOperatorType::kTensor;
    c.opts.gmg.levels = levels;
    c.opts.coarse_solve = GmgCoarseSolve::kAmg;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "GMG-i";
    c.opts.kernel.type = FineOperatorType::kAssembled;
    c.opts.gmg.levels = levels;
    c.opts.coarse_solve = GmgCoarseSolve::kAmg;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "GMG-ii";
    c.opts.kernel.type = FineOperatorType::kAssembled;
    c.opts.gmg.levels = levels;
    c.opts.gmg.smooth_pre = 3;
    c.opts.gmg.smooth_post = 3;
    c.opts.coarse_solve = GmgCoarseSolve::kAmg;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "SA-i";
    c.opts.kernel.type = FineOperatorType::kAssembled;
    c.opts.velocity_pc = VelocityPcType::kSaAmg;
    c.opts.amg.strength_threshold = 0.01;
    c.opts.amg.coarse_size = 400;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "SAML-i";
    c.opts.kernel.type = FineOperatorType::kAssembled;
    c.opts.velocity_pc = VelocityPcType::kSaAmg;
    c.opts.amg.strength_threshold = 0.01;
    c.opts.amg.coarse_size = 100;
    configs.push_back(c);
  }
  {
    Config c;
    c.name = "SAML-ii";
    c.opts.kernel.type = FineOperatorType::kAssembled;
    c.opts.velocity_pc = VelocityPcType::kSaAmg;
    c.opts.amg.strength_threshold = 0.01;
    c.opts.amg.coarse_size = 100;
    c.opts.amg.smoother = AmgSmoother::kKrylovIlu;
    c.opts.amg.coarsest = AmgCoarsestSolve::kInexactKrylov;
    configs.push_back(c);
  }

  // One untimed GMG-mf solve, capped at one restart cycle like ptbench's
  // warm-up, so the first timed row does not pay the process's first-run
  // costs (EXPERIMENTS.md, Table IV note (c)).
  {
    StokesSolverOptions warm = configs.front().opts;
    warm.krylov.max_it = warm.krylov.restart;
    StokesSolver(mesh, coeff, bc, warm).solve(f);
  }

  bench::Table tab({"Config", "Its", "MatMult(s)", "PCsetup(s)", "PCapply(s)",
                    "Solve(s)", "vs GMG-mf"});
  tab.print_header();

  double gmg_mf_solve = 0.0;
  for (auto& c : configs) {
    c.opts.krylov.rtol = 1e-5;
    c.opts.krylov.max_it = 600;

    auto& reg = PerfRegistry::instance();
    reg.reset_all();
    StokesSolver solver(mesh, coeff, bc, c.opts);
    StokesSolveResult res = solver.solve(f);
    if (c.name == "GMG-mf") gmg_mf_solve = res.solve_seconds;

    tab.cell(c.name);
    tab.cell(long(res.stats.iterations));
    tab.cell(reg.event("MatMult(Stokes)").seconds(), "%.2f");
    tab.cell(solver.setup_seconds(), "%.2f");
    tab.cell(reg.event("PCApply(Stokes)").seconds(), "%.2f");
    tab.cell(res.solve_seconds, "%.2f");
    tab.cell(gmg_mf_solve > 0 ? res.solve_seconds / gmg_mf_solve : 1.0,
             "%.2fx");
    tab.endrow();
    if (!res.stats.converged)
      std::printf("    WARNING: %s did not converge\n", c.name.c_str());
    if (solver.gmg() != nullptr)
      std::printf("    (R^T A R Galerkin setup: %.2f s)\n",
                  solver.gmg()->galerkin_setup_seconds());
  }

  std::printf("\npaper reference shape (Table IV): GMG-ii lowest iterations "
              "(~23%% fewer than GMG-mf) but GMG-mf 1.7x faster end-to-end; "
              "GMG-i 3.3x-12.4x faster than the SA/SAML configurations.\n");
  return 0;
}
