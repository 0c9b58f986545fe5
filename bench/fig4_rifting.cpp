// Figure 4 reproduction: nonlinear and Krylov iteration counts per time step
// of the continental rifting model (§V).
//
// The paper's signature: the first few steps need many Newton iterations
// (topography out of equilibrium with the initial buoyancy structure), after
// which 1-3 Newton iterations per step suffice despite active yielding;
// the per-step Krylov totals stay bounded.
//
// Usage: fig4_rifting [-steps 8] [-mx 16 -my 8 -mz 8] [-dt 0.004]
#include "bench_common.hpp"
#include "ptatin/context.hpp"
#include "ptatin/models_rifting.hpp"

using namespace ptatin;

int main(int argc, char** argv) {
  const Options cli = bench::parse_options(
      argc, argv, "fig4_rifting",
      {{"steps", "N", "time steps (default 8)"},
       {"mx", "N", "elements in x (default 16)"},
       {"my", "N", "elements in y (default 8)"},
       {"mz", "N", "elements in z (default 8)"},
       {"topo", "X", "initial topography amplitude"},
       {"dt", "X", "first-step dt (default 0.004)"}});
  const int steps = cli.get_int("steps", 8);
  RiftingParams rp;
  rp.mx = cli.get_index("mx", 16);
  rp.my = cli.get_index("my", 8);
  rp.mz = cli.get_index("mz", 8);
  rp.initial_topography = cli.get_real("topo", rp.initial_topography);
  const Real dt0 = cli.get_real("dt", 0.004);

  bench::banner("Figure 4: Newton + Krylov iterations per rifting time step");
  std::printf("mesh %lldx%lldx%lld, %d steps, V(3,3), max 5 Newton its, "
              "||F|| reduction 1e-2 (paper's stopping rule)\n\n",
              (long long)rp.mx, (long long)rp.my, (long long)rp.mz, steps);

  ModelSetup setup = make_rifting_model(rp);
  PtatinOptions opts;
  opts.points_per_dim = 2;
  opts.ale.vertical_axis = 1;
  opts.nonlinear.max_it = 5;     // "maximum of five iterations"
  opts.nonlinear.rtol = 1e-2;    // "reduced by a factor of 1e-2"
  opts.nonlinear.picard_iterations = 1;
  opts.nonlinear.linear.gmg.levels = 2;
  opts.nonlinear.linear.gmg.smooth_pre = 3;  // V(3,3) (§V-A)
  opts.nonlinear.linear.gmg.smooth_post = 3;
  opts.nonlinear.linear.coarse_solve = GmgCoarseSolve::kAsmCg; // CG+ASM(ILU0)
  opts.nonlinear.linear.coarse_bjacobi_blocks = 4;
  opts.nonlinear.linear.krylov.max_it = 400;

  PtatinContext ctx(std::move(setup), opts);

  std::printf("%6s %12s %14s %16s %14s %12s\n", "step", "Newton",
              "TotalKrylov", "Krylov/Newton", "yielded pts", "t(s)");
  long total_newton = 0, total_krylov = 0;
  for (int s = 0; s < steps; ++s) {
    Real dt = std::min(dt0, ctx.suggest_dt(0.25));
    if (s == 0) dt = dt0; // first step: velocity is zero, CFL unbounded
    StepReport rep = ctx.step(dt);
    total_newton += rep.nonlinear.iterations;
    total_krylov += rep.nonlinear.total_krylov_iterations;
    std::printf("%6d %12d %14ld %16.1f %14lld %12.1f\n", s,
                rep.nonlinear.iterations,
                rep.nonlinear.total_krylov_iterations,
                rep.nonlinear.iterations > 0
                    ? double(rep.nonlinear.total_krylov_iterations) /
                          rep.nonlinear.iterations
                    : 0.0,
                (long long)rep.yielded_points, rep.seconds);
  }
  std::printf("\ntotals: %ld Newton, %ld Krylov; avg %.1f Krylov/step\n",
              total_newton, total_krylov, double(total_krylov) / steps);
  std::printf("paper reference shape (Fig. 4): early steps hit the Newton "
              "cap while the free surface equilibrates, then 1-3 Newton "
              "iterations per step despite active yielding.\n");
  return 0;
}
