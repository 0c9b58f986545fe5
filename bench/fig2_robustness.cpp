// Figure 2 reproduction: convergence of the momentum (||F_u||) and pressure
// (||F_p||) residual components vs Krylov iteration on the sinker problem,
// for increasing viscosity contrast.
//
// "As is typical with buoyancy-driven flows, the iteration starts with a
// large vertical momentum residual and the pressure residual must increase
// to the same order as the momentum residual before the momentum begins to
// converge. As the contrast grows, these components take longer to
// equilibrate, at which point relatively steady convergence is observed."
//
// Usage: fig2_robustness [-m 8] [-levels 2] [-contrasts 1,100,10000,1e6]
#include <cmath>
#include <sstream>

#include "bench_common.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"

using namespace ptatin;

namespace {

std::vector<Real> parse_list(const std::string& s) {
  std::vector<Real> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stod(tok));
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_options(
      argc, argv, "fig2_robustness",
      {{"m", "N", "sinker mesh resolution (default 8)"},
       {"levels", "N", "GMG levels (default 2)"},
       {"contrasts", "X,Y,...", "viscosity contrasts (default 1,100,10000)"},
       {"maxit", "N", "outer Krylov iteration cap (default 400)"}});
  const Index m = opts.get_index("m", 8);
  const int levels = opts.get_int("levels", 2);
  const auto contrasts =
      parse_list(opts.get_string("contrasts", "1,100,10000"));

  bench::banner("Figure 2: per-field residual convergence vs viscosity "
                "contrast (sinker, GCR + lower-triangular PC + GMG V(2,2))");
  std::printf("mesh %lld^3, %d MG levels, rtol 1e-5 (unpreconditioned)\n",
              (long long)m, levels);

  SinkerParams sp;
  sp.mx = sp.my = sp.mz = m;
  StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = sinker_boundary_conditions(mesh);

  for (Real contrast : contrasts) {
    sp.contrast = contrast;
    QuadCoefficients coeff = sinker_coefficients(mesh, sp);

    StokesSolverOptions so;
    so.gmg.levels = levels;
    so.coarse_solve = GmgCoarseSolve::kBJacobiLu;
    so.coarse_bjacobi_blocks = 1;
    so.krylov.rtol = 1e-5;
    so.krylov.max_it = opts.get_int("maxit", 400);
    StokesSolver solver(mesh, coeff, bc, so);
    Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
    StokesSolveResult res = solver.solve(f);

    std::printf("\n-- contrast = %.1e : %d iterations, converged=%d --\n",
                contrast, res.stats.iterations, int(res.stats.converged));
    std::printf("%6s %14s %14s\n", "it", "||F_u||", "||F_p||");
    // Print a decimated history (every k-th iteration) plus the final one.
    const std::size_t n = res.momentum_residuals.size();
    const std::size_t stride = n > 40 ? n / 40 : 1;
    for (std::size_t i = 0; i < n; i += stride)
      std::printf("%6zu %14.6e %14.6e\n", i, res.momentum_residuals[i],
                  res.pressure_residuals[i]);
    if (n > 0)
      std::printf("%6zu %14.6e %14.6e\n", n - 1, res.momentum_residuals[n - 1],
                  res.pressure_residuals[n - 1]);

    // The Fig-2 signature: iterations to equilibration (pressure residual
    // reaching the same order as momentum) grows with contrast.
    std::ptrdiff_t equil = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (res.pressure_residuals[i] > 0.3 * res.momentum_residuals[i]) {
        equil = static_cast<std::ptrdiff_t>(i);
        break;
      }
    }
    if (equil >= 0) {
      std::printf(
          "equilibration iteration (||F_p|| reaches 0.3||F_u||): %td\n",
          equil);
    } else {
      std::printf("equilibration NOT reached within %zu iterations (the "
                  "paper's slow-equilibration regime at high contrast)\n", n);
    }
  }
  return 0;
}
