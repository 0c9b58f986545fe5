#include "ptatin/config.hpp"

#include "common/error.hpp"
#include "saddle/stokes_solver.hpp"

namespace ptatin {

namespace {

// -backend parsing lives next to KernelSpec (parse_fine_operator) — the one
// place that spells the back-end tokens.

GmgCoarseSolve parse_coarse(const std::string& s) {
  if (s == "bjacobi") return GmgCoarseSolve::kBJacobiLu;
  if (s == "asmcg") return GmgCoarseSolve::kAsmCg;
  PT_ASSERT_MSG(s == "amg", "unknown -coarse (expected amg|bjacobi|asmcg)");
  return GmgCoarseSolve::kAmg;
}

} // namespace

std::vector<std::array<Index, 3>> parse_decomp_shapes(
    const std::string& spec) {
  Options o;
  o.set("decomp", spec);
  const std::vector<Index> flat = o.get_index_list("decomp");
  PT_ASSERT_MSG(!flat.empty() && flat.size() % 3 == 0,
                "-decomp expects {px,py,pz} triples (\"2x2x2\" or "
                "\"1x1x1,2x2x1\")");
  std::vector<std::array<Index, 3>> shapes;
  for (std::size_t i = 0; i < flat.size(); i += 3) {
    PT_ASSERT_MSG(flat[i] >= 1 && flat[i + 1] >= 1 && flat[i + 2] >= 1,
                  "-decomp factors must be >= 1");
    shapes.push_back({flat[i], flat[i + 1], flat[i + 2]});
  }
  return shapes;
}

void SolverConfig::describe_options() {
  Options::describe("backend", "asmb|mf|tens",
                    "J_uu operator back-end (asmb is Picard-only:\n"
                    "it needs -newton false)");
  Options::describe("decomp", "px,py,pz",
                    "subdomain decomposition shape (\"2x2x2\" or \"2,2,2\";\n"
                    "default 1,1,1 = global paths, docs/PARALLELISM.md)");
  Options::describe("levels", "N", "GMG levels (default auto)");
  Options::describe("coarse", "amg|bjacobi|asmcg", "coarse-grid solver");
  Options::describe("amg_coarse_size", "N",
                    "AMG coarsening stops at this many rows");
  Options::describe("newton", "true|false", "Newton linearization");
  Options::describe("nonlinear_rtol", "X", "per-step ||F|| reduction");
  Options::describe("max_newton", "N", "Newton iteration cap");
  Options::describe("krylov_rtol", "X", "outer Krylov relative tolerance");
  Options::describe("krylov_maxit", "N", "outer Krylov iteration cap");
  Options::describe("dtol", "X", "Krylov divergence tolerance");
  Options::describe("picard_fallback", "true|false",
                    "Newton failure => Picard restart");
  Options::describe("ppd", "N", "initial material points per direction");
  Options::describe("ale", "true|false", "ALE free-surface mesh update");
  Options::describe("safeguard", "true|false",
                    "rollback/retry failed steps (default true,\n"
                    "docs/ROBUSTNESS.md)");
  Options::describe("max_retries", "N", "dt-cut retries per step (default 3)");
  Options::describe("dt_cut_factor", "X",
                    "dt multiplier per retry (default 0.5)");
  Options::describe("dt_grow", "X", "dt cap growth per clean step");
  Options::describe("health_every", "N",
                    "health-check cadence in steps (0 = only before\n"
                    "checkpoints)");
  Options::describe("checkpoint_dir", "DIR",
                    "durable checkpoint rotation (atomic publish,\n"
                    "CRC-verified)");
  Options::describe("checkpoint_every", "N", "checkpoint cadence (0 = off)");
  Options::describe("checkpoint_keep", "K",
                    "checkpoints kept in DIR (default 3)");
  Options::describe("seal_state", "true|false",
                    "CRC-seal model state between steps and heal\n"
                    "detected corruption by same-dt replay (default\n"
                    "true, docs/ROBUSTNESS.md)");
  Options::describe("seal_operators", "true|false",
                    "CRC-seal the GMG/AMG operators after setup and\n"
                    "verify them after each Stokes solve (default\n"
                    "false, docs/ROBUSTNESS.md)");
  Options::describe("sentinel_every", "N",
                    "Krylov SDC sentinel: recompute the true residual\n"
                    "every N iterations and cross-check the recurrence\n"
                    "(0 = off)");
  Options::describe("sentinel_tol", "X",
                    "sentinel drift tolerance relative to ||r_0||\n"
                    "(default 1e-6)");
}

SolverConfig SolverConfig::from_options(const Options& o) {
  describe_options();
  SolverConfig cfg;
  PtatinOptions& po = cfg.ptatin_;

  po.points_per_dim = o.get_int("ppd", 3);
  po.update_mesh = o.get_bool("ale", true);
  po.nonlinear.max_it = o.get_int("max_newton", 5);
  po.nonlinear.rtol = o.get_real("nonlinear_rtol", 1e-2);
  po.nonlinear.use_newton = o.get_bool("newton", true);
  po.nonlinear.fallback_to_picard = o.get_bool("picard_fallback", true);

  StokesSolverOptions& so = po.nonlinear.linear;
  so.kernel.type = parse_fine_operator(o.get_string("backend", "tens"));
  const Index mres = o.get_index("mx", o.get_index("m", 8));
  so.gmg.levels = o.get_int("levels", suggest_gmg_levels(mres));
  so.coarse_solve = parse_coarse(o.get_string("coarse", "amg"));
  so.amg.coarse_size = o.get_index("amg_coarse_size", 400);
  so.krylov.rtol = o.get_real("krylov_rtol", 1e-5);
  so.krylov.max_it = o.get_int("krylov_maxit", 500);
  so.krylov.dtol = o.get_real("dtol", 1e5);
  so.krylov.sentinel_every = o.get_int("sentinel_every", 0);
  so.krylov.sentinel_tol = o.get_real("sentinel_tol", 1e-6);
  PT_ASSERT_MSG(so.krylov.sentinel_every >= 0,
                "-sentinel_every must be >= 0");
  PT_ASSERT_MSG(so.krylov.sentinel_tol > 0, "-sentinel_tol must be > 0");
  PT_ASSERT_MSG(po.points_per_dim >= 1, "-ppd must be >= 1");
  // The assembled back-end has no Newton term: refuse the pair here rather
  // than on the first step's operator build.
  if (po.nonlinear.use_newton && so.kernel.type == FineOperatorType::kAssembled)
    PT_THROW("-backend asmb is Picard-only: run it with -newton false");

  if (o.has("decomp")) {
    const auto shapes = parse_decomp_shapes(o.get_string("decomp", "1,1,1"));
    PT_ASSERT_MSG(shapes.size() == 1,
                  "-decomp expects a single px,py,pz shape here (sweeps are "
                  "a bench/table2_scaling feature)");
    po.decomp = shapes[0];
  }

  cfg.use_safeguard_ = o.get_bool("safeguard", true);
  SafeguardOptions& sg = cfg.safeguard_;
  sg.max_retries = o.get_int("max_retries", 3);
  sg.dt_cut_factor = o.get_real("dt_cut_factor", 0.5);
  sg.dt_grow_factor = o.get_real("dt_grow", 1.5);
  sg.health_every = o.get_int("health_every", 0);
  sg.health.population = po.population;
  sg.checkpoint_dir = o.get_string("checkpoint_dir", "");
  sg.checkpoint_every = o.get_int("checkpoint_every", 0);
  sg.checkpoint_keep = o.get_int("checkpoint_keep", 3);
  PT_ASSERT_MSG(sg.checkpoint_keep >= 1, "-checkpoint_keep must be >= 1");
  sg.seal_state = o.get_bool("seal_state", true);
  so.gmg.seal_operators = o.get_bool("seal_operators", false);
  so.amg.seal_operators = so.gmg.seal_operators;
  return cfg;
}

std::unique_ptr<StokesSolver> SolverConfig::make_stokes_solver(
    const StructuredMesh& mesh, const QuadCoefficients& coeff,
    const DirichletBc& bc, const SubdomainEngine* engine) const {
  StokesSolverOptions so = ptatin_.nonlinear.linear;
  so.kernel.engine = engine;
  return std::make_unique<StokesSolver>(mesh, coeff, bc, so);
}

std::unique_ptr<PtatinContext> SolverConfig::make_context(
    ModelSetup setup) const {
  return std::make_unique<PtatinContext>(std::move(setup), ptatin_);
}

std::unique_ptr<SafeguardedStepper> SolverConfig::make_stepper(
    PtatinContext& ctx) const {
  return std::make_unique<SafeguardedStepper>(ctx, *this);
}

} // namespace ptatin
