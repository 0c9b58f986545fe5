// Table II reproduction: algorithmic scalability — iterations, coarse-solve
// setup/apply time, and full Stokes solve time for the Asmb / MF / Tens
// back-ends as the mesh is refined.
//
// Substitution note (DESIGN.md): the paper scales 64^3..192^3 over
// 192..12288 MPI cores; this host is a single core, so the "Cores" column of
// the paper becomes a mesh-refinement sweep at fixed (1) core and the
// validated shape is (a) iteration counts grow only mildly with resolution
// (fixed 3-level hierarchy -> growing coarse problem, §IV-B) and
// (b) time-to-solution ordering Tens < MF < Asmb.
//
// A second mode sweeps subdomain decompositions (docs/PARALLELISM.md)
// instead of back-ends: -decomp 1x1x1,2x2x1,2x2x2 runs, per grid and shape,
// timed raw fine-level operator applies plus a full solve, and reports the
// halo traffic, iteration counts, and final residuals per px x py x pz.
//
// The decomp sweep also takes the SDC hardening knobs (-scrub_every N,
// -sentinel_every N; docs/ROBUSTNESS.md): the sweep seals the quiescent
// apply input and verifies the seal every N applies inside the timed apply
// loop, and the full solves run with sealed operator hierarchies and
// Krylov residual sentinels. The resulting SDC column makes the overhead of
// the detection layer visible next to the unhardened rows — the acceptance
// target is <5% apply-time overhead at the default cadences.
//
// A third mode (-micro) isolates the coarse-grid pipeline kernels
// themselves: from-scratch Galerkin ptap vs the cached numeric-only refresh
// (la/galerkin.hpp), and the serial mult_transpose restriction vs the cached
// explicit-transpose row-parallel mult. The CI perf smoke asserts on the
// resulting ratios (refresh >= 2x faster; parallel restriction no slower).
//
// Usage: table2_scaling [-grids 8,12,16] [-contrast 1e4] [-rtol 1e-5]
//        table2_scaling -grids 16 -decomp 1x1x1,2x2x1,2x2x2 [-applies 40]
//                       [-scrub_every N] [-sentinel_every N]
//        table2_scaling -micro [-m 16] [-repeats 5] [-applies 200]
#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/sealed.hpp"
#include "common/timing.hpp"
#include "fem/subdomain_engine.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"
#include "ptatin/config.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"

using namespace ptatin;

namespace {

/// The -decomp sweep: per shape, timed raw Tensor-backend applies on the
/// fine level (the quantity the engine parallelizes), scalar and at the
/// solver's batch width, and a full GMG solve.
int run_decomp_sweep(const Options& opts, const std::vector<Index>& grids,
                     Real contrast, Real rtol) {
  const auto shapes = parse_decomp_shapes(opts.get_string("decomp", ""));
  const int n_applies = opts.get_int("applies", 40);
  // -solve false: raw-apply timing only (the CI perf smoke skips the full
  // solves; the iteration-identity smoke keeps them).
  const bool do_solve = opts.get_bool("solve", true);
  // SDC hardening cadences (0 = off): scrub_every is counted in timed
  // applies (a CRC verify of the sealed input) and turns on operator
  // sealing in the solve; sentinel_every flows into the solve's Krylov
  // settings.
  const int scrub_every = opts.get_int("scrub_every", 0);
  const int sentinel_every = opts.get_int("sentinel_every", 0);
  char sdc_label[32];
  if (scrub_every > 0 || sentinel_every > 0)
    std::snprintf(sdc_label, sizeof sdc_label, "s%d/k%d", scrub_every,
                  sentinel_every);
  else
    std::snprintf(sdc_label, sizeof sdc_label, "off");

  bench::banner("Table II (decomposition sweep): fine-level apply and solve "
                "vs subdomain shape");
  std::printf("threads: %d, raw applies timed per shape: %d, sdc: %s\n\n",
              num_threads(), n_applies, sdc_label);

  bench::Table tab({"Grid", "Decomp", "SDC", "Apply(s)", "Batched(s)",
                    "HaloMB", "Its", "FinalRes", "Solve(s)"});
  tab.print_header();

  obs::JsonValue rows = obs::JsonValue::array();
  for (Index m : grids) {
    SinkerParams sp;
    sp.mx = sp.my = sp.mz = m;
    sp.contrast = contrast;
    StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
    DirichletBc bc = sinker_boundary_conditions(mesh);
    QuadCoefficients coeff = sinker_coefficients(mesh, sp);
    Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
    const int levels = suggest_gmg_levels(m);

    for (const auto& shape : shapes) {
      SolverConfig cfg;
      cfg.decomp(shape[0], shape[1], shape[2]);
      cfg.stokes().gmg.levels = levels;
      cfg.stokes().krylov.rtol = rtol;
      cfg.stokes().krylov.max_it = 500;
      cfg.stokes().krylov.sentinel_every = sentinel_every;
      cfg.stokes().gmg.seal_operators = scrub_every > 0;
      cfg.stokes().amg.seal_operators = scrub_every > 0;
      // Always drive the engine path — 1x1x1 is the single-subdomain
      // baseline (one sequential sweep, no halo), so the sweep isolates the
      // decomposition's thread scaling from the kernel itself.
      auto eng = std::make_unique<SubdomainEngine>(mesh, shape[0], shape[1],
                                                   shape[2]);

      // The scalar engine sweep and the batched one the solver runs
      // (kSolverBatchWidth lanes); both results are bitwise equal.
      auto op = make_viscous_backend(
          KernelSpec{.type = FineOperatorType::kTensor, .engine = eng.get()}, mesh,
          coeff, &bc);
      auto op_batched = make_viscous_backend(
          KernelSpec{.type = FineOperatorType::kTensor,
                     .batch_width = kSolverBatchWidth, .engine = eng.get()},
          mesh, coeff, &bc);
      Vector x(op->rows()), y(op->rows());
      for (Index i = 0; i < x.size(); ++i)
        x[i] = std::sin(Real(0.37) * Real(i));
      op->apply(x, y); // warm-up (builds scratch slabs)
      op_batched->apply(x, y);

      // With -scrub_every N, seal the quiescent apply input and verify the
      // seal every N applies *inside* the timed loop, so the CRC pass of
      // the detection layer shows up in the apply column.
      const std::vector<sdc::Region> sealed_input{
          {"x", x.data(), x.size() * sizeof(Real)}};
      sdc::Seal bench_seal;
      if (scrub_every > 0) bench_seal.arm(sealed_input);
      auto time_applies = [&](const ViscousOperatorBase& o) {
        Timer t_apply;
        for (int it = 0; it < n_applies; ++it) {
          o.apply(x, y);
          if (scrub_every > 0 && (it + 1) % scrub_every == 0 &&
              !bench_seal.verify(sealed_input).empty())
            std::printf("    WARNING: seal mismatch during apply sweep\n");
        }
        return t_apply.seconds();
      };
      // The batched sweep runs first so the halo counters, reset below,
      // cover the scalar applies and the solve exactly as before.
      const double apply_seconds_batched = time_applies(*op_batched);
      eng->reset_stats();
      const double apply_seconds = time_applies(*op);

      StokesSolveResult res;
      if (do_solve) {
        auto solver = cfg.make_stokes_solver(mesh, coeff, bc, eng.get());
        res = solver->solve(f);
      }
      const DecompStats st = eng->stats();

      char grid[32], dec[32];
      std::snprintf(grid, sizeof grid, "%lld^3", (long long)m);
      std::snprintf(dec, sizeof dec, "%lldx%lldx%lld", (long long)shape[0],
                    (long long)shape[1], (long long)shape[2]);
      tab.cell(grid);
      tab.cell(dec);
      tab.cell(sdc_label);
      tab.cell(apply_seconds, "%.3f");
      tab.cell(apply_seconds_batched, "%.3f");
      tab.cell(double(st.halo_bytes_sent) / (1024.0 * 1024.0), "%.1f");
      tab.cell(long(res.stats.iterations));
      tab.cell(res.stats.final_residual, "%.3e");
      tab.cell(res.solve_seconds, "%.2f");
      tab.endrow();
      if (do_solve && !res.stats.converged)
        std::printf("    WARNING: not converged (reached max_it)\n");

      obs::JsonValue row = obs::JsonValue::object();
      row["m"] = obs::JsonValue((long long)m);
      row["px"] = obs::JsonValue((long long)shape[0]);
      row["py"] = obs::JsonValue((long long)shape[1]);
      row["pz"] = obs::JsonValue((long long)shape[2]);
      row["threads"] = obs::JsonValue(num_threads());
      row["applies"] = obs::JsonValue(n_applies);
      row["apply_seconds"] = obs::JsonValue(apply_seconds);
      row["apply_seconds_batched"] = obs::JsonValue(apply_seconds_batched);
      row["batch_width"] = obs::JsonValue(kSolverBatchWidth);
      row["halo_bytes_sent"] = obs::JsonValue(st.halo_bytes_sent);
      row["halo_bytes_received"] = obs::JsonValue(st.halo_bytes_received);
      row["exchange_seconds"] = obs::JsonValue(st.exchange_seconds);
      row["interior_elements"] = obs::JsonValue((long long)st.interior_elements);
      row["boundary_elements"] = obs::JsonValue((long long)st.boundary_elements);
      row["levels"] = obs::JsonValue(levels);
      row["scrub_every"] = obs::JsonValue(scrub_every);
      row["sentinel_every"] = obs::JsonValue(sentinel_every);
      row["solved"] = obs::JsonValue(do_solve);
      row["iterations"] = obs::JsonValue(res.stats.iterations);
      row["converged"] = obs::JsonValue(res.stats.converged);
      row["final_residual"] = obs::JsonValue(res.stats.final_residual);
      row["solve_seconds"] = obs::JsonValue(res.solve_seconds);
      rows.push_back(std::move(row));
    }
  }

  std::printf("\nexpected shape: identical iteration counts per grid across "
              "decompositions; multi-subdomain apply time drops with "
              "available threads.\n");

  obs::JsonValue run = obs::JsonValue::object();
  run["grids"] = obs::JsonValue(opts.get_string("grids", "8,12"));
  run["decomp"] = obs::JsonValue(opts.get_string("decomp", ""));
  run["scrub_every"] = obs::JsonValue(scrub_every);
  run["sentinel_every"] = obs::JsonValue(sentinel_every);
  run["contrast"] = obs::JsonValue(contrast);
  run["rtol"] = obs::JsonValue(rtol);
  run["rows"] = std::move(rows);
  const std::string json_path = opts.get_string("json", "BENCH_table2.json");
  if (obs::append_bench_run(json_path, "table2_scaling_decomp",
                            std::move(run)))
    std::printf("run appended to %s\n", json_path.c_str());
  return 0;
}

/// The -micro mode: kernel-level timings for the coarse-grid pipeline.
/// Everything here is bitwise-identity-checked in tests/test_coarse.cpp; the
/// bench only measures, and the CI perf smoke asserts on the ratios.
int run_coarse_micro(const Options& opts) {
  const Index m = opts.get_int("m", 16);
  const int repeats = opts.get_int("repeats", 5);
  const int n_applies = opts.get_int("applies", 200);

  bench::banner("Coarse-grid pipeline micro-benchmarks: cached RAP refresh "
                "and parallel restriction");
  std::printf("threads: %d, grid: %lld^3, RAP repeats: %d, restriction "
              "applies: %d\n\n",
              num_threads(), (long long)m, repeats, n_applies);

  SinkerParams sp;
  sp.mx = sp.my = sp.mz = m;
  StructuredMesh fine = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  PT_ASSERT_MSG(fine.can_coarsen(), "-m must be even and >= 6");
  StructuredMesh coarse = fine.coarsen();
  DirichletBc bc = sinker_boundary_conditions(fine);
  QuadCoefficients coeff = sinker_coefficients(fine, sp);
  CsrMatrix a = assemble_viscous_matrix(fine, coeff);
  CsrMatrix p = build_velocity_prolongation(fine, coarse, &bc);

  // --- cached RAP refresh vs from-scratch ptap -----------------------------
  Timer t_scratch;
  CsrMatrix c_ref;
  for (int r = 0; r < repeats; ++r) c_ref = CsrMatrix::ptap(a, p);
  const double rap_scratch_seconds = t_scratch.seconds() / repeats;

  GalerkinProduct gp;
  CsrMatrix c = gp.product(a, p); // symbolic + numeric setup (not timed)
  double refresh_total = 0.0;
  for (int r = 0; r < repeats; ++r) {
    // Perturb the values as a re-assembly would (same sparsity, same zero
    // set) so each product call exercises the numeric-only path. The
    // perturbation pass is NOT timed — a real rebuild re-assembles into the
    // existing pattern and only the product is on the RAP clock.
    for (Index k = 0; k < a.nnz(); ++k)
      a.values()[k] *= Real(1) + Real(1e-12);
    Timer t_refresh;
    c = gp.product(a, p);
    refresh_total += t_refresh.seconds();
  }
  const double rap_refresh_seconds = refresh_total / repeats;
  PT_ASSERT_MSG(gp.last_was_refresh(), "refresh path did not engage");

  // --- restriction: serial mult_transpose vs cached-transpose mult ---------
  CsrMatrix restriction = p.transpose();
  Vector rf(p.rows()), rc(p.cols());
  for (Index i = 0; i < rf.size(); ++i) rf[i] = std::sin(Real(0.37) * Real(i));
  p.mult_transpose(rf, rc); // warm-up
  Timer t_serial;
  for (int it = 0; it < n_applies; ++it) p.mult_transpose(rf, rc);
  const double restriction_serial_seconds = t_serial.seconds() / n_applies;
  restriction.mult(rf, rc); // warm-up
  Timer t_parallel;
  for (int it = 0; it < n_applies; ++it) restriction.mult(rf, rc);
  const double restriction_parallel_seconds = t_parallel.seconds() / n_applies;

  bench::Table tab({"Kernel", "Baseline(s)", "Optimized(s)", "Speedup"});
  tab.print_header();
  tab.cell("RAP (scratch vs refresh)");
  tab.cell(rap_scratch_seconds, "%.4f");
  tab.cell(rap_refresh_seconds, "%.4f");
  tab.cell(rap_scratch_seconds / std::max(rap_refresh_seconds, 1e-12), "%.2f");
  tab.endrow();
  tab.cell("Restriction (serial vs parallel)");
  tab.cell(restriction_serial_seconds, "%.5f");
  tab.cell(restriction_parallel_seconds, "%.5f");
  tab.cell(restriction_serial_seconds /
               std::max(restriction_parallel_seconds, 1e-12),
           "%.2f");
  tab.endrow();

  obs::JsonValue run = obs::JsonValue::object();
  run["m"] = obs::JsonValue((long long)m);
  run["threads"] = obs::JsonValue(num_threads());
  run["repeats"] = obs::JsonValue(repeats);
  run["applies"] = obs::JsonValue(n_applies);
  run["rap_scratch_seconds"] = obs::JsonValue(rap_scratch_seconds);
  run["rap_refresh_seconds"] = obs::JsonValue(rap_refresh_seconds);
  run["restriction_serial_seconds"] =
      obs::JsonValue(restriction_serial_seconds);
  run["restriction_parallel_seconds"] =
      obs::JsonValue(restriction_parallel_seconds);
  const std::string json_path = opts.get_string("json", "BENCH_table2.json");
  if (obs::append_bench_run(json_path, "table2_coarse_micro", std::move(run)))
    std::printf("\nrun appended to %s\n", json_path.c_str());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Options opts = bench::parse_options(
      argc, argv, "table2_scaling",
      {{"grids", "N,N,...", "mesh resolutions (default 8,12)"},
       {"contrast", "X", "viscosity contrast (default 1e3)"},
       {"rtol", "X", "outer Krylov relative tolerance (default 1e-5)"},
       {"json", "FILE", "trajectory file (default BENCH_table2.json)"},
       {"decomp", "SHAPES", "sweep decompositions instead of back-ends\n"
                            "(\"1x1x1,2x2x1,2x2x2\")"},
       {"applies", "N", "timed applies per row (default 40; -micro 200)"},
       {"solve", "true|false", "-decomp: also run a full solve per shape"},
       {"scrub_every", "N", "-decomp: scrub cadence in applies (0 = off)"},
       {"sentinel_every", "N", "-decomp: Krylov sentinel cadence (0 = off)"},
       {"micro", "", "coarse-grid pipeline microbench instead"},
       {"m", "N", "-micro: mesh resolution (default 16)"},
       {"repeats", "N", "-micro: timed repeats (default 5)"}});
  const std::vector<Index> grids =
      opts.has("grids") ? opts.get_index_list("grids")
                        : std::vector<Index>{8, 12};
  const Real contrast = opts.get_real("contrast", 1e3);
  const Real rtol = opts.get_real("rtol", 1e-5);

  if (opts.has("micro")) return run_coarse_micro(opts);
  if (opts.has("decomp")) return run_decomp_sweep(opts, grids, contrast, rtol);

  bench::banner("Table II: iterations and timing vs resolution "
                "(sinker, 3-level GMG, SA-AMG coarse solve)");

  bench::Table tab({"Grid", "Backend", "Its", "CrsSetup(s)", "CrsApply(s)",
                    "FineApply(s)", "Xfer(s)", "Solve(s)"});
  tab.print_header();

  obs::JsonValue rows = obs::JsonValue::array();
  for (Index m : grids) {
    SinkerParams sp;
    sp.mx = sp.my = sp.mz = m;
    sp.contrast = contrast;
    StructuredMesh mesh = StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
    DirichletBc bc = sinker_boundary_conditions(mesh);
    QuadCoefficients coeff = sinker_coefficients(mesh, sp);
    Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});

    // Levels: keep 3 where the mesh allows, matching the paper's fixed-depth
    // hierarchy (the coarse problem then grows with resolution).
    const int levels = suggest_gmg_levels(m);

    for (auto backend : {FineOperatorType::kAssembled,
                         FineOperatorType::kMatrixFree,
                         FineOperatorType::kTensor}) {
      StokesSolverOptions so;
      so.kernel.type = backend;
      so.gmg.levels = levels;
      so.coarse_solve = GmgCoarseSolve::kAmg;
      so.amg.coarse_size = 400;
      so.krylov.rtol = rtol;
      so.krylov.max_it = 500;

      auto& reg = PerfRegistry::instance();
      reg.reset_all();
      StokesSolver solver(mesh, coeff, bc, so);
      StokesSolveResult res = solver.solve(f);

      // Coarse/fine time split (docs/OBSERVABILITY.md): fine apply is the
      // smoother time on the finest level, transfer sums every restriction /
      // prolongation event, and the RAP buckets split the Galerkin setup by
      // path (full symbolic+numeric vs cached numeric-only refresh).
      double transfer_seconds = 0.0;
      for (const auto& [name, ev] : reg.events())
        if (name.rfind("MGTransfer(", 0) == 0)
          transfer_seconds += ev.seconds();
      char fine_tag[32];
      std::snprintf(fine_tag, sizeof fine_tag, "MGSmooth(L%d)", levels - 1);
      const double fine_apply_seconds = reg.event(fine_tag).seconds();
      const double rap_refresh_seconds =
          solver.gmg() != nullptr ? solver.gmg()->rap_refresh_seconds() : 0.0;
      const double rap_setup_seconds =
          solver.gmg() != nullptr ? solver.gmg()->rap_setup_seconds() : 0.0;

      char grid[32];
      std::snprintf(grid, sizeof grid, "%lld^3", (long long)m);
      tab.cell(grid);
      tab.cell(fine_operator_display(backend));
      tab.cell(long(res.stats.iterations));
      tab.cell(solver.coarse_setup_seconds(), "%.2f");
      tab.cell(reg.event("MGCoarseSolve").seconds(), "%.2f");
      tab.cell(fine_apply_seconds, "%.2f");
      tab.cell(transfer_seconds, "%.2f");
      tab.cell(res.solve_seconds, "%.2f");
      tab.endrow();
      if (!res.stats.converged)
        std::printf("    WARNING: not converged (reached max_it)\n");

      obs::JsonValue row = obs::JsonValue::object();
      row["m"] = obs::JsonValue((long long)m);
      row["backend"] = obs::JsonValue(fine_operator_display(backend));
      row["levels"] = obs::JsonValue(levels);
      row["iterations"] = obs::JsonValue(res.stats.iterations);
      row["converged"] = obs::JsonValue(res.stats.converged);
      row["coarse_setup_seconds"] =
          obs::JsonValue(solver.coarse_setup_seconds());
      row["coarse_apply_seconds"] =
          obs::JsonValue(reg.event("MGCoarseSolve").seconds());
      row["fine_apply_seconds"] = obs::JsonValue(fine_apply_seconds);
      row["transfer_seconds"] = obs::JsonValue(transfer_seconds);
      row["rap_refresh_seconds"] = obs::JsonValue(rap_refresh_seconds);
      row["rap_setup_seconds"] = obs::JsonValue(rap_setup_seconds);
      row["solve_seconds"] = obs::JsonValue(res.solve_seconds);
      rows.push_back(std::move(row));
    }
  }

  std::printf("\npaper reference shape (Table II): iterations increase "
              "mildly with resolution; Tens end-to-end ~2.7x faster than "
              "Asmb and ~1.8x faster than MF.\n");

  obs::JsonValue run = obs::JsonValue::object();
  run["grids"] = obs::JsonValue(opts.get_string("grids", "8,12"));
  run["contrast"] = obs::JsonValue(contrast);
  run["rtol"] = obs::JsonValue(rtol);
  run["rows"] = std::move(rows);
  const std::string json_path =
      opts.get_string("json", "BENCH_table2.json");
  if (obs::append_bench_run(json_path, "table2_scaling", std::move(run)))
    std::printf("run appended to %s\n", json_path.c_str());
  return 0;
}
