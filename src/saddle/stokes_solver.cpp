#include "saddle/stokes_solver.hpp"

#include "amg/rbm.hpp"
#include "common/log.hpp"
#include "common/timing.hpp"
#include "fem/subdomain_engine.hpp"
#include "ksp/cg.hpp"
#include "ksp/gcr.hpp"
#include "ksp/gmres.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"

namespace ptatin {

StokesSolver::StokesSolver(const StructuredMesh& mesh,
                           const QuadCoefficients& coeff,
                           const DirichletBc& bc,
                           const StokesSolverOptions& opts)
    : opts_(opts) {
  Timer t;
  // Child spans: the viscous back-end, MatAssembly(B) in the coupled
  // operator, the Schur blocks, and the GMG (MGSetup*) or AMG setup.
  PerfScope span("PCSetup(Stokes)");

  {
    PerfScope child("ViscousOperatorSetup");
    a_ = make_viscous_backend(opts.kernel, mesh, coeff, &bc);
  }
  op_ = std::make_unique<StokesOperator>(mesh, *a_, bc, opts.newton_operator);
  {
    PerfScope child("SchurSetup");
    schur_ = std::make_unique<PressureMassSchur>(mesh, coeff);
  }

  if (opts.velocity_pc == VelocityPcType::kGmg) {
    // The preconditioner always smooths with the Picard operator (§III-A):
    // the hierarchy's finest level is the Krylov operator's J_uu, applied
    // there without the Newton term, so both share one fine operator (and
    // the Tens geometry cache that GMG's λmax estimate fills).
    BcFactory bc_factory = opts.bc_factory
                               ? opts.bc_factory
                               : BcFactory([](const StructuredMesh& m) {
                                   return sinker_boundary_conditions(m);
                                 });
    const AmgOptions amg_opts = opts.amg;
    const GmgCoarseSolve cs = opts.coarse_solve;
    const Index nblocks = opts.coarse_bjacobi_blocks;
    double* coarse_setup = &coarse_setup_seconds_;
    const SaAmg** coarse_amg = &coarse_amg_;

    CoarseSolverFactory coarse_factory =
        [amg_opts, cs, nblocks, coarse_setup, coarse_amg](
            const CsrMatrix& a, const StructuredMesh& coarsest,
            const DirichletBc& coarsest_bc) -> std::unique_ptr<Preconditioner> {
      Timer ct;
      std::unique_ptr<Preconditioner> pc;
      switch (cs) {
        case GmgCoarseSolve::kAmg: {
          // Rigid-body modes of the coarsest mesh, restricted to the
          // unconstrained dofs (nonzero near-nullspace entries at Dirichlet
          // rows pollute the aggregate bases near boundaries).
          std::vector<Vector> rbm = rigid_body_modes(coarsest);
          for (auto& mode : rbm) coarsest_bc.zero_constrained(mode);
          auto amg = std::make_unique<SaAmg>(a, rbm, amg_opts);
          *coarse_amg = amg.get();
          pc = std::move(amg);
          break;
        }
        case GmgCoarseSolve::kBJacobiLu:
          pc = std::make_unique<BlockJacobiPc>(a, nblocks,
                                               SubdomainSolve::kLu);
          break;
        case GmgCoarseSolve::kAsmCg: {
          // §V-A: CG preconditioned with ASM(ILU0, overlap 4), stopped at 25
          // iterations or 1e-4 reduction. Wrapped as a (nonlinear) PC shell.
          auto asm_pc = std::make_shared<BlockJacobiPc>(
              a, nblocks, SubdomainSolve::kIlu0, /*overlap=*/4);
          auto op = std::make_shared<MatrixOperator>(&a);
          pc = std::make_unique<ShellPc>(
              [asm_pc, op](const Vector& r, Vector& z) {
                z.resize(r.size());
                z.set_all(0.0);
                KrylovSettings s;
                s.rtol = 1e-4;
                s.max_it = 25;
                s.record_history = false;
                SolveStats st = cg_solve(*op, *asm_pc, r, z, s);
                // A fatal inner reason (pAp <= 0, NaN) must not vanish into
                // the preconditioner: count it so the outer layers and
                // telemetry can see *why* the enclosing solve degraded.
                if (is_fatal(st.reason)) {
                  obs::MetricsRegistry::instance()
                      .counter("safeguard.coarse_solve_failures")
                      .inc();
                  log_warn("coarse CG solve failed: ", st.reason_message());
                }
              });
          break;
        }
      }
      *coarse_setup += ct.seconds();
      return pc;
    };

    gmg_ = std::make_unique<GmgHierarchy>(*a_, opts.gmg, bc_factory,
                                          coarse_factory);
    vpc_ = gmg_.get();
  } else {
    // Standalone SA-AMG on the assembled fine matrix (SA-i / SAML configs).
    PerfScope child("AMGSetup");
    const AsmbViscousOperator* asmb =
        dynamic_cast<const AsmbViscousOperator*>(a_.get());
    std::unique_ptr<AsmbViscousOperator> owned;
    if (asmb == nullptr) {
      owned = std::make_unique<AsmbViscousOperator>(mesh, coeff, &bc);
      asmb = owned.get();
    }
    amg_ = std::make_unique<SaAmg>(asmb->matrix(), rigid_body_modes(mesh),
                                   opts.amg);
    vpc_ = amg_.get();
  }

  pc_ = std::make_unique<BlockTriangularPc>(*op_, *vpc_, *schur_,
                                            opts.block_pc);
  setup_seconds_ = t.seconds();
}

StokesSolveResult StokesSolver::solve(const Vector& f,
                                      const Vector* x0) const {
  Vector rhs = op_->build_rhs(f);
  return solve_stacked(rhs, x0);
}

StokesSolveResult StokesSolver::solve_stacked(const Vector& rhs,
                                              const Vector* x0) const {
  StokesSolveResult res;
  Vector x(op_->rows(), 0.0);
  if (x0 != nullptr) x.copy_from(*x0);

  KrylovSettings s = opts_.krylov;
  auto user_monitor = s.monitor;
  s.monitor = [&](int it, Real rnorm, const Vector* r) {
    if (r != nullptr) {
      Real un, pn;
      op_->split_norms(*r, un, pn);
      res.momentum_residuals.push_back(un);
      res.pressure_residuals.push_back(pn);
    }
    if (user_monitor) user_monitor(it, rnorm, r);
  };

  Timer t;
  {
    PerfScope span("StokesSolve");
    if (opts_.outer == OuterKrylov::kGcr) {
      res.stats = gcr_solve(*op_, *pc_, rhs, x, s);
    } else {
      res.stats = fgmres_solve(*op_, *pc_, rhs, x, s);
    }
  }
  res.solve_seconds = t.seconds();
  res.setup_seconds = setup_seconds_;

  // Post-solve check of every operator seal this solver's setup armed
  // (docs/ROBUSTNESS.md): GMG's, its coarse SA-AMG's, or a standalone
  // SA-AMG's. The hierarchies are solve-scoped — they die with this
  // StokesSolver — so a bit flipped in the sealed operator data must be
  // caught here, while the corrupted solve it poisoned can still be
  // discarded. The timestep tier classifies the diverged_sdc reason as SDC
  // and replays at the same dt; the rebuild re-assembles the operators from
  // intact inputs, which is the heal.
  {
    std::vector<std::string> bad;
    const auto check = [&bad](const std::vector<std::string>& names) {
      bad.insert(bad.end(), names.begin(), names.end());
    };
    if (gmg_ != nullptr) check(gmg_->verify_seal());
    if (coarse_amg_ != nullptr) check(coarse_amg_->verify_seal());
    if (amg_ != nullptr) check(amg_->verify_seal());
    if (!bad.empty()) {
      std::string names;
      for (const std::string& b : bad) {
        if (!names.empty()) names += ", ";
        names += b;
      }
      res.stats.converged = false;
      res.stats.reason = ConvergedReason::kDivergedSdc;
      res.stats.detail = "setup-immutable operator corrupted (" + names + ")";
    }
  }

  if (auto& report = obs::SolverReport::global(); report.enabled()) {
    obs::KrylovRecord rec;
    rec.label = "stokes_outer";
    rec.method = opts_.outer == OuterKrylov::kGcr ? "gcr" : "fgmres";
    rec.converged = res.stats.converged;
    rec.iterations = res.stats.iterations;
    rec.initial_residual = res.stats.initial_residual;
    rec.final_residual = res.stats.final_residual;
    rec.seconds = res.solve_seconds;
    rec.reason = res.stats.reason_message();
    rec.history = res.stats.history;
    report.add_krylov(std::move(rec));

    if (opts_.kernel.engine != nullptr) {
      // Cumulative engine stats (set_decomposition overwrites, so repeated
      // solves through one engine keep the section current).
      const DecompStats ds = opts_.kernel.engine->stats();
      obs::DecompRecord dr;
      dr.px = ds.px;
      dr.py = ds.py;
      dr.pz = ds.pz;
      dr.applies = ds.applies;
      dr.halo_bytes_sent = ds.halo_bytes_sent;
      dr.halo_bytes_received = ds.halo_bytes_received;
      dr.exchange_seconds = ds.exchange_seconds;
      dr.interior_seconds = ds.interior_seconds;
      dr.boundary_seconds = ds.boundary_seconds;
      dr.interior_elements = ds.interior_elements;
      dr.boundary_elements = ds.boundary_elements;
      report.set_decomposition(dr);
    }
  }

  op_->extract_u(x, res.u);
  op_->extract_p(x, res.p);
  return res;
}

ScrStats StokesSolver::solve_scr(const Vector& f, Vector& u, Vector& p,
                                 const ScrOptions& scr_opts) const {
  PT_ASSERT_MSG(!opts_.newton_operator,
                "SCR eliminates with the Picard J_uu: build the solver "
                "without newton_operator");
  Vector rhs = op_->build_rhs(f);
  Vector x;
  ScrStats st = scr_solve(*op_, *vpc_, *schur_, rhs, x, scr_opts);
  op_->extract_u(x, u);
  op_->extract_p(x, p);
  return st;
}

} // namespace ptatin
