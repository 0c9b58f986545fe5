#include "mg/gmg.hpp"

#include <cstdio>

#include "common/faultinject.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"

namespace ptatin {

namespace {
/// Perf-event name for a per-level stage, e.g. "MGSmooth(L2)". Level 0 is
/// the coarsest; docs/OBSERVABILITY.md documents the numbering.
std::string level_tag(const char* stage, int level) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s(L%d)", stage, level);
  return buf;
}
} // namespace

GmgHierarchy::GmgHierarchy(const ViscousOperatorBase& fine_op,
                           const GmgOptions& opts, const BcFactory& bc_factory,
                           const CoarseSolverFactory& coarse_factory)
    : opts_(opts) {
  PT_ASSERT(opts.levels >= 1);
  const int L = opts.levels;
  levels_.resize(L);

  // Setup spans (docs/OBSERVABILITY.md): the grids, each coarse level's
  // operator, each smoother and the coarse solver.
  Level& finest = levels_[L - 1];
  finest.elem_op = &fine_op;
  finest.op = &fine_op;
  {
    PerfScope span("MGSetupGrids");
    // --- build meshes / coefficients / BCs top-down -------------------------
    // The finest level borrows the fine operator's; each coarse level owns
    // its own.
    finest.mesh = &fine_op.mesh();
    finest.coeff = &fine_op.coefficients();
    finest.bc = fine_op.bc();
    for (int l = L - 2; l >= 0; --l) {
      const Level& finer = levels_[l + 1];
      Level& lev = levels_[l];
      PT_ASSERT_MSG(finer.mesh->can_coarsen(),
                    "mesh not coarsenable to requested depth");
      lev.coarse_mesh = finer.mesh->coarsen();
      lev.coarse_coeff =
          restrict_coefficients(*finer.mesh, *finer.coeff, lev.coarse_mesh);
      lev.coarse_bc = bc_factory(lev.coarse_mesh);
      lev.mesh = &lev.coarse_mesh;
      lev.coeff = &lev.coarse_coeff;
      lev.bc = &lev.coarse_bc;
    }
    for (int l = 0; l < L; ++l)
      levels_[l].ndofs = num_velocity_dofs(*levels_[l].mesh);

    // --- prolongations ------------------------------------------------------
    for (int l = 0; l < L - 1; ++l)
      levels_[l].prolongation = build_velocity_prolongation(
          *levels_[l + 1].mesh, *levels_[l].mesh, levels_[l + 1].bc);
  }

  // --- coarse operators ------------------------------------------------------
  // Below a matrix-free finest level, the first coarse level runs the same
  // kernel at the same width on its restricted coefficients, on the global
  // colored path (the engine's halo plans match the finest grid only). It
  // keeps an assembled matrix only as the input of the Galerkin product
  // below it. The coarsest level always stays assembled for the coarse
  // solver, and an assembled finest level keeps its all-CSR Galerkin chain.
  const bool matrix_free_coarse =
      L >= 3 && fine_op.type() != FineOperatorType::kAssembled;

  GmgSetupCache* cache = opts.setup_cache;
  if (cache != nullptr && static_cast<int>(cache->rap.size()) < L - 1)
    cache->rap.resize(static_cast<std::size_t>(L - 1));

  for (int l = L - 2; l >= 0; --l) {
    PerfScope span(level_tag("MGSetupOperator", l));
    Level& lev = levels_[l];
    Level& finer = levels_[l + 1];
    if (l == L - 2 && matrix_free_coarse) {
      lev.coarse_elem_op = make_viscous_backend(
          KernelSpec{.type = fine_op.type(),
                     .batch_width = fine_op.batch_width()},
          *lev.mesh, *lev.coeff, lev.bc);
      lev.elem_op = lev.coarse_elem_op.get();
      lev.op = lev.elem_op;
      if (opts.coarse_type == CoarseOperatorType::kGalerkin) {
        lev.assembled = std::make_unique<CsrMatrix>(
            assemble_viscous_matrix(*lev.mesh, *lev.coeff));
        lev.bc->apply_to_matrix_symmetric(*lev.assembled);
      }
      continue;
    }
    // A Galerkin product needs an assembled finer matrix: either a coarse
    // assembled level, or an assembled finest level (GMG-i/ii of Table IV).
    const CsrMatrix* finer_mat = finer.assembled.get();
    if (finer_mat == nullptr && finer.elem_op != nullptr) {
      if (const auto* asmb =
              dynamic_cast<const AsmbViscousOperator*>(finer.elem_op))
        finer_mat = &asmb->matrix();
    }
    const bool use_galerkin =
        opts.coarse_type == CoarseOperatorType::kGalerkin &&
        finer_mat != nullptr;
    if (use_galerkin) {
      Timer t;
      bool refreshed = false;
      if (cache != nullptr) {
        // Cached symbolic phase: numeric-only replay when the cross-rebuild
        // cache recognizes the input patterns (bitwise identical to the
        // from-scratch ptap — see la/galerkin.hpp).
        GalerkinProduct& gp = cache->rap[static_cast<std::size_t>(l)];
        lev.assembled = std::make_unique<CsrMatrix>(
            gp.product(*finer_mat, lev.prolongation));
        refreshed = gp.last_was_refresh();
      } else {
        lev.assembled = std::make_unique<CsrMatrix>(
            CsrMatrix::ptap(*finer_mat, lev.prolongation));
      }
      lev.bc->apply_to_matrix_symmetric(*lev.assembled);
      const double dt = t.seconds();
      if (refreshed) {
        rap_refresh_seconds_ += dt;
        obs::MetricsRegistry::instance().counter("mg.rap.refreshes").inc();
      } else {
        rap_setup_seconds_ += dt;
        obs::MetricsRegistry::instance().counter("mg.rap.setups").inc();
      }
      // A matrix-free finer level needed its matrix for this product only.
      if (finer.elem_op != nullptr) finer.assembled.reset();
    } else {
      // Rediscretize: assemble from restricted coefficients.
      lev.assembled = std::make_unique<CsrMatrix>(
          assemble_viscous_matrix(*lev.mesh, *lev.coeff));
      lev.bc->apply_to_matrix_symmetric(*lev.assembled);
    }
    lev.mat_op = std::make_unique<MatrixOperator>(lev.assembled.get());
    lev.op = lev.mat_op.get();
  }

  // Explicit transposes so the per-cycle restriction runs row-parallel
  // (CsrMatrix::mult) instead of through the serial mult_transpose scatter.
  {
    PerfScope span("MGSetupGrids");
    for (int l = 0; l < L - 1; ++l)
      levels_[l].restriction = levels_[l].prolongation.transpose();
  }

  // --- smoothers (all levels except the coarsest, which gets the solver) ----
  for (int l = 1; l < L; ++l) {
    PerfScope span(level_tag("MGSetupSmoother", l));
    Level& lev = levels_[l];
    lev.smoother.setup(*lev.op, lev.op->diagonal());
  }
  // Cycle workspace (r/e on every level, rc/ec on the coarse targets) is
  // sized here once: the V-cycle itself never allocates.
  for (int l = 0; l < L; ++l) {
    Level& lev = levels_[l];
    lev.r.resize(lev.ndofs);
    lev.e.resize(lev.ndofs);
    lev.rc.resize(lev.ndofs);
    lev.ec.resize(lev.ndofs);
  }
  restrict_counter_ =
      &obs::MetricsRegistry::instance().counter("mg.transfer.restrictions");
  prolong_counter_ =
      &obs::MetricsRegistry::instance().counter("mg.transfer.prolongations");

  // --- coarse solver ---------------------------------------------------------
  if (L == 1) {
    // Degenerate single-level "hierarchy": smoother-only preconditioner.
    PerfScope span(level_tag("MGSetupSmoother", 0));
    levels_[0].smoother.setup(*levels_[0].op, levels_[0].op->diagonal());
  } else {
    PT_ASSERT_MSG(coarse_factory != nullptr, "coarse solver factory required");
    PerfScope span("MGSetupCoarse");
    coarse_solver_ = coarse_factory(*levels_[0].assembled, *levels_[0].mesh,
                                    *levels_[0].bc);
  }

  // --- SDC seal over the setup-immutable operator data -----------------------
  if (opts.seal_operators) {
    // The Tens levels' geometry caches, which the λmax estimates built; a
    // cache first built after arming stays outside the seal.
    for (Level& lev : levels_) {
      const auto* tens =
          dynamic_cast<const TensorViscousOperator*>(lev.elem_op);
      if (tens != nullptr && !tens->geometry_cache().empty())
        lev.sealed_cache = tens;
    }
    seal_.arm(seal_regions());
    // Deterministic SDC injection: flip a low mantissa bit in the coarsest
    // assembled operator AFTER arming, so the post-solve verify must catch
    // it.
    if (fault::fires("sdc.matrix_bitflip") &&
        levels_[0].assembled != nullptr && levels_[0].assembled->nnz() > 0) {
      auto& vals = levels_[0].assembled->values();
      vals[0] = sdc::flip_low_mantissa_bit(vals[0]);
    }
  }
}

std::vector<sdc::Region> GmgHierarchy::seal_regions() const {
  // levels_ is never resized after construction, so the regions point into
  // per-level containers that live as long as the hierarchy.
  std::vector<sdc::Region> regions;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Level& lev = levels_[l];
    std::string prefix = "L";
    prefix += std::to_string(l);
    if (lev.assembled != nullptr && lev.assembled->nnz() > 0)
      lev.assembled->append_seal_regions(prefix, regions);
    // A matrix-free coarse level's operator is its restricted coefficients
    // on its mesh (the finest level's are the caller's).
    if (lev.elem_op != nullptr && l + 1 < levels_.size()) {
      const auto& eta = lev.coeff->eta_data();
      const auto& xyz = lev.mesh->coords();
      regions.push_back({prefix + ".eta", eta.data(),
                         eta.size() * sizeof(Real)});
      regions.push_back({prefix + ".coords", xyz.data(),
                         xyz.size() * sizeof(Real)});
    }
    if (lev.sealed_cache != nullptr) {
      const auto geometry = lev.sealed_cache->geometry_cache();
      regions.push_back(
          {prefix + ".geometry", geometry.data(), geometry.size()});
    }
    if (lev.prolongation.nnz() > 0)
      lev.prolongation.append_seal_regions(prefix + ".prolongation", regions);
  }
  return regions;
}

std::vector<std::string> GmgHierarchy::verify_seal() const {
  if (!opts_.seal_operators) return {};
  return sdc::verify_operator_seal("gmg.operators", seal_, seal_regions());
}

void GmgHierarchy::apply(const Vector& r, Vector& z) const {
  PerfScope perf("PCApply(GMG)");
  if (z.size() != r.size()) z.resize(r.size());
  z.set_all(0.0);
  obs::MetricsRegistry::instance().counter("mg.vcycles").inc();
  cycle(static_cast<int>(levels_.size()) - 1, r, z, /*zero_guess=*/true);
}

void GmgHierarchy::vcycle(const Vector& b, Vector& x) const {
  obs::MetricsRegistry::instance().counter("mg.vcycles").inc();
  cycle(static_cast<int>(levels_.size()) - 1, b, x, /*zero_guess=*/false);
}

void GmgHierarchy::cycle(int level, const Vector& b, Vector& x,
                         bool zero_guess) const {
  const Level& lev = levels_[level];

  if (level == 0) {
    PerfScope perf("MGCoarseSolve");
    if (coarse_solver_) {
      coarse_solver_->apply(b, x);
    } else {
      lev.smoother.smooth(b, x, opts_.smooth_pre + opts_.smooth_post,
                          zero_guess);
    }
    return;
  }

  // Pre-smooth.
  {
    PerfScope perf(level_tag("MGSmooth", level));
    lev.smoother.smooth(b, x, opts_.smooth_pre, zero_guess);
  }

  // Residual and restriction (R = P^T, cached explicitly so the restriction
  // is the row-parallel CSR mult — bitwise identical to the serial
  // mult_transpose scatter, which accumulates each output dof in the same
  // ascending-fine-row order). The transfer operators between this level
  // and the next coarser one are stored on the COARSE level, as is the
  // rc/ec workspace this frame uses (each recursion depth owns a distinct
  // level's scratch, so the recursion never aliases it).
  const Level& coarse = levels_[level - 1];
  {
    PerfScope perf(level_tag("MGTransfer", level));
    lev.op->residual(b, x, lev.r);
    coarse.restriction.mult(lev.r, coarse.rc);
  }
  restrict_counter_->inc();

  // Coarse Dirichlet rows carry no residual equation.
  coarse.bc->zero_constrained(coarse.rc);

  // Recurse from a zero initial guess.
  coarse.ec.set_all(0.0);
  cycle(level - 1, coarse.rc, coarse.ec, /*zero_guess=*/true);

  // Prolongate and correct.
  {
    PerfScope perf(level_tag("MGTransfer", level));
    coarse.prolongation.mult(coarse.ec, lev.e);
    x.axpy(1.0, lev.e);
  }
  prolong_counter_->inc();

  // Post-smooth.
  {
    PerfScope perf(level_tag("MGSmooth", level));
    lev.smoother.smooth(b, x, opts_.smooth_post);
  }
}

} // namespace ptatin
