#include "amg/sa_amg.hpp"

#include <algorithm>
#include <cmath>

#include "amg/aggregation.hpp"
#include "common/error.hpp"
#include "common/timing.hpp"
#include "ksp/eig_estimate.hpp"
#include "ksp/gmres.hpp"
#include "la/coo.hpp"

namespace ptatin {

namespace {

/// Strength threshold below the finest level: 0 keeps every connection, since
/// coarse-level block norms mix translation/rotation scales and a naive
/// threshold there isolates nodes and stalls coarsening.
constexpr Real kCoarseStrengthThreshold = 0.0;
/// Prolongator smoothing omega = kProlongatorDamping / lambda_max.
constexpr Real kProlongatorDamping = 4.0 / 3.0;
/// Block-Jacobi subdomains of the coarsest solve.
constexpr Index kCoarsestBlocks = 4;

/// Build the tentative prolongator from aggregates and near-nullspace
/// vectors via per-aggregate modified Gram-Schmidt QR.
///
/// Every aggregate contributes exactly nvec coarse dofs so coarse levels
/// have a uniform nvec block structure and coarsen at the aggregation rate
/// (the standard smoothed-aggregation setup). Columns that are numerically
/// dependent within an aggregate (rotations on a 1-2 node aggregate) are
/// zero-padded; the resulting decoupled coarse dofs get a unit diagonal via
/// fix_empty_diagonals() after the Galerkin product.
CsrMatrix tentative_prolongator(const std::vector<Index>& agg, Index num_agg,
                                int bs, const std::vector<Vector>& nns,
                                std::vector<Vector>& coarse_nns) {
  const Index nn = static_cast<Index>(agg.size());
  const Index nrows = nn * bs;
  const int nvec = static_cast<int>(nns.size());
  PT_ASSERT(nvec >= 1);

  std::vector<std::vector<Index>> members(num_agg);
  for (Index n = 0; n < nn; ++n) members[agg[n]].push_back(n);

  const Index ncols = num_agg * nvec;
  CooMatrix coo(nrows, ncols);
  coarse_nns.assign(nvec, Vector(ncols, 0.0));

  std::vector<std::vector<Real>> q; // orthonormalized kept columns
  for (Index a = 0; a < num_agg; ++a) {
    const auto& nodes = members[a];
    const Index m = static_cast<Index>(nodes.size()) * bs;

    std::vector<std::vector<Real>> cols(nvec, std::vector<Real>(m));
    for (int v = 0; v < nvec; ++v)
      for (Index t = 0; t < static_cast<Index>(nodes.size()); ++t)
        for (int c = 0; c < bs; ++c)
          cols[v][t * bs + c] = nns[v][nodes[t] * bs + c];

    // Modified Gram-Schmidt; R is stored column-by-column in coarse_nns so
    // that P_tent * coarse_nns == fine nns restricted to each aggregate.
    q.clear();
    std::vector<int> q_col_of; // which candidate produced q[k]
    for (int v = 0; v < nvec; ++v) {
      auto& col = cols[v];
      for (std::size_t kq = 0; kq < q.size(); ++kq) {
        Real dot = 0.0;
        for (Index i = 0; i < m; ++i) dot += q[kq][i] * col[i];
        for (Index i = 0; i < m; ++i) col[i] -= dot * q[kq][i];
        coarse_nns[v][a * nvec + q_col_of[kq]] = dot;
      }
      Real norm = 0.0;
      for (Index i = 0; i < m; ++i) norm += col[i] * col[i];
      norm = std::sqrt(norm);
      if (norm < 1e-10 * std::sqrt(Real(m)) + 1e-300) continue; // padded
      for (Index i = 0; i < m; ++i) col[i] /= norm;
      coarse_nns[v][a * nvec + v] = norm;
      q.push_back(col);
      q_col_of.push_back(v);

      const Index pcol = a * nvec + v;
      for (Index t = 0; t < static_cast<Index>(nodes.size()); ++t)
        for (int c = 0; c < bs; ++c) {
          const Real val = col[t * bs + c];
          if (val != 0.0) coo.add(nodes[t] * bs + c, pcol, val);
        }
    }
  }
  return coo.to_csr();
}

/// Give rows with an empty (or missing) diagonal a unit diagonal so the
/// smoothers and the coarsest LU stay well defined for padded dofs.
CsrMatrix fix_empty_diagonals(CsrMatrix a) {
  Vector d = a.diagonal();
  std::vector<Index> empty;
  for (Index i = 0; i < a.rows(); ++i)
    if (d[i] == 0.0) empty.push_back(i);
  if (empty.empty()) return a;
  CooMatrix eye(a.rows(), a.cols());
  for (Index i : empty) eye.add(i, i, 1.0);
  return CsrMatrix::add(1.0, a, eye.to_csr());
}

/// P = (I - omega D^{-1} A) P_tent.
CsrMatrix smooth_prolongator(const CsrMatrix& a, const CsrMatrix& ptent,
                             Real damping) {
  // Estimate lambda_max(D^{-1} A).
  Vector inv_diag = a.diagonal();
  for (Index i = 0; i < inv_diag.size(); ++i) {
    PT_ASSERT(inv_diag[i] != 0.0);
    inv_diag[i] = Real(1) / inv_diag[i];
  }
  MatrixOperator op(&a);
  const Real lmax = estimate_lambda_max_jacobi(op, inv_diag, 10);
  const Real omega = damping / std::max(lmax, Real(1e-300));

  // Scale A's rows by omega/d_i, multiply with P_tent, subtract from P_tent.
  CsrMatrix da = a; // copy values
  for (Index i = 0; i < da.rows(); ++i)
    for (Index k = da.row_ptr()[i]; k < da.row_ptr()[i + 1]; ++k)
      da.values()[k] *= omega * inv_diag[i];
  CsrMatrix dap = CsrMatrix::multiply(da, ptent);
  return CsrMatrix::add(-1.0, dap, ptent); // ptent - dap
}

} // namespace

SaAmg::SaAmg(const CsrMatrix& a, const std::vector<Vector>& near_nullspace,
             const AmgOptions& opts)
    : opts_(opts) {
  Timer t;
  std::vector<Vector> nns = near_nullspace;
  if (nns.empty()) {
    // Default: one constant vector per component.
    nns.assign(opts.block_size, Vector(a.rows(), 0.0));
    for (Index i = 0; i < a.rows(); ++i) nns[i % opts.block_size][i] = 1.0;
  }

  levels_.emplace_back();
  levels_[0].a = a;

  const int nvec = static_cast<int>(nns.size());
  while (static_cast<int>(levels_.size()) < opts.max_levels &&
         levels_.back().a.rows() > opts.coarse_size) {
    const CsrMatrix& af = levels_.back().a;
    const bool finest = levels_.size() == 1;
    // Coarse levels have a uniform nvec block structure (one block per
    // aggregate); aggregate block-wise there with the laxer threshold.
    const int bs = finest ? opts.block_size : nvec;
    const Real theta =
        finest ? opts.strength_threshold : kCoarseStrengthThreshold;
    CsrMatrix strength = build_strength_graph(af, bs, theta);
    Index num_agg = 0;
    std::vector<Index> agg = aggregate_nodes(strength, num_agg);
    if (num_agg * nvec >= af.rows()) break; // no coarsening progress

    std::vector<Vector> coarse_nns;
    CsrMatrix ptent =
        tentative_prolongator(agg, num_agg, bs, nns, coarse_nns);
    CsrMatrix p = opts.smoothed
                      ? smooth_prolongator(af, ptent, kProlongatorDamping)
                      : std::move(ptent);
    CsrMatrix ac = fix_empty_diagonals(CsrMatrix::ptap(af, p));

    levels_.emplace_back();
    levels_.back().a = std::move(ac);
    levels_.back().p = std::move(p);
    nns = std::move(coarse_nns);
  }

  // Smoothers on all levels but the coarsest.
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    Level& lev = levels_[l];
    lev.op = std::make_unique<MatrixOperator>(&lev.a);
    if (opts.smoother == AmgSmoother::kChebyshev) {
      lev.smoother.setup(*lev.op, lev.a.diagonal());
    } else {
      lev.krylov_smoother_pc = std::make_unique<Ilu0Pc>(lev.a);
    }
  }
  // Cycle workspace, sized once so the V-cycle never allocates.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lev = levels_[l];
    lev.r.resize(lev.a.rows());
    lev.e.resize(lev.a.rows());
    lev.rc.resize(lev.a.rows());
    lev.ec.resize(lev.a.rows());
  }
  // Coarsest solver.
  Level& last = levels_.back();
  last.op = std::make_unique<MatrixOperator>(&last.a);
  coarsest_.setup(last.a, std::min(kCoarsestBlocks, last.a.rows()),
                  SubdomainSolve::kLu);

  // SDC seal over the setup-immutable hierarchy (docs/ROBUSTNESS.md).
  if (opts.seal_operators) seal_.arm(seal_regions());

  setup_seconds_ = t.seconds();
}

std::vector<sdc::Region> SaAmg::seal_regions() const {
  // levels_ is never resized after construction, so the regions point into
  // per-level matrices that live as long as the hierarchy.
  std::vector<sdc::Region> regions;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    std::string prefix = "L";
    prefix += std::to_string(l);
    levels_[l].a.append_seal_regions(prefix, regions);
    if (levels_[l].p.nnz() > 0)
      levels_[l].p.append_seal_regions(prefix + ".p", regions);
  }
  return regions;
}

std::vector<std::string> SaAmg::verify_seal() const {
  if (!opts_.seal_operators) return {};
  return sdc::verify_operator_seal("amg.operators", seal_, seal_regions());
}

double SaAmg::operator_complexity() const {
  double total = 0.0;
  for (const auto& lev : levels_) total += double(lev.a.nnz());
  return total / double(levels_[0].a.nnz());
}

void SaAmg::smooth(const Level& lev, const Vector& b, Vector& x,
                   int its) const {
  if (opts_.smoother == AmgSmoother::kChebyshev) {
    lev.smoother.smooth(b, x, its);
  } else {
    // FGMRES(2)-style inner smoothing with block ILU(0) preconditioning.
    KrylovSettings s;
    s.max_it = its;
    s.restart = 2;
    s.rtol = 0.0; // fixed iteration count
    s.record_history = false;
    fgmres_solve(*lev.op, *lev.krylov_smoother_pc, b, x, s);
  }
}

void SaAmg::cycle(int level, const Vector& b, Vector& x) const {
  const Level& lev = levels_[level];
  if (level == num_levels() - 1) {
    if (opts_.coarsest == AmgCoarsestSolve::kBlockJacobiLu) {
      coarsest_.apply(b, x);
    } else {
      KrylovSettings s;
      s.rtol = 1e-3;
      s.max_it = 200;
      s.record_history = false;
      IdentityPc pc;
      fgmres_solve(*lev.op, pc, b, x, s);
    }
    return;
  }

  smooth(lev, b, x, opts_.smooth_pre);

  // Restriction stays the serial mult_transpose scatter here, unlike GMG:
  // the smoothed-aggregation prolongator has arbitrary real weights, so its
  // products round, and an explicit-transpose mult picks up CsrMatrix::mult's
  // FMA-tail codegen — last-bit drift vs the scatter. (GMG's interpolation
  // weights are powers of two, making every product exact and the swap
  // codegen-proof; see docs/KERNELS.md.) The rc/ec workspace lives on the
  // coarse level, so the recursion never aliases it.
  lev.op->residual(b, x, lev.r);
  const Level& next = levels_[level + 1];
  next.p.mult_transpose(lev.r, next.rc);
  next.ec.set_all(0.0);
  cycle(level + 1, next.rc, next.ec);
  next.p.mult_add(next.ec, x);

  smooth(lev, b, x, opts_.smooth_post);
}

void SaAmg::apply(const Vector& r, Vector& z) const {
  if (z.size() != r.size()) z.resize(r.size());
  z.set_all(0.0);
  cycle(0, r, z);
}

void SaAmg::vcycle(const Vector& b, Vector& x) const { cycle(0, b, x); }

} // namespace ptatin
