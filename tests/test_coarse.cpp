// Bitwise-parity suite for the coarse-grid pipeline (docs/KERNELS.md,
// "Coarse-grid pipeline"): cached Galerkin RAP vs from-scratch ptap,
// parallel cached-transpose restriction vs serial mult_transpose, and the
// fused and zero-guess Chebyshev sweeps vs an unfused reference — each
// checked at 1/2/8 threads — plus the matrix-free level 1
// against its assembled matrix, its operator seal, the GMG
// solve-iteration-identity check and the zero-allocations-per-apply guard
// on the V-cycle hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "ksp/chebyshev.hpp"
#include "ksp/gcr.hpp"
#include "la/coo.hpp"
#include "la/galerkin.hpp"
#include "mg/gmg.hpp"
#include "obs/metrics.hpp"

// --- global allocation counter for the zero-allocation guard ----------------
// Counting is off by default; the test arms it around a single apply. The
// overloads must live at global scope (outside any namespace).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};
inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

// The replacements pair new/new[] with malloc/posix_memalign and delete with
// free — a valid pairing for replaced global allocators, which the
// mismatched-new-delete heuristic cannot see.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t sz) {
  note_alloc();
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), sz ? sz : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ptatin {
namespace {

// --- helpers ---------------------------------------------------------------

QuadCoefficients sinker_coeff(const StructuredMesh& mesh, Real contrast) {
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real dx = g.xq[q][0] - 0.5, dy = g.xq[q][1] - 0.5,
                 dz = g.xq[q][2] - 0.5;
      const bool inside = dx * dx + dy * dy + dz * dz < 0.25 * 0.25;
      c.eta(e, q) = inside ? 1.0 : 1.0 / contrast;
      c.rho(e, q) = inside ? 1.2 : 1.0;
    }
  }
  return c;
}

CoarseSolverFactory lu_coarse_factory() {
  return [](const CsrMatrix& a, const StructuredMesh&,
            const DirichletBc&) -> std::unique_ptr<Preconditioner> {
    return std::make_unique<BlockJacobiPc>(a, 1, SubdomainSolve::kLu);
  };
}

BcFactory sinker_bc_factory() {
  return [](const StructuredMesh& m) { return sinker_boundary_conditions(m); };
}

void expect_bitwise_equal(const CsrMatrix& a, const CsrMatrix& b,
                          const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  for (Index i = 0; i <= a.rows(); ++i)
    ASSERT_EQ(a.row_ptr()[i], b.row_ptr()[i]) << what << " row_ptr " << i;
  for (Index k = 0; k < a.nnz(); ++k) {
    ASSERT_EQ(a.col_idx()[k], b.col_idx()[k]) << what << " col " << k;
    ASSERT_EQ(a.values()[k], b.values()[k]) << what << " val " << k;
  }
}

Vector random_vector(Index n, unsigned seed) {
  Vector x(n);
  Rng rng(seed);
  // Mixed magnitudes make any reassociation visible in the last bits.
  for (Index i = 0; i < n; ++i)
    x[i] = rng.uniform(-1, 1) * std::pow(10.0, Real(i % 8) - 4.0);
  return x;
}

/// Run `body` at 1, 2, and 8 threads, restoring the entry count after.
template <typename F>
void at_thread_counts(F&& body) {
  const int saved = num_threads();
  for (int nt : {1, 2, 8}) {
    set_num_threads(nt);
    body(nt);
  }
  set_num_threads(saved);
}

/// Assembled viscous matrix + velocity prolongation for an m^3 sinker mesh.
struct RapFixture {
  StructuredMesh fine, coarse;
  DirichletBc bc;
  CsrMatrix a, p;
  explicit RapFixture(Index m, Real contrast = 100.0)
      : fine(StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1})),
        coarse(fine.coarsen()),
        bc(sinker_boundary_conditions(fine)) {
    a = assemble_viscous_matrix(fine, sinker_coeff(fine, contrast));
    bc.apply_to_matrix_symmetric(a);
    p = build_velocity_prolongation(fine, coarse, &bc);
  }
};

// --- cached Galerkin RAP ------------------------------------------------------

TEST(GalerkinRap, CachedRefreshMatchesFromScratchBitwise) {
  RapFixture fx(6);
  GalerkinProduct gp;
  CsrMatrix first = gp.product(fx.a, fx.p);
  EXPECT_FALSE(gp.last_was_refresh());
  expect_bitwise_equal(first, CsrMatrix::ptap(fx.a, fx.p), "first product");

  // Scaling every viscosity by 2^k scales every element entry exactly, so
  // the re-assembled matrix keeps the first one's exact zero-set: the
  // refresh path must engage, and must be bitwise identical to the
  // from-scratch product, at every thread count.
  const QuadCoefficients base = sinker_coeff(fx.fine, 100.0);
  at_thread_counts([&](int nt) {
    QuadCoefficients scaled = base;
    for (Real& eta : scaled.eta_data()) eta = std::ldexp(eta, nt);
    CsrMatrix a2 = assemble_viscous_matrix(fx.fine, scaled);
    fx.bc.apply_to_matrix_symmetric(a2);
    CsrMatrix refreshed = gp.product(a2, fx.p);
    EXPECT_TRUE(gp.last_was_refresh()) << "threads " << nt;
    expect_bitwise_equal(refreshed, CsrMatrix::ptap(a2, fx.p),
                         "refresh vs ptap");
  });
  EXPECT_EQ(gp.setups(), 1);
  EXPECT_EQ(gp.refreshes(), 3);

  // A new contrast moves entries that nearly cancel, and some of them land
  // on exact 0.0 at one contrast and not at another (depending on FMA
  // contraction): the replay then falls back to a full setup. Whichever
  // path each product takes, it must equal the from-scratch product.
  at_thread_counts([&](int nt) {
    const Real contrast = 100.0 * (nt + 1);
    CsrMatrix a2 =
        assemble_viscous_matrix(fx.fine, sinker_coeff(fx.fine, contrast));
    fx.bc.apply_to_matrix_symmetric(a2);
    expect_bitwise_equal(gp.product(a2, fx.p), CsrMatrix::ptap(a2, fx.p),
                         "contrast re-assembly vs ptap");
  });
  EXPECT_EQ(gp.setups() + gp.refreshes(), 7);
}

TEST(GalerkinRap, ProductPatternDriftFallsBackToSetup) {
  // CsrMatrix::multiply prunes entries of its first operand whose stored
  // value is exactly 0.0, so the PRODUCT pattern depends on A's zero-set.
  // The cache verifies that pattern during the replay and must fall back
  // (still exact) when a zero flip actually shrinks or grows it.
  //
  // Hand-built so the drift provably changes the A*P pattern:
  //   A = [2 . 1; . 3 z; . . 4] with z an explicitly STORED 0.0,
  //   P = [1 0; 0 1; 1 1].
  // A(0,2) is the sole bridge from row 0 to P's row 2 — zeroing it drops
  // AP(0,1). Un-zeroing z adds AP(1,0).
  CooMatrix acoo(3, 3);
  acoo.add(0, 0, 2.0);
  acoo.add(0, 2, 1.0);
  acoo.add(1, 1, 3.0);
  acoo.add(1, 2, 0.5); // placeholder; stored then flipped to exact 0.0
  acoo.add(2, 2, 4.0);
  CsrMatrix a = acoo.to_csr();
  *a.find(1, 2) = 0.0;

  CooMatrix pcoo(3, 2);
  pcoo.add(0, 0, 1.0);
  pcoo.add(1, 1, 1.0);
  pcoo.add(2, 0, 1.0);
  pcoo.add(2, 1, 1.0);
  CsrMatrix p = pcoo.to_csr();

  GalerkinProduct gp;
  gp.product(a, p);
  ASSERT_FALSE(gp.last_was_refresh());

  // Same zero-set, new values: the replay verifies the pattern and refreshes.
  CsrMatrix a_same = a;
  *a_same.find(0, 0) = 5.0;
  expect_bitwise_equal(gp.product(a_same, p), CsrMatrix::ptap(a_same, p),
                       "refresh product");
  EXPECT_TRUE(gp.last_was_refresh());

  // Pattern shrinks: the bridge entry becomes an exact zero.
  CsrMatrix a_shrink = a;
  *a_shrink.find(0, 2) = 0.0;
  expect_bitwise_equal(gp.product(a_shrink, p), CsrMatrix::ptap(a_shrink, p),
                       "shrink fallback product");
  EXPECT_FALSE(gp.last_was_refresh());

  // Re-prime with the original zero-set, then grow: z becomes nonzero.
  gp.product(a, p);
  CsrMatrix a_grow = a;
  *a_grow.find(1, 2) = 1.0;
  expect_bitwise_equal(gp.product(a_grow, p), CsrMatrix::ptap(a_grow, p),
                       "grow fallback product");
  EXPECT_FALSE(gp.last_was_refresh());

  // Input-pattern change (different mesh size) must also fall back.
  RapFixture other(6);
  CsrMatrix c2 = gp.product(other.a, other.p);
  EXPECT_FALSE(gp.last_was_refresh());
  expect_bitwise_equal(c2, CsrMatrix::ptap(other.a, other.p),
                       "pattern-change product");
}

// --- restriction / transpose -------------------------------------------------

TEST(Restriction, ParallelCachedTransposeMatchesSerialBitwise) {
  RapFixture fx(8);
  const CsrMatrix r = fx.p.transpose();
  const Vector xf = random_vector(fx.p.rows(), 11);
  Vector rc_serial, rc_parallel;
  fx.p.mult_transpose(xf, rc_serial);
  at_thread_counts([&](int nt) {
    r.mult(xf, rc_parallel);
    ASSERT_EQ(rc_parallel.size(), rc_serial.size());
    for (Index i = 0; i < rc_serial.size(); ++i)
      ASSERT_EQ(rc_parallel[i], rc_serial[i]) << "threads " << nt << " i " << i;
  });
}

TEST(Transpose, ParallelMatchesSerialOnLargeMatrix) {
  // The parallel transpose only engages for >= 4 * kReduceChunk rows; build
  // a matrix big enough and compare against the serial path (1 thread).
  const Index nrows = 6000, ncols = 500;
  Rng rng(13);
  CooMatrix coo(nrows, ncols);
  for (Index i = 0; i < nrows; ++i) {
    const int len = int(rng.uniform(0.0, 6.0)); // includes empty rows
    for (int k = 0; k < len; ++k)
      coo.add(i, Index(rng.uniform(0.0, double(ncols))) % ncols,
              rng.uniform(-1, 1));
  }
  const CsrMatrix a = coo.to_csr();
  const int saved = num_threads();
  set_num_threads(1);
  const CsrMatrix t_serial = a.transpose();
  set_num_threads(saved);
  at_thread_counts([&](int nt) {
    const CsrMatrix t = a.transpose();
    expect_bitwise_equal(t, t_serial,
                         (std::string("transpose@") + std::to_string(nt))
                             .c_str());
  });
  // Round trip restores the original exactly (values are only moved).
  expect_bitwise_equal(t_serial.transpose(), a, "double transpose");
}

// --- Chebyshev ---------------------------------------------------------------

/// The unfused Chebyshev sweep, one Vector operation per step, on the
/// smoother's interval: the reference that ChebyshevSmoother::smooth's
/// single fused pass per iteration must reproduce bitwise.
void unfused_chebyshev(const LinearOperator& a, const Vector& diag,
                       const ChebyshevSmoother& s, const Vector& b, Vector& x,
                       int iterations) {
  const Real theta = Real(0.5) * (s.interval_max() + s.interval_min());
  const Real delta = Real(0.5) * (s.interval_max() - s.interval_min());
  const Real sigma = theta / delta;
  const Index n = b.size();
  Vector inv_diag(n), r(n), z(n), p(n);
  for (Index i = 0; i < n; ++i) inv_diag[i] = Real(1) / diag[i];
  auto jacobi = [&] {
    for (Index i = 0; i < n; ++i) z[i] = r[i] * inv_diag[i];
  };

  a.residual(b, x, r);
  jacobi();
  Real rho = Real(1) / sigma;
  p.copy_from(z);
  p.scale(Real(1) / theta);
  x.axpy(1.0, p);
  for (int k = 1; k < iterations; ++k) {
    a.residual(b, x, r);
    jacobi();
    const Real rho_new = Real(1) / (Real(2) * sigma - rho);
    p.scale(rho_new * rho);
    p.axpy(Real(2) * rho_new / delta, z);
    x.axpy(1.0, p);
    rho = rho_new;
  }
}

TEST(Chebyshev, FusedMatchesUnfusedBitwise) {
  RapFixture fx(6);
  MatrixOperator op(&fx.a);
  const Vector diag = fx.a.diagonal();
  ChebyshevSmoother fused;
  fused.setup(op, diag);

  Vector b = random_vector(fx.a.rows(), 29);
  at_thread_counts([&](int nt) {
    for (int its : {1, 2, 4}) {
      Vector xf = random_vector(fx.a.rows(), 31);
      Vector xu;
      xu.copy_from(xf);
      fused.smooth(b, xf, its);
      unfused_chebyshev(op, diag, fused, b, xu, its);
      for (Index i = 0; i < xf.size(); ++i)
        ASSERT_EQ(xf[i], xu[i])
            << "threads " << nt << " its " << its << " i " << i;
    }
  });

  // The zero-guess skip and the general fused path both reproduce the
  // reference from x = 0. Dirichlet rows give b exact zeros, and a few -0.0
  // entries check that a residual differing from b - A 0 in the sign of a
  // zero cannot reach x.
  fx.bc.zero_constrained(b);
  for (Index i = 0; i < b.size(); i += 97) b[i] = -0.0;
  at_thread_counts([&](int nt) {
    for (int its : {1, 2, 3}) {
      Vector x_ref(b.size(), 0.0), x_general(b.size(), 0.0),
          x_skip(b.size(), 0.0);
      unfused_chebyshev(op, diag, fused, b, x_ref, its);
      fused.smooth(b, x_general, its);
      fused.smooth(b, x_skip, its, /*zero_guess=*/true);
      for (const Vector* x : {&x_general, &x_skip})
        for (Index i = 0; i < b.size(); ++i) {
          ASSERT_EQ(std::signbit((*x)[i]), std::signbit(x_ref[i]))
              << "threads " << nt << " its " << its << " i " << i;
          ASSERT_EQ((*x)[i], x_ref[i])
              << "threads " << nt << " its " << its << " i " << i;
        }
    }
  });
}

TEST(Chebyshev, ZeroIterationsLeavesInputBitwiseUnchanged) {
  // Regression: smooth() used to run an unconditional first half-step, so a
  // V(0,k) configuration silently smoothed once per level.
  RapFixture fx(4);
  MatrixOperator op(&fx.a);
  ChebyshevSmoother s;
  s.setup(op, fx.a.diagonal());
  const Vector b = random_vector(fx.a.rows(), 37);
  Vector x = random_vector(fx.a.rows(), 41);
  Vector x0;
  x0.copy_from(x);
  s.smooth(b, x, 0);
  for (Index i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], x0[i]) << "i " << i;
  s.smooth(b, x, -3);
  for (Index i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], x0[i]) << "i " << i;
  // A positive count still smooths.
  s.smooth(b, x, 1);
  Real diff = 0.0;
  for (Index i = 0; i < x.size(); ++i) diff += std::abs(x[i] - x0[i]);
  EXPECT_GT(diff, 0.0);
}

// --- GMG with the new kernels -------------------------------------------------

TEST(GmgCoarse, SolveIterationIdentityWithNewKernels) {
  // The cached RAP (first setup and numeric-only refresh) vs a from-scratch
  // ptap: identical Krylov iteration counts and a bitwise-identical solution.
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);

  // An assembled finest level gives the full Galerkin chain.
  const AsmbViscousOperator A(mesh, coeff, &bc);
  auto solve_with = [&](GmgSetupCache* cache, Vector& x) {
    GmgOptions opts;
    opts.levels = 3;
    opts.setup_cache = cache;
    GmgHierarchy mg(A, opts, sinker_bc_factory(), lu_coarse_factory());
    Rng rng(43);
    Vector b(A.rows(), 0.0);
    for (Index i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
    bc.zero_constrained(b);
    KrylovSettings s;
    s.rtol = 1e-8;
    s.max_it = 100;
    return gcr_solve(A, mg, b, x, s);
  };

  GmgSetupCache cache;
  Vector x_base, x_opt, x_refresh;
  const SolveStats base = solve_with(nullptr, x_base);
  const SolveStats opt = solve_with(&cache, x_opt);
  // Second optimized solve reuses the cache: the RAP goes numeric-only.
  const SolveStats refreshed = solve_with(&cache, x_refresh);

  EXPECT_TRUE(base.converged);
  EXPECT_EQ(opt.iterations, base.iterations);
  EXPECT_EQ(refreshed.iterations, base.iterations);
  ASSERT_EQ(x_opt.size(), x_base.size());
  for (Index i = 0; i < x_base.size(); ++i) {
    ASSERT_EQ(x_opt[i], x_base[i]) << "i " << i;
    ASSERT_EQ(x_refresh[i], x_base[i]) << "i " << i;
  }
}

TEST(GmgCoarse, SetupCacheTurnsRebuildsIntoRefreshes) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  const AsmbViscousOperator fine(mesh, coeff, &bc);
  GmgOptions opts;
  opts.levels = 3;
  GmgSetupCache cache;
  opts.setup_cache = &cache;

  auto& metrics = obs::MetricsRegistry::instance();
  const obs::Counter& setups = metrics.counter("mg.rap.setups");
  const obs::Counter& refreshes = metrics.counter("mg.rap.refreshes");
  const long long setups0 = setups.value(), refreshes0 = refreshes.value();
  GmgHierarchy first(fine, opts, sinker_bc_factory(), lu_coarse_factory());
  EXPECT_GT(setups.value(), setups0);
  EXPECT_EQ(refreshes.value(), refreshes0);

  const long long setups1 = setups.value();
  GmgHierarchy second(fine, opts, sinker_bc_factory(), lu_coarse_factory());
  EXPECT_EQ(setups.value(), setups1);
  EXPECT_GT(refreshes.value(), refreshes0);

  // The refreshed hierarchy is the same preconditioner, bitwise.
  Vector b(num_velocity_dofs(mesh), 1.0);
  bc.zero_constrained(b);
  Vector z1, z2;
  first.apply(b, z1);
  second.apply(b, z2);
  for (Index i = 0; i < z1.size(); ++i) ASSERT_EQ(z1[i], z2[i]) << "i " << i;
}

// --- matrix-free level 1 -------------------------------------------------------

/// A 12x8x12 box under a smooth deformation, with a viscosity varying by
/// about e^8 and the sinker's free-slip Dirichlet rows. Its 6x4x6 level 1
/// has colors of 18 elements: two full W=8 batches plus a scalar tail.
struct DeformedFixture {
  StructuredMesh mesh = StructuredMesh::box(12, 8, 12, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff;
  DirichletBc bc;
  DeformedFixture() {
    mesh.deform([](const Vec3& x) {
      return Vec3{x[0] + 0.05 * std::sin(M_PI * x[1]) * std::sin(M_PI * x[2]),
                  x[1] + 0.04 * std::sin(M_PI * x[0]) * x[2],
                  x[2] + 0.06 * x[0] * x[1] * (1.0 - x[2])};
    });
    coeff = QuadCoefficients(mesh.num_elements());
    for (Index e = 0; e < mesh.num_elements(); ++e) {
      ElementGeometry g;
      element_geometry(mesh, e, g);
      for (int q = 0; q < kQuadPerEl; ++q)
        coeff.eta(e, q) = std::exp(4.0 * std::sin(2 * M_PI * g.xq[q][0]) *
                                   std::cos(2 * M_PI * g.xq[q][1]) *
                                   g.xq[q][2]);
    }
    bc = sinker_boundary_conditions(mesh);
  }
  /// The finest level's operator at the solver stack's width.
  std::unique_ptr<ViscousOperatorBase> fine(FineOperatorType type) const {
    return make_viscous_backend(
        {.type = type, .batch_width = kSolverBatchWidth}, mesh, coeff, &bc);
  }
  static GmgHierarchy hierarchy(const ViscousOperatorBase& fine_op) {
    GmgOptions opts;
    opts.levels = 3;
    return GmgHierarchy(fine_op, opts, sinker_bc_factory(),
                        lu_coarse_factory());
  }
};

Real relative_difference(const Vector& a, const Vector& ref) {
  Vector d;
  d.copy_from(a);
  d.axpy(-1.0, ref);
  return d.norm2() / ref.norm2();
}

TEST(GmgCoarse, MatrixFreeLevelOneMatchesAssembledOperator) {
  const DeformedFixture fx;
  // The reference is what level 1 used to apply: the rediscretized matrix
  // with the symmetric Dirichlet elimination.
  const StructuredMesh level1 = fx.mesh.coarsen();
  const DirichletBc level1_bc = sinker_boundary_conditions(level1);
  CsrMatrix ref = assemble_viscous_matrix(
      level1, restrict_coefficients(fx.mesh, fx.coeff, level1));
  level1_bc.apply_to_matrix_symmetric(ref);
  const StructuredMesh level0 = level1.coarsen();
  CsrMatrix rap = CsrMatrix::ptap(
      ref, build_velocity_prolongation(level1, level0, &level1_bc));
  sinker_boundary_conditions(level0).apply_to_matrix_symmetric(rap);

  const Vector x = random_vector(ref.rows(), 47);
  Vector y_ref;
  ref.mult(x, y_ref);
  for (FineOperatorType type :
       {FineOperatorType::kMatrixFree, FineOperatorType::kTensor,
        FineOperatorType::kTensorC}) {
    const char* tok = fine_operator_token(type);
    const auto fine = fx.fine(type);
    const GmgHierarchy mg = fx.hierarchy(*fine);
    const auto* op =
        dynamic_cast<const ViscousOperatorBase*>(&mg.level_operator(1));
    ASSERT_NE(op, nullptr) << tok;
    EXPECT_EQ(op->batch_width(), kSolverBatchWidth) << tok;
    EXPECT_EQ(op->subdomain_engine(), nullptr) << tok;
    Vector y;
    op->apply(x, y);
    EXPECT_LT(relative_difference(y, y_ref), 1e-12) << tok;
    EXPECT_LT(relative_difference(op->diagonal(), ref.diagonal()), 1e-12)
        << tok;
    // The coarsest level is still the Galerkin product of the assembled
    // level 1, formed before that matrix was freed.
    const auto* coarsest =
        dynamic_cast<const MatrixOperator*>(&mg.level_operator(0));
    ASSERT_NE(coarsest, nullptr) << tok;
    expect_bitwise_equal(coarsest->matrix(), rap, tok);
  }
}

TEST(GmgCoarse, AssembledFinestKeepsGalerkinLevelOne) {
  const DeformedFixture fx;
  const auto fine = fx.fine(FineOperatorType::kAssembled);
  const GmgHierarchy mg = fx.hierarchy(*fine);
  const auto* op = dynamic_cast<const MatrixOperator*>(&mg.level_operator(1));
  ASSERT_NE(op, nullptr);
  CsrMatrix a = assemble_viscous_matrix(fx.mesh, fx.coeff);
  fx.bc.apply_to_matrix_symmetric(a);
  const StructuredMesh level1 = fx.mesh.coarsen();
  CsrMatrix rap = CsrMatrix::ptap(
      a, build_velocity_prolongation(fx.mesh, level1, &fx.bc));
  sinker_boundary_conditions(level1).apply_to_matrix_symmetric(rap);
  expect_bitwise_equal(op->matrix(), rap, "level 1");
}

TEST(GmgCoarse, ApplyMatchesVcycleFromZeroBitwise) {
  // apply() runs every pre-smooth on the zero-guess path; vcycle() from a
  // zeroed x takes the general path on the finest level.
  const DeformedFixture fx;
  for (FineOperatorType type :
       {FineOperatorType::kTensor, FineOperatorType::kAssembled}) {
    const auto fine = fx.fine(type);
    const GmgHierarchy mg = fx.hierarchy(*fine);
    Vector b = random_vector(mg.level_dofs(2), 53);
    fx.bc.zero_constrained(b);
    Vector z, x(b.size(), 0.0);
    mg.apply(b, z);
    mg.vcycle(b, x);
    for (Index i = 0; i < b.size(); ++i)
      ASSERT_EQ(z[i], x[i]) << fine_operator_token(type) << " i " << i;
  }
}

TEST(GmgCoarse, SealCoversMatrixFreeLevelCoefficients) {
  const DeformedFixture fx;
  const auto fine = fx.fine(FineOperatorType::kTensor);
  GmgOptions opts;
  opts.levels = 3;
  opts.seal_operators = true;
  const GmgHierarchy mg(*fine, opts, sinker_bc_factory(), lu_coarse_factory());
  EXPECT_TRUE(mg.verify_seal().empty());

  // Simulate a stray write into level 1's restricted viscosity.
  const auto& op =
      dynamic_cast<const ViscousOperatorBase&>(mg.level_operator(1));
  auto* byte = reinterpret_cast<unsigned char*>(
      const_cast<Real*>(op.coefficients().eta_data().data()) + 5);
  *byte ^= 0x10;
  const std::vector<std::string> bad = mg.verify_seal();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("L1.eta"), std::string::npos) << bad[0];
  *byte ^= 0x10;
  EXPECT_TRUE(mg.verify_seal().empty());

  // Level 1's geometry cache, built by its λmax estimate before the seal
  // was armed, is sealed too.
  const auto& tens = dynamic_cast<const TensorViscousOperator&>(op);
  const std::span<const std::byte> geometry = tens.geometry_cache();
  ASSERT_FALSE(geometry.empty());
  auto* cached = const_cast<std::byte*>(geometry.data()) + 1001;
  *cached ^= std::byte{0x10};
  const std::vector<std::string> flipped = mg.verify_seal();
  ASSERT_EQ(flipped.size(), 1u);
  EXPECT_NE(flipped[0].find("L1.geometry"), std::string::npos) << flipped[0];
  *cached ^= std::byte{0x10};
  EXPECT_TRUE(mg.verify_seal().empty());
}

TEST(GmgCoarse, VcycleApplyIsAllocationFree) {
#if defined(PTATIN_TSAN)
  GTEST_SKIP() << "TSan team path allocates per parallel region";
#elif defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan interposes the allocator";
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer interposes the allocator";
#endif
#endif
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  QuadCoefficients coeff = sinker_coeff(mesh, 1e2);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  const TensorViscousOperator fine(mesh, coeff, &bc, kSolverBatchWidth);
  GmgOptions opts;
  opts.levels = 3; // level 1 smooths matrix-free on the batched kernel
  GmgHierarchy mg(fine, opts, sinker_bc_factory(), lu_coarse_factory());
  Vector b(num_velocity_dofs(mesh), 1.0);
  bc.zero_constrained(b);
  Vector z(b.size());
  // Warm-up: first apply sizes lazily-built scratch (element slabs, perf
  // event registration, smoother workspace checks).
  mg.apply(b, z);
  mg.apply(b, z);

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  mg.apply(b, z);
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "V-cycle apply allocated on the hot path";
#endif
}

} // namespace
} // namespace ptatin
