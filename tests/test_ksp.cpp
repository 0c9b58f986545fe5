// Unit tests for the Krylov solver module (CG, GMRES, FGMRES, GCR,
// Chebyshev, eigenvalue estimation).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "ksp/cg.hpp"
#include "ksp/chebyshev.hpp"
#include "ksp/eig_estimate.hpp"
#include "ksp/gcr.hpp"
#include "ksp/gmres.hpp"
#include "la/coo.hpp"

namespace ptatin {
namespace {

CsrMatrix laplacian1d(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
  }
  return coo.to_csr();
}

/// Nonsymmetric convection-diffusion style matrix.
CsrMatrix convdiff1d(Index n, Real peclet) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, -1.0 - peclet);
    if (i + 1 < n) coo.add(i, i + 1, -1.0 + peclet);
  }
  return coo.to_csr();
}

struct Problem {
  CsrMatrix a;
  Vector b, xe;
};

Problem make_problem(CsrMatrix a, unsigned seed = 11) {
  Problem p{std::move(a), Vector(), Vector()};
  const Index n = p.a.rows();
  p.xe.resize(n);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) p.xe[i] = rng.uniform(-1, 1);
  p.a.mult(p.xe, p.b);
  return p;
}

Real error_norm(const Vector& x, const Vector& xe) {
  Vector e;
  e.copy_from(x);
  e.axpy(-1.0, xe);
  return e.norm2();
}

// --- CG ----------------------------------------------------------------

TEST(Cg, ConvergesOnLaplacian) {
  Problem p = make_problem(laplacian1d(100));
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-10;
  IdentityPc pc;
  SolveStats st = cg_solve(MatrixOperator(&p.a), pc, p.b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(error_norm(x, p.xe), 1e-7);
}

TEST(Cg, JacobiPreconditioningReducesIterations) {
  // Symmetrically scaled Laplacian A = D L D with exponentially growing D:
  // ill-conditioned for plain CG, but Jacobi recovers Laplacian-like
  // conditioning.
  const Index n = 80;
  CooMatrix coo(n, n);
  auto d = [&](Index i) { return std::pow(10.0, 3.0 * Real(i) / Real(n)); };
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.0 * d(i) * d(i));
    if (i > 0) coo.add(i, i - 1, -d(i) * d(i - 1));
    if (i + 1 < n) coo.add(i, i + 1, -d(i) * d(i + 1));
  }
  Problem p = make_problem(coo.to_csr());
  MatrixOperator op(&p.a);
  KrylovSettings s;
  s.rtol = 1e-8;

  Vector x1, x2;
  IdentityPc id;
  JacobiPc jac(p.a.diagonal());
  SolveStats st_id = cg_solve(op, id, p.b, x1, s);
  SolveStats st_jac = cg_solve(op, jac, p.b, x2, s);
  EXPECT_TRUE(st_jac.converged);
  EXPECT_LT(st_jac.iterations, st_id.iterations);
}

TEST(Cg, HistoryIsMonotoneForLaplacian) {
  Problem p = make_problem(laplacian1d(50));
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-8;
  IdentityPc pc;
  SolveStats st = cg_solve(MatrixOperator(&p.a), pc, p.b, x, s);
  ASSERT_GE(st.history.size(), 2u);
  EXPECT_LT(st.history.back(), st.history.front());
}

// --- GMRES / FGMRES ------------------------------------------------------

TEST(Gmres, ConvergesOnNonsymmetric) {
  Problem p = make_problem(convdiff1d(100, 0.4));
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-10;
  s.restart = 30;
  IdentityPc pc;
  SolveStats st = gmres_solve(MatrixOperator(&p.a), pc, p.b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(error_norm(x, p.xe), 1e-6);
}

TEST(Gmres, RestartStillConverges) {
  Problem p = make_problem(convdiff1d(120, 0.3));
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-8;
  s.restart = 5; // aggressive restart
  s.max_it = 2000;
  IdentityPc pc;
  SolveStats st = gmres_solve(MatrixOperator(&p.a), pc, p.b, x, s);
  EXPECT_TRUE(st.converged);
}

TEST(Gmres, TracksTrueResidualNorm) {
  // Right preconditioning: reported residual must equal the true
  // unpreconditioned residual at convergence.
  Problem p = make_problem(laplacian1d(60));
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-9;
  JacobiPc pc(p.a.diagonal());
  SolveStats st = gmres_solve(MatrixOperator(&p.a), pc, p.b, x, s);
  Vector r;
  MatrixOperator(&p.a).residual(p.b, x, r);
  EXPECT_NEAR(r.norm2(), st.final_residual, 1e-8 * st.initial_residual);
}

TEST(Fgmres, ToleratesNonlinearPreconditioner) {
  // Preconditioner = few CG iterations (iteration count varies => nonlinear).
  Problem p = make_problem(laplacian1d(150));
  MatrixOperator op(&p.a);
  IdentityPc inner_pc;
  ShellPc pc([&](const Vector& r, Vector& z) {
    z.resize(r.size());
    z.set_all(0.0);
    KrylovSettings is;
    is.rtol = 1e-2;
    is.max_it = 50;
    cg_solve(op, inner_pc, r, z, is);
  });
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-9;
  SolveStats st = fgmres_solve(op, pc, p.b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(error_norm(x, p.xe), 1e-4);
}

// --- GCR ------------------------------------------------------------------

TEST(Gcr, ConvergesOnNonsymmetric) {
  Problem p = make_problem(convdiff1d(100, 0.4));
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-9;
  IdentityPc pc;
  SolveStats st = gcr_solve(MatrixOperator(&p.a), pc, p.b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(error_norm(x, p.xe), 1e-5);
}

TEST(Gcr, MonitorReceivesExplicitResidual) {
  // The reason the paper prefers GCR (§III-A): the residual vector is
  // explicitly available every iteration.
  Problem p = make_problem(laplacian1d(40));
  MatrixOperator op(&p.a);
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-8;
  int calls_with_residual = 0;
  s.monitor = [&](int, Real rnorm, const Vector* r) {
    ASSERT_NE(r, nullptr);
    // Check the monitor's vector really is the residual.
    EXPECT_NEAR(r->norm2(), rnorm, 1e-12 + 1e-12 * rnorm);
    ++calls_with_residual;
  };
  IdentityPc pc;
  gcr_solve(op, pc, p.b, x, s);
  EXPECT_GT(calls_with_residual, 1);
}

TEST(Gcr, FlexibleWithInnerIterations) {
  Problem p = make_problem(convdiff1d(80, 0.2));
  MatrixOperator op(&p.a);
  IdentityPc inner_pc;
  ShellPc pc([&](const Vector& r, Vector& z) {
    z.resize(r.size());
    z.set_all(0.0);
    KrylovSettings is;
    is.rtol = 1e-1;
    is.max_it = 20;
    gmres_solve(op, inner_pc, r, z, is);
  });
  Vector x;
  KrylovSettings s;
  s.rtol = 1e-8;
  SolveStats st = gcr_solve(op, pc, p.b, x, s);
  EXPECT_TRUE(st.converged);
}

TEST(Gcr, AgreesWithGmresIterationsOnEasyProblem) {
  // Both minimize the residual over the same Krylov space with identity PC,
  // so iteration counts should be close.
  Problem p = make_problem(laplacian1d(64));
  MatrixOperator op(&p.a);
  IdentityPc pc;
  KrylovSettings s;
  s.rtol = 1e-8;
  s.restart = 64;
  Vector x1, x2;
  SolveStats g = gmres_solve(op, pc, p.b, x1, s);
  SolveStats c = gcr_solve(op, pc, p.b, x2, s);
  EXPECT_TRUE(g.converged);
  EXPECT_TRUE(c.converged);
  EXPECT_NEAR(Real(g.iterations), Real(c.iterations), 2.0);
}

// --- fused Gram–Schmidt sweep and thread-count determinism -----------------

Vector random_vector(Index n, unsigned seed) {
  Vector v(n);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

void expect_bitwise(const Vector& got, const Vector& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (Index i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at entry " << i;
}

TEST(MgsSweep, ReplaysAxpyAxpyDotBitwise) {
  // Lengths with a partial lane group, a one-term last chunk, and the
  // stokes_sinker12 system size; `self` is the sweep that ends an
  // orthogonalization, dotting the updated vector with itself.
  const int saved = num_threads();
  for (Index n : {7, 1025, 53787})
    for (int nt : {1, 2, 8})
      for (bool with_z : {true, false})
        for (bool self : {false, true}) {
          set_num_threads(nt);
          SCOPED_TRACE("n " + std::to_string(n) + ", threads " +
                       std::to_string(nt) + (with_z ? ", z" : ", no z") +
                       (self ? ", self dot" : ""));
          const Vector u = random_vector(n, 1), sv = random_vector(n, 2),
                       next = random_vector(n, 3);
          const Real beta = 0.3141592653589793;
          Vector w0 = random_vector(n, 4), z0 = random_vector(n, 5);
          Vector w1, z1;
          w1.copy_from(w0);
          z1.copy_from(z0);

          if (with_z) z0.axpy(-beta, sv);
          w0.axpy(-beta, u);
          const Real d0 = w0.dot(self ? w0 : next);
          const Real d1 = mgs_sweep(beta, u, w1, self ? w1 : next,
                                    with_z ? &sv : nullptr,
                                    with_z ? &z1 : nullptr);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(d1),
                    std::bit_cast<std::uint64_t>(d0))
              << d1 << " vs " << d0;
          expect_bitwise(w1, w0, "w");
          expect_bitwise(z1, z0, "z");
        }
  set_num_threads(saved);
}

TEST(Vector, SetScaledIsCopyThenScale) {
  const Vector x = random_vector(3001, 6);
  Vector want;
  want.copy_from(x);
  want.scale(1.0 / 3.0);
  Vector got;
  got.set_scaled(1.0 / 3.0, x);
  expect_bitwise(got, want, "fresh");
  got.set_scaled(1.0 / 3.0, x); // reused storage
  expect_bitwise(got, want, "reused");
}

/// Iterates and residual histories of one solve at 1, 2 and 8 threads must
/// agree bitwise: every reduction has a thread-independent order.
template <class Solve>
void expect_thread_independent(Solve&& solve) {
  const int saved = num_threads();
  Vector x0;
  std::vector<Real> h0;
  for (int nt : {1, 2, 8}) {
    set_num_threads(nt);
    Vector x;
    const SolveStats st = solve(x);
    EXPECT_GT(st.iterations, 5);
    if (x0.size() == 0) {
      x0 = x;
      h0 = st.history;
      continue;
    }
    expect_bitwise(x, x0, "iterate");
    ASSERT_EQ(st.history.size(), h0.size());
    for (std::size_t k = 0; k < h0.size(); ++k)
      ASSERT_EQ(st.history[k], h0[k]) << "residual " << k << ", threads " << nt;
  }
  set_num_threads(saved);
}

TEST(Krylov, GcrAndFgmresAreBitwiseAcrossThreadCounts) {
  // Long enough for many reduction chunks, restarted so the sweeps run over
  // stored directions of every age.
  Problem p = make_problem(convdiff1d(5000, 0.3));
  MatrixOperator op(&p.a);
  JacobiPc pc(p.a.diagonal());
  KrylovSettings s;
  s.rtol = 1e-30;
  s.max_it = 40;
  s.restart = 15;
  expect_thread_independent(
      [&](Vector& x) { return gcr_solve(op, pc, p.b, x, s); });
  expect_thread_independent(
      [&](Vector& x) { return fgmres_solve(op, pc, p.b, x, s); });
}

// --- Eigenvalue estimate & Chebyshev ---------------------------------------

TEST(EigEstimate, LaplacianLambdaMax) {
  // Jacobi-preconditioned 1D Laplacian has λmax -> 2 as n grows.
  CsrMatrix a = laplacian1d(100);
  Vector inv_diag = a.diagonal();
  for (Index i = 0; i < 100; ++i) inv_diag[i] = 1.0 / inv_diag[i];
  MatrixOperator op(&a);
  Real lmax = estimate_lambda_max_jacobi(op, inv_diag, 30);
  EXPECT_GT(lmax, 1.8);
  EXPECT_LT(lmax, 2.01);
}

/// The power iteration as separate vector passes: D^{-1} scaling, norm2,
/// copy_from and scale.
Real lambda_max_unfused(const LinearOperator& a, const Vector& inv_diag,
                        int iterations) {
  const Index n = a.rows();
  Vector v(n), w(n);
  Rng rng(0xC0FFEEull);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1.0, 1.0);
  v.scale(Real(1) / v.norm2());
  Real lambda = 0.0;
  for (int k = 0; k < iterations; ++k) {
    a.apply(v, w);
    w.pointwise_mult(inv_diag);
    lambda = w.norm2();
    if (!(lambda > 0.0)) return 0.0;
    v.copy_from(w);
    v.scale(Real(1) / lambda);
  }
  return lambda;
}

TEST(EigEstimate, FusedPassReplaysSeparatePassesBitwise) {
  // A variable-coefficient operator over several reduction chunks, with a
  // one-term last chunk.
  const Index n = 4097;
  Rng rng(11);
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, rng.uniform(2.0, 4.0));
    if (i > 0) coo.add(i, i - 1, rng.uniform(-1.0, -0.5));
    if (i + 1 < n) coo.add(i, i + 1, rng.uniform(-1.0, -0.5));
  }
  const CsrMatrix a = coo.to_csr();
  const MatrixOperator op(&a);
  Vector inv_diag = a.diagonal();
  for (Index i = 0; i < n; ++i) inv_diag[i] = 1.0 / inv_diag[i];

  const int saved = num_threads();
  for (int nt : {1, 2, 8}) {
    set_num_threads(nt);
    const Real fused = estimate_lambda_max_jacobi(op, inv_diag, 12);
    const Real unfused = lambda_max_unfused(op, inv_diag, 12);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fused),
              std::bit_cast<std::uint64_t>(unfused))
        << "threads " << nt << ": " << fused << " vs " << unfused;
  }
  set_num_threads(saved);
}

TEST(Chebyshev, SmootherReducesResidual) {
  CsrMatrix a = laplacian1d(128);
  MatrixOperator op(&a);
  ChebyshevSmoother cheb;
  cheb.setup(op, a.diagonal());
  Vector b(128, 1.0), x(128, 0.0);
  Vector r0;
  op.residual(b, x, r0);
  cheb.smooth(b, x, 10);
  Vector r;
  op.residual(b, x, r);
  EXPECT_LT(r.norm2(), r0.norm2());
}

TEST(Chebyshev, TargetsUpperSpectrum) {
  // Chebyshev targeting [0.2λ, 1.1λ] must strongly damp a high-frequency
  // error mode while barely touching the smoothest mode — the property that
  // makes it an MG smoother (§III-C).
  const Index n = 128;
  CsrMatrix a = laplacian1d(n);
  MatrixOperator op(&a);
  ChebyshevSmoother cheb;
  cheb.setup(op, a.diagonal());

  auto mode_decay = [&](int mode) {
    Vector x(n), b(n, 0.0);
    for (Index i = 0; i < n; ++i)
      x[i] = std::sin(M_PI * Real(mode) * Real(i + 1) / Real(n + 1));
    const Real e0 = x.norm2();
    cheb.smooth(b, x, 2); // error satisfies homogeneous equation
    return x.norm2() / e0;
  };

  const Real high = mode_decay(120); // near λmax
  const Real low = mode_decay(1);    // near λmin
  EXPECT_LT(high, 0.1); // strongly damped
  EXPECT_GT(low, 0.7);  // nearly untouched
}

TEST(Chebyshev, IntervalMatchesPaperFractions) {
  CsrMatrix a = laplacian1d(64);
  MatrixOperator op(&a);
  ChebyshevSmoother cheb;
  cheb.setup(op, a.diagonal());
  EXPECT_NEAR(cheb.interval_min() / cheb.lambda_max(), 0.2, 1e-12);
  EXPECT_NEAR(cheb.interval_max() / cheb.lambda_max(), 1.1, 1e-12);
}

// --- Zero RHS edge case ------------------------------------------------------

TEST(Krylov, ZeroRhsReturnsZero) {
  CsrMatrix a = laplacian1d(10);
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(10, 0.0), x(10, 0.0);
  KrylovSettings s;
  SolveStats st = cg_solve(op, pc, b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.iterations, 0);
  EXPECT_DOUBLE_EQ(x.norm2(), 0.0);
}

} // namespace
} // namespace ptatin
