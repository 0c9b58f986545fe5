// Unit tests for the linear-algebra substrate (Vector, COO/CSR, LU, ILU(0),
// block-Jacobi).
#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "la/block_jacobi.hpp"
#include "la/coo.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/ilu0.hpp"
#include "la/vector.hpp"

namespace ptatin {
namespace {

// --- helpers ---------------------------------------------------------------

/// 1D Laplacian (tridiagonal [-1, 2, -1]) of size n; SPD, well understood.
CsrMatrix laplacian1d(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
  }
  return coo.to_csr();
}

CsrMatrix random_spd(Index n, Rng& rng) {
  // Diagonally dominant random symmetric matrix.
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    Real rowsum = 0.0;
    for (Index j = 0; j < i; ++j) {
      if (rng.uniform() < 0.2) {
        const Real v = rng.uniform(-1.0, 1.0);
        coo.add(i, j, v);
        coo.add(j, i, v);
        rowsum += std::abs(v);
      }
    }
    coo.add(i, i, rowsum + 1.0 + rng.uniform());
  }
  return coo.to_csr();
}

// --- Vector ----------------------------------------------------------------

TEST(Vector, AxpyAndNorms) {
  Vector x(4), y(4);
  for (Index i = 0; i < 4; ++i) {
    x[i] = Real(i + 1);
    y[i] = 1.0;
  }
  y.axpy(2.0, x); // y = 1 + 2*(i+1)
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[3], 9.0);
  EXPECT_DOUBLE_EQ(x.dot(x), 1.0 + 4.0 + 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(x.norm_inf(), 4.0);
  EXPECT_DOUBLE_EQ(x.norm2(), std::sqrt(30.0));
}

TEST(Vector, AypxIsScaleThenAdd) {
  Vector x(3, 1.0), y(3, 2.0);
  y.aypx(3.0, x); // y = 3*2 + 1
  for (Index i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y[i], 7.0);
}

TEST(Vector, PointwiseOps) {
  Vector x(3), y(3);
  x[0] = 2;  x[1] = 4;  x[2] = 8;
  y[0] = 1;  y[1] = 2;  y[2] = 4;
  Vector z;
  z.copy_from(x);
  z.pointwise_div(y);
  EXPECT_DOUBLE_EQ(z[0], 2.0);
  EXPECT_DOUBLE_EQ(z[2], 2.0);
  z.pointwise_mult(y);
  EXPECT_DOUBLE_EQ(z[2], 8.0);
}

TEST(Vector, NormsAreBitwiseReproducibleAcrossThreadCounts) {
  // dot/sum/norm2 use a fixed-chunk deterministic reduction: the association
  // order depends only on the vector length, never on the thread count, so
  // the results must be bitwise identical at 1, 2, and 8 threads. (Magnitude
  // spread makes any reassociation visible in the last bits.)
  const Index n = 70001; // not a multiple of the reduction chunk
  Vector x(n), y(n);
  Rng rng(7);
  for (Index i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1, 1) * std::pow(10.0, Real(i % 12) - 6.0);
    y[i] = rng.uniform(-1, 1);
  }
  const int saved = num_threads();
  set_num_threads(1);
  const Real d1 = x.dot(y), s1 = x.sum(), n1 = x.norm2();
  set_num_threads(2);
  const Real d2 = x.dot(y), s2 = x.sum(), n2 = x.norm2();
  set_num_threads(8);
  const Real d8 = x.dot(y), s8 = x.sum(), n8 = x.norm2();
  set_num_threads(saved);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s8);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(n1, n8);
}

TEST(Vector, NormInfOfEmptyVectorIsZero) {
  // Guards the parallel_reduce_max identity fix: an empty vector must report
  // 0, not -inf/lowest().
  Vector x(0);
  EXPECT_EQ(x.norm_inf(), 0.0);
}

TEST(Vector, RemoveConstantZerosTheSum) {
  Vector x(5);
  for (Index i = 0; i < 5; ++i) x[i] = Real(i);
  x.remove_constant();
  EXPECT_NEAR(x.sum(), 0.0, 1e-13);
}

// --- COO -> CSR ------------------------------------------------------------

TEST(Coo, DuplicatesAreSummed) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 0, -1.0);
  CsrMatrix a = coo.to_csr();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(*a.find(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(*a.find(1, 0), -1.0);
  EXPECT_EQ(a.find(1, 1), nullptr);
}

TEST(Coo, EmptyRowsProduceValidCsr) {
  CooMatrix coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(3, 2, 2.0);
  CsrMatrix a = coo.to_csr();
  EXPECT_EQ(a.nnz(), 2);
  Vector x(4, 1.0), y;
  a.mult(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

// --- CSR -------------------------------------------------------------------

TEST(Csr, SpmvMatchesDense) {
  Rng rng(1);
  CsrMatrix a = random_spd(40, rng);
  DenseMatrix d = DenseMatrix::from_csr(a);
  Vector x(40), y1, y2;
  for (Index i = 0; i < 40; ++i) x[i] = rng.uniform(-1, 1);
  a.mult(x, y1);
  d.mult(x, y2);
  for (Index i = 0; i < 40; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Csr, MultAddAccumulates) {
  CsrMatrix a = laplacian1d(5);
  Vector x(5, 1.0), y(5, 10.0);
  a.mult_add(x, y);
  EXPECT_DOUBLE_EQ(y[0], 11.0); // 2 - 1 = 1 added to 10
  EXPECT_DOUBLE_EQ(y[2], 10.0); // interior row sums to 0
}

TEST(Csr, TransposeIsInvolution) {
  Rng rng(2);
  CsrMatrix a = random_spd(30, rng);
  CsrMatrix att = a.transpose().transpose();
  // Transposing only moves values, so the round trip restores every entry.
  EXPECT_EQ(att.row_ptr(), a.row_ptr());
  EXPECT_EQ(att.col_idx(), a.col_idx());
  EXPECT_EQ(att.values(), a.values());
  Vector x(30), y1, y2;
  for (Index i = 0; i < 30; ++i) x[i] = rng.uniform(-1, 1);
  a.mult(x, y1);
  att.mult(x, y2);
  for (Index i = 0; i < 30; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Csr, TransposeMatchesMultTranspose) {
  Rng rng(3);
  CooMatrix coo(6, 4);
  for (int k = 0; k < 12; ++k)
    coo.add(rng.uniform_index(0, 5), rng.uniform_index(0, 3),
            rng.uniform(-1, 1));
  CsrMatrix a = coo.to_csr();
  CsrMatrix at = a.transpose();
  Vector x(6), y1, y2;
  for (Index i = 0; i < 6; ++i) x[i] = rng.uniform(-1, 1);
  a.mult_transpose(x, y1);
  at.mult(x, y2);
  for (Index i = 0; i < 4; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Csr, MultiplyMatchesDenseProduct) {
  Rng rng(4);
  CsrMatrix a = random_spd(20, rng);
  CsrMatrix b = random_spd(20, rng);
  CsrMatrix c = CsrMatrix::multiply(a, b);
  // Verify action on random vectors: C x == A (B x).
  for (int trial = 0; trial < 3; ++trial) {
    Vector x(20), bx, abx, cx;
    for (Index i = 0; i < 20; ++i) x[i] = rng.uniform(-1, 1);
    b.mult(x, bx);
    a.mult(bx, abx);
    c.mult(x, cx);
    for (Index i = 0; i < 20; ++i) EXPECT_NEAR(cx[i], abx[i], 1e-12);
  }
}

TEST(Csr, PtapMatchesComposition) {
  Rng rng(5);
  CsrMatrix a = random_spd(24, rng);
  // Piecewise-constant aggregation-style P: 24 -> 6.
  CooMatrix pcoo(24, 6);
  for (Index i = 0; i < 24; ++i) pcoo.add(i, i / 4, 1.0);
  CsrMatrix p = pcoo.to_csr();
  CsrMatrix c = CsrMatrix::ptap(a, p);
  EXPECT_EQ(c.rows(), 6);
  EXPECT_EQ(c.cols(), 6);
  Vector xc(6), px, apx, want, got;
  for (Index i = 0; i < 6; ++i) xc[i] = rng.uniform(-1, 1);
  p.mult(xc, px);
  a.mult(px, apx);
  p.mult_transpose(apx, want);
  c.mult(xc, got);
  for (Index i = 0; i < 6; ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(Csr, AddCombinesPatterns) {
  CooMatrix ca(2, 2), cb(2, 2);
  ca.add(0, 0, 1.0);
  ca.add(1, 1, 2.0);
  cb.add(0, 1, 3.0);
  cb.add(1, 1, 4.0);
  CsrMatrix c = CsrMatrix::add(2.0, ca.to_csr(), cb.to_csr());
  EXPECT_DOUBLE_EQ(*c.find(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(*c.find(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(*c.find(1, 1), 8.0);
}

TEST(Csr, ZeroRowSetIdentity) {
  CsrMatrix a = laplacian1d(5);
  a.zero_row_set_identity(2);
  Vector x(5, 1.0), y;
  a.mult(x, y);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
}

TEST(Csr, DiagonalExtraction) {
  CsrMatrix a = laplacian1d(7);
  Vector d = a.diagonal();
  for (Index i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(d[i], 2.0);
}

TEST(Csr, DiagonalOfMissingEntriesIsZero) {
  // The binary-search extraction must report 0 for rows without a stored
  // diagonal (and for empty rows), like the old linear scan did.
  CooMatrix coo(4, 4);
  coo.add(0, 1, 5.0); // row 0: off-diagonal only
  coo.add(2, 2, 7.0); // row 1 empty, row 2 diagonal, row 3 empty
  CsrMatrix a = coo.to_csr();
  Vector d = a.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 7.0);
  EXPECT_DOUBLE_EQ(d[3], 0.0);
}

// --- Dense LU --------------------------------------------------------------

TEST(DenseLu, SolvesRandomSystem) {
  Rng rng(6);
  const Index n = 15;
  DenseMatrix a(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-1, 1) + (i == j ? Real(n) : 0.0);
  Vector xe(n), b(n), x;
  for (Index i = 0; i < n; ++i) xe[i] = rng.uniform(-1, 1);
  a.mult(xe, b);
  LuFactor lu(a);
  lu.solve(b, x);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(x[i], xe[i], 1e-11);
}

TEST(DenseLu, PivotingHandlesZeroLeadingEntry) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  LuFactor lu(a);
  Vector b(2), x;
  b[0] = 3.0; b[1] = 5.0;
  lu.solve(b, x);
  EXPECT_DOUBLE_EQ(x[0], 5.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(DenseLu, SingularThrows) {
  DenseMatrix a(2, 2); // all zeros
  LuFactor lu;
  EXPECT_THROW(lu.factor(a), Error);
}

// --- ILU(0) ----------------------------------------------------------------

TEST(Ilu0, ExactForTridiagonal) {
  // For a tridiagonal matrix ILU(0) is the full LU: the solve is exact.
  CsrMatrix a = laplacian1d(20);
  Ilu0 ilu(a);
  Rng rng(7);
  Vector xe(20), b(20), x;
  for (Index i = 0; i < 20; ++i) xe[i] = rng.uniform(-1, 1);
  a.mult(xe, b);
  ilu.solve(b, x);
  for (Index i = 0; i < 20; ++i) EXPECT_NEAR(x[i], xe[i], 1e-12);
}

TEST(Ilu0, ReducesResidualOnSpd) {
  Rng rng(8);
  CsrMatrix a = random_spd(60, rng);
  Vector b(60, 1.0), x;
  Ilu0 ilu(a);
  ilu.solve(b, x);
  Vector r;
  a.mult(x, r);
  r.aypx(-1.0, b);
  EXPECT_LT(r.norm2(), b.norm2());
}

// --- Block Jacobi ----------------------------------------------------------

TEST(BlockJacobi, SingleBlockLuIsDirectSolve) {
  CsrMatrix a = laplacian1d(12);
  BlockJacobi bj;
  bj.setup(a, 1, SubdomainSolve::kLu);
  Rng rng(9);
  Vector xe(12), b(12), x;
  for (Index i = 0; i < 12; ++i) xe[i] = rng.uniform(-1, 1);
  a.mult(xe, b);
  bj.apply(b, x);
  for (Index i = 0; i < 12; ++i) EXPECT_NEAR(x[i], xe[i], 1e-12);
}

TEST(BlockJacobi, SolvesExactlyInsideBlockInterior) {
  // A right-hand side supported strictly inside one block (away from the cut
  // edges) is solved exactly on rows whose couplings stay within the block.
  CsrMatrix a = laplacian1d(64);
  BlockJacobi bj;
  bj.setup(a, 4, SubdomainSolve::kLu); // blocks of 16
  Vector b(64, 0.0), x;
  b[8] = 1.0; // interior of block 0
  bj.apply(b, x);
  Vector r;
  a.mult(x, r);
  r.aypx(-1.0, b);
  // Residual vanishes except at the block cut (rows 15, 16).
  for (Index i = 0; i < 64; ++i) {
    if (i == 15 || i == 16) continue;
    EXPECT_NEAR(r[i], 0.0, 1e-12) << "row " << i;
  }
}

TEST(BlockJacobi, IluSubdomains) {
  CsrMatrix a = laplacian1d(32);
  BlockJacobi bj;
  bj.setup(a, 2, SubdomainSolve::kIlu0);
  Vector b(32, 1.0), x;
  bj.apply(b, x);
  // Tridiagonal blocks: ILU(0) is exact per block; behaves like block LU.
  BlockJacobi bj_lu;
  bj_lu.setup(a, 2, SubdomainSolve::kLu);
  Vector x_lu;
  bj_lu.apply(b, x_lu);
  for (Index i = 0; i < 32; ++i) EXPECT_NEAR(x[i], x_lu[i], 1e-12);
}

} // namespace
} // namespace ptatin
