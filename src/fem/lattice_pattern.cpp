#include "fem/lattice_pattern.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ptatin {

namespace {

std::array<Index, 3> elements_per_direction(const StructuredMesh& mesh) {
  return {mesh.mx(), mesh.my(), mesh.mz()};
}

} // namespace

/// Axis whose row point i couples to the column points range(i) = [lo, hi].
template <class Range>
LatticePattern::Axis LatticePattern::make_axis(Index nrows, Index ncols,
                                               Range range) {
  Axis a;
  a.ncols = ncols;
  a.lo.resize(static_cast<std::size_t>(nrows));
  a.len.resize(static_cast<std::size_t>(nrows));
  for (Index i = 0; i < nrows; ++i) {
    const auto [lo, hi] = range(i);
    a.lo[i] = lo;
    a.len[i] = hi - lo + 1;
  }
  return a;
}

LatticePattern::LatticePattern(std::array<Axis, 3> axes, int row_block,
                               int col_block)
    : axes_(std::move(axes)), row_block_(row_block), col_block_(col_block) {
  for (const Axis& a : axes_) PT_ASSERT(a.lo.size() == a.len.size());
}

LatticePattern LatticePattern::q2_velocity(const StructuredMesh& mesh) {
  std::array<Axis, 3> axes;
  for (int d = 0; d < 3; ++d) {
    const Index n = 2 * elements_per_direction(mesh)[d] + 1;
    axes[d] = make_axis(n, n, [n](Index i) {
      const Index r = i % 2 == 0 ? 2 : 1; // element vertex : interior
      return std::pair{std::max<Index>(0, i - r), std::min(n - 1, i + r)};
    });
  }
  return LatticePattern(std::move(axes), 3, 3);
}

LatticePattern LatticePattern::gradient(const StructuredMesh& mesh) {
  std::array<Axis, 3> axes;
  for (int d = 0; d < 3; ++d) {
    const Index m = elements_per_direction(mesh)[d];
    // Node 2t is shared by elements t-1 and t, node 2t+1 lies inside t.
    axes[d] = make_axis(2 * m + 1, m, [m](Index i) {
      return std::pair{i == 0 ? Index(0) : (i - 1) / 2, std::min(m - 1, i / 2)};
    });
  }
  return LatticePattern(std::move(axes), 3, kP1NodesPerEl);
}

LatticePattern LatticePattern::divergence(const StructuredMesh& mesh) {
  std::array<Axis, 3> axes;
  for (int d = 0; d < 3; ++d) {
    const Index m = elements_per_direction(mesh)[d];
    axes[d] = make_axis(m, 2 * m + 1,
                        [](Index e) { return std::pair{2 * e, 2 * e + 2}; });
  }
  return LatticePattern(std::move(axes), kP1NodesPerEl, 3);
}

LatticePattern LatticePattern::q1_vertex(const StructuredMesh& mesh) {
  std::array<Axis, 3> axes;
  for (int d = 0; d < 3; ++d) {
    const Index n = elements_per_direction(mesh)[d] + 1;
    axes[d] = make_axis(n, n, [n](Index i) {
      return std::pair{std::max<Index>(0, i - 1), std::min(n - 1, i + 1)};
    });
  }
  return LatticePattern(std::move(axes), 1, 1);
}

CsrMatrix LatticePattern::matrix() const {
  const Axis &x = axes_[0], &y = axes_[1], &z = axes_[2];
  const Index nx = static_cast<Index>(x.lo.size());
  const Index ny = static_cast<Index>(y.lo.size());
  const Index nz = static_cast<Index>(z.lo.size());
  const Index npoints = nx * ny * nz;
  const Index rows = npoints * row_block_;

  // The row_block rows of one point share its column box.
  std::vector<Index> rp(static_cast<std::size_t>(rows + 1), 0);
  Index r = 0;
  for (Index k = 0; k < nz; ++k)
    for (Index j = 0; j < ny; ++j)
      for (Index i = 0; i < nx; ++i) {
        const Index len = x.len[i] * y.len[j] * z.len[k] * col_block_;
        for (int rc = 0; rc < row_block_; ++rc, ++r) rp[r + 1] = rp[r] + len;
      }

  std::vector<Index> ci(static_cast<std::size_t>(rp[rows]));
  parallel_for(npoints, [&](Index p) {
    const Index i = p % nx, j = (p / nx) % ny, k = p / (nx * ny);
    Index* const first = ci.data() + rp[p * row_block_];
    Index* out = first;
    for (Index ck = z.lo[k]; ck < z.lo[k] + z.len[k]; ++ck)
      for (Index cj = y.lo[j]; cj < y.lo[j] + y.len[j]; ++cj)
        for (Index cx = x.lo[i]; cx < x.lo[i] + x.len[i]; ++cx)
          for (int cc = 0; cc < col_block_; ++cc)
            *out++ = (cx + x.ncols * (cj + y.ncols * ck)) * col_block_ + cc;
    const Index len = out - first;
    for (int rc = 1; rc < row_block_; ++rc)
      std::copy_n(first, len, first + rc * len);
  });

  std::vector<Real> va(ci.size(), 0.0);
  const Index cols = x.ncols * y.ncols * z.ncols * col_block_;
  return CsrMatrix(rows, cols, std::move(rp), std::move(ci), std::move(va));
}

} // namespace ptatin
