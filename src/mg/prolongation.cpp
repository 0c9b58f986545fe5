#include "mg/prolongation.hpp"

#include "common/error.hpp"
#include "fem/dofmap.hpp"

namespace ptatin {

CsrMatrix build_velocity_prolongation(const StructuredMesh& fine,
                                      const StructuredMesh& coarse,
                                      const DirichletBc* fine_bc) {
  PT_ASSERT(fine.mx() == 2 * coarse.mx() && fine.my() == 2 * coarse.my() &&
            fine.mz() == 2 * coarse.mz());

  const Index nf = num_velocity_dofs(fine);
  const Index nc = num_velocity_dofs(coarse);

  std::vector<Index> rp(nf + 1, 0);
  std::vector<Index> ci;
  std::vector<Real> va;
  ci.reserve(nf * 4);
  va.reserve(nf * 4);

  for (Index k = 0; k < fine.nz(); ++k)
    for (Index j = 0; j < fine.ny(); ++j)
      for (Index i = 0; i < fine.nx(); ++i) {
        // Per-dimension stencils (coarse lattice index, weight).
        Index idx[3][2];
        Real wgt[3][2];
        int cnt[3];
        const Index fidx[3] = {i, j, k};
        for (int d = 0; d < 3; ++d) {
          const Index h = fidx[d] / 2;
          if (fidx[d] % 2 == 0) {
            idx[d][0] = h;
            wgt[d][0] = 1.0;
            cnt[d] = 1;
          } else {
            idx[d][0] = h;
            idx[d][1] = h + 1;
            wgt[d][0] = wgt[d][1] = 0.5;
            cnt[d] = 2;
            PT_DEBUG_ASSERT(h + 1 < (d == 0   ? coarse.nx()
                                     : d == 1 ? coarse.ny()
                                              : coarse.nz()));
          }
        }

        const Index fnode = fine.node_index(i, j, k);
        for (int c = 0; c < 3; ++c) {
          const Index row = velocity_dof(fnode, c);
          const bool constrained =
              fine_bc != nullptr && fine_bc->is_constrained(row);
          if (!constrained) {
            // Accumulate entries in increasing coarse-dof order: iterate
            // z, y, x stencils; coarse node index grows with each lattice
            // coordinate so ordering is naturally sorted.
            for (int cz = 0; cz < cnt[2]; ++cz)
              for (int cy = 0; cy < cnt[1]; ++cy)
                for (int cx = 0; cx < cnt[0]; ++cx) {
                  const Index cn =
                      coarse.node_index(idx[0][cx], idx[1][cy], idx[2][cz]);
                  ci.push_back(velocity_dof(cn, c));
                  va.push_back(wgt[0][cx] * wgt[1][cy] * wgt[2][cz]);
                }
          }
          rp[row + 1] = static_cast<Index>(ci.size());
        }
      }

  // Convert per-row end markers to prefix form (rows were filled in
  // increasing dof order: dof = 3*node + c and nodes iterate in order).
  for (Index r = 0; r < nf; ++r)
    if (rp[r + 1] < rp[r]) rp[r + 1] = rp[r];
  return CsrMatrix(nf, nc, std::move(rp), std::move(ci), std::move(va));
}

} // namespace ptatin
