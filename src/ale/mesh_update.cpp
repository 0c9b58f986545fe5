#include "ale/mesh_update.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fem/dofmap.hpp"
#include "stokes/geometry.hpp"

namespace ptatin {

AleStats update_mesh_free_surface(StructuredMesh& mesh, const Vector& u,
                                  Real dt, const AleOptions& opts) {
  PT_ASSERT(u.size() == num_velocity_dofs(mesh));
  const int va = opts.vertical_axis;
  PT_ASSERT(va >= 0 && va < 3);
  AleStats stats;

  const Index n1 = va == 0 ? mesh.ny() : mesh.nx();
  const Index n2 = va == 2 ? mesh.ny() : mesh.nz();
  const Index nv = va == 0 ? mesh.nx() : (va == 1 ? mesh.ny() : mesh.nz());

  auto node_at = [&](Index i1, Index i2, Index iv) {
    switch (va) {
      case 0: return mesh.node_index(iv, i1, i2);
      case 1: return mesh.node_index(i1, iv, i2);
      default: return mesh.node_index(i1, i2, iv);
    }
  };

  // Move surface nodes with the flow and redistribute each column. Columns
  // touch disjoint nodes, so they parallelize freely; max is order-
  // independent, so the chunked reduction is bitwise identical to the loop.
  const Real max_disp =
      parallel_reduce_max(n1 * n2, [&](Index col) -> Real {
        const Index i2 = col / n1;
        const Index i1 = col % n1;
        const Index top = node_at(i1, i2, nv - 1);
        const Index bot = node_at(i1, i2, 0);
        const Real v_top = u[velocity_dof(top, va)];
        const Real disp = dt * v_top;

        Vec3 xt = mesh.node_coord(top);
        xt[va] += disp;
        mesh.set_node_coord(top, xt);

        const Real lo = mesh.node_coord(bot)[va];
        const Real hi = xt[va];
        PT_ASSERT_MSG(hi > lo, "ALE: surface crossed the bottom boundary");
        for (Index iv = 1; iv < nv - 1; ++iv) {
          const Index n = node_at(i1, i2, iv);
          Vec3 x = mesh.node_coord(n);
          x[va] = lo + (hi - lo) * Real(iv) / Real(nv - 1);
          mesh.set_node_coord(n, x);
        }
        return std::abs(disp);
      });

  stats.max_surface_displacement = std::max(max_disp, Real(0.0));
  stats.min_detj_after = min_jacobian_determinant(mesh);
  return stats;
}

Real min_jacobian_determinant(const StructuredMesh& mesh) {
  const auto& geom = geom_tabulation();
  Real mind = std::numeric_limits<Real>::max();
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    Real xe[kQ1NodesPerEl][3];
    mesh.element_corner_coords(e, xe);
    for (int q = 0; q < kQuadPerEl; ++q) {
      Mat3 J{};
      for (int v = 0; v < kQ1NodesPerEl; ++v)
        for (int r = 0; r < 3; ++r)
          for (int d = 0; d < 3; ++d)
            J[3 * r + d] += xe[v][r] * geom.dN[q][v][d];
      mind = std::min(mind, det3(J));
    }
  }
  return mind;
}

} // namespace ptatin
