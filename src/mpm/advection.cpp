#include "mpm/advection.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "fem/dofmap.hpp"
#include "fem/point_location.hpp"
#include "stokes/fields.hpp"

namespace ptatin {

AdvectionStats advect_points_rk2(const StructuredMesh& mesh, const Vector& u,
                                 Real dt, MaterialPoints& points) {
  AdvectionStats stats;
  const Index n = points.size();
  std::vector<std::uint8_t> lost(n, 0);

  parallel_for(n, [&](Index i) {
    Index e = points.element(i);
    if (e < 0) {
      lost[i] = 1;
      return;
    }
    const Vec3 x0 = points.position(i);
    const Vec3 v0 = interpolate_velocity(mesh, u, e, points.local_coord(i));

    // Midpoint rule: v evaluated at x0 + dt/2 v0.
    Vec3 xm{x0[0] + Real(0.5) * dt * v0[0], x0[1] + Real(0.5) * dt * v0[1],
            x0[2] + Real(0.5) * dt * v0[2]};
    const PointLocation lm = locate_point(mesh, xm, e);
    Vec3 vm = v0;
    if (lm.found) vm = interpolate_velocity(mesh, u, lm.element, lm.xi);
    const Vec3 x1{x0[0] + dt * vm[0], x0[1] + dt * vm[1], x0[2] + dt * vm[2]};

    points.set_position(i, x1);
    const PointLocation l1 = locate_point(mesh, x1, e);
    if (l1.found) {
      points.set_location(i, l1.element, l1.xi);
    } else {
      points.invalidate_location(i);
      lost[i] = 1;
    }
  });

  for (Index i = 0; i < n; ++i) {
    if (lost[i]) {
      ++stats.left_domain;
    } else {
      ++stats.advected;
    }
  }
  return stats;
}

Real compute_cfl_dt(const StructuredMesh& mesh, const Vector& u, Real cfl) {
  PT_ASSERT(u.size() == num_velocity_dofs(mesh));
  Real dt_min = std::numeric_limits<Real>::max();
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    Vec3 lo, hi;
    mesh.element_bbox(e, lo, hi);
    const Real h =
        std::min({hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]});
    // Max nodal speed over the element.
    Index nodes[kQ2NodesPerEl];
    mesh.element_nodes(e, nodes);
    Real vmax = 0.0;
    for (int i = 0; i < kQ2NodesPerEl; ++i) {
      Real v2 = 0;
      for (int c = 0; c < 3; ++c) {
        const Real v = u[velocity_dof(nodes[i], c)];
        v2 += v * v;
      }
      vmax = std::max(vmax, std::sqrt(v2));
    }
    if (vmax > 0) dt_min = std::min(dt_min, h / vmax);
  }
  return cfl * (dt_min == std::numeric_limits<Real>::max() ? Real(1) : dt_min);
}

} // namespace ptatin
