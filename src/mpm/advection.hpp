// Material point advection: D(Phi)/Dt = 0 (Eq. 6) realized by moving points
// through the FE velocity field with a second-order Runge-Kutta update.
#pragma once

#include "fem/mesh.hpp"
#include "la/vector.hpp"
#include "mpm/points.hpp"

namespace ptatin {

struct AdvectionStats {
  Index advected = 0;
  Index left_domain = 0; ///< points whose midpoint/endpoint left the mesh
};

/// RK2 (midpoint) advection of all located points; positions are updated and
/// locations re-resolved. Points that exit the mesh keep their position but
/// have an invalid element (the caller deletes them; PtatinContext does).
AdvectionStats advect_points_rk2(const StructuredMesh& mesh, const Vector& u,
                                 Real dt, MaterialPoints& points);

/// Stable advective time step: dt <= cfl * min(h_el / |u|_el).
Real compute_cfl_dt(const StructuredMesh& mesh, const Vector& u, Real cfl);

} // namespace ptatin
