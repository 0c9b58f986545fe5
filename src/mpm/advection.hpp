// Material point advection: D(Phi)/Dt = 0 (Eq. 6) realized by moving points
// through the FE velocity field with a second-order Runge-Kutta update.
#pragma once

#include "fem/mesh.hpp"
#include "la/vector.hpp"
#include "mpm/points.hpp"

namespace ptatin {

class SubdomainEngine;

struct AdvectionStats {
  Index advected = 0;
  Index left_domain = 0; ///< points whose midpoint/endpoint left the mesh
};

/// RK2 (midpoint) advection of all located points; positions are updated and
/// locations re-resolved. Points that exit the mesh keep their position but
/// have an invalid element (the caller deletes them; PtatinContext does).
AdvectionStats advect_points_rk2(const StructuredMesh& mesh, const Vector& u,
                                 Real dt, MaterialPoints& points);

/// Subdomain-parallel variant (docs/PARALLELISM.md): points are binned by
/// owning subdomain and each subdomain advects its own points on the thread
/// team (§II-D). Per-point updates are independent, so results are bitwise
/// identical to the global sweep. Null engine = the global parallel loop.
AdvectionStats advect_points_rk2(const StructuredMesh& mesh, const Vector& u,
                                 Real dt, MaterialPoints& points,
                                 const SubdomainEngine* engine);

/// Forward-Euler variant (ablation / cheap paths).
AdvectionStats advect_points_euler(const StructuredMesh& mesh, const Vector& u,
                                   Real dt, MaterialPoints& points);

/// Stable advective time step: dt <= cfl * min(h_el / |u|_el).
Real compute_cfl_dt(const StructuredMesh& mesh, const Vector& u, Real cfl);

} // namespace ptatin
