// ALE mesh update for the deforming free surface (§II, §V-A).
//
// The free surface (top face in the vertical direction) moves kinematically
// with the flow; interior nodes are then redistributed along each vertical
// lattice column between the (fixed) bottom and the new surface, keeping the
// IJK-structured topology intact.
#pragma once

#include "fem/mesh.hpp"
#include "la/vector.hpp"

namespace ptatin {

struct AleOptions {
  int vertical_axis = 2; ///< 2 = z up (sinker), 1 = y up (rifting model)
};

struct AleStats {
  Real max_surface_displacement = 0.0;
  Real min_detj_after = 0.0; ///< smallest Jacobian determinant (quality)
};

/// Advect the free-surface nodes with the velocity field over dt and
/// redistribute each column's interior nodes uniformly between the bottom
/// and the new surface. Lateral (in-plane) coordinates are untouched.
AleStats update_mesh_free_surface(StructuredMesh& mesh, const Vector& u,
                                  Real dt, const AleOptions& opts);

/// Mesh quality: minimum w-scaled Jacobian determinant over all quadrature
/// points (negative = tangled mesh).
Real min_jacobian_determinant(const StructuredMesh& mesh);

} // namespace ptatin
