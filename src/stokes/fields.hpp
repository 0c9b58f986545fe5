// Field evaluation utilities: strain-rate invariants at quadrature points
// (for rheology updates and Newton linearization state), pressure and
// temperature sampling, and pointwise velocity interpolation (for material
// point advection).
#pragma once

#include "common/small_mat.hpp"
#include "fem/mesh.hpp"
#include "la/vector.hpp"
#include "stokes/coefficient.hpp"

namespace ptatin {

/// Strain-rate state at one quadrature point.
struct StrainRateSample {
  Real j2 = 0.0;   ///< 1/2 D:D
  Real d[kSymSize] = {0, 0, 0, 0, 0, 0}; ///< D (xx,yy,zz,xy,xz,yz)
};

/// Evaluate strain rates of the Q2 velocity field u at all quadrature points.
/// `out` has num_elements*27 entries, indexed e*27+q.
void evaluate_strain_rates(const StructuredMesh& mesh, const Vector& u,
                           std::vector<StrainRateSample>& out);

/// Evaluate the P1disc pressure field at all quadrature points
/// (out[e*27+q]).
void evaluate_pressure_at_quadrature(const StructuredMesh& mesh,
                                     const Vector& p, std::vector<Real>& out);

/// Evaluate a vertex-based (Q1) scalar field (e.g. temperature) at all
/// quadrature points (out[e*27+q]).
void evaluate_vertex_field_at_quadrature(const StructuredMesh& mesh,
                                         const Vector& tv,
                                         std::vector<Real>& out);

/// Interpolate the Q2 velocity at reference point xi of element e.
Vec3 interpolate_velocity(const StructuredMesh& mesh, const Vector& u, Index e,
                          const Vec3& xi);

/// Strain rate of u at an arbitrary reference point of element e (used to
/// evaluate flow laws AT material points, §II-C).
StrainRateSample strain_rate_at_point(const StructuredMesh& mesh,
                                      const Vector& u, Index e,
                                      const Vec3& xi);

/// P1disc pressure at an arbitrary physical point of element e.
Real pressure_at_point(const StructuredMesh& mesh, const Vector& p, Index e,
                       const Vec3& x_physical);

/// Interpolate a vertex-based (Q1) scalar at reference point xi of element e.
Real interpolate_vertex_field(const StructuredMesh& mesh, const Vector& tv,
                              Index e, const Vec3& xi);

/// L2 norm of the divergence of u (quadrature-sampled; used by tests to
/// check the discrete incompressibility of solutions).
Real divergence_l2(const StructuredMesh& mesh, const Vector& u);

} // namespace ptatin
