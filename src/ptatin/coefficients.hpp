// Coefficient evaluation pipeline (§II-C + §III-A):
//
//   fields (u, p, T) --interpolate--> material points
//   flow laws evaluated AT points -> eta_p, rho_p (and eta'_p for Newton)
//   local L2 projection (Eq. 12) -> Q1 vertex fields
//   interpolation (Eq. 13) -> quadrature points -> QuadCoefficients
//
// The Newton reference strain D0 is sampled directly at quadrature points
// (it multiplies test/trial strains there).
#pragma once

#include "la/vector.hpp"
#include "mpm/points.hpp"
#include "nonlin/newton.hpp"
#include "rheology/flow_law.hpp"
#include "stokes/coefficient.hpp"

namespace ptatin {

class SubdomainEngine;

struct CoefficientPipelineOptions {
  /// Subdomain engine for the point-to-vertex projection (halo-exchanged
  /// scatter, docs/PARALLELISM.md); null = serial scatter. Not owned.
  const SubdomainEngine* decomp = nullptr;
};

/// Evaluate viscosity/density at the material points and project to the
/// quadrature coefficients. `temperature` is the vertex field (may be null).
/// Points must be located. Returns the fraction of yielded points.
Real update_coefficients_from_points(
    const StructuredMesh& mesh, const MaterialTable& materials,
    const MaterialPoints& points, const Vector& u, const Vector& p,
    const Vector* temperature, bool newton_terms,
    const CoefficientPipelineOptions& opts, QuadCoefficients& coeff);

/// Accumulate plastic strain on yielded points:
/// eps_p += sqrt(j2(point)) * dt for points whose flow law is at yield.
Index accumulate_plastic_strain(const StructuredMesh& mesh,
                                const MaterialTable& materials,
                                const Vector& u, const Vector& p,
                                const Vector* temperature, Real dt,
                                MaterialPoints& points);

} // namespace ptatin
