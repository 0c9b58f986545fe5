// Coefficient evaluation pipeline (§II-C + §III-A):
//
//   fields (u, p, T) --interpolate--> material points
//   flow laws evaluated AT points -> eta_p, rho_p (and eta'_p for Newton)
//   local L2 projection (Eq. 12) -> Q1 vertex fields
//   interpolation (Eq. 13) -> quadrature points -> QuadCoefficients
//
// The Newton reference strain D0 is sampled directly at quadrature points
// (it multiplies test/trial strains there).
//
// A nonlinear solve asks for the coefficients at one (u, p) several times:
// the first residual and every Newton refresh are at the state the previous
// call evaluated, and the plastic-strain stage needs the yield flags of the
// converged state. PointEvaluation keeps the last evaluation with a bitwise
// copy of the (u, p) it was made at, so each state is evaluated once.
#pragma once

#include <cstdint>
#include <vector>

#include "la/vector.hpp"
#include "mpm/points.hpp"
#include "nonlin/newton.hpp"
#include "rheology/flow_law.hpp"
#include "stokes/coefficient.hpp"

namespace ptatin {

class SubdomainEngine;

/// The flow laws evaluated at every material point for one (u, p): per point
/// d(eta)/d(J2), J2 and the yield flag, and eta and rho projected to the
/// quadrature points, with a bitwise copy of the (u, p). The key covers only
/// (u, p): the mesh, points and temperature of the update that made an
/// evaluation must not change while it is reused, so keep one only as long
/// as they stand still (PtatinContext::step holds one from the pre-solve to
/// the plastic stage).
class PointEvaluation {
public:
  /// Fill eta and rho (and, when `newton_terms`, deta and D0) of `coeff` at
  /// (u, p). Reuses the held evaluation when it was made at bitwise-equal
  /// (u, p); otherwise evaluates every point (counted by the metric
  /// `mpm.point_evaluations`). `temperature` is the vertex field (may be
  /// null). `engine` runs the point-to-vertex projection as a halo-exchanged
  /// scatter (docs/PARALLELISM.md); null = serial scatter. Points must be
  /// located.
  void update(const StructuredMesh& mesh, const MaterialTable& materials,
              const MaterialPoints& points, const Vector& u, const Vector& p,
              const Vector* temperature, bool newton_terms,
              const SubdomainEngine* engine, QuadCoefficients& coeff);

  /// True when an evaluation made at bitwise-equal (u, p) is held.
  bool holds(const Vector& u, const Vector& p) const;

  /// eps_p += sqrt(J2) * dt on the points the held evaluation found at
  /// yield; returns their count. The evaluation must hold (u, p).
  Index accumulate_plastic_strain(const Vector& u, const Vector& p, Real dt,
                                  MaterialPoints& points) const;

private:
  void evaluate(const StructuredMesh& mesh, const MaterialTable& materials,
                const MaterialPoints& points, const Vector& u, const Vector& p,
                const Vector* temperature, const SubdomainEngine* engine);

  bool held_ = false; ///< u_, p_ and the arrays below describe one state
  Vector u_, p_;
  std::vector<Real> deta_p_, j2_p_;     ///< per point
  std::vector<std::uint8_t> yielded_;   ///< per point
  std::vector<Real> eta_q_, rho_q_;     ///< e*27+q
};

} // namespace ptatin
