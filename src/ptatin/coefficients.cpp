#include "ptatin/coefficients.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/muladd.hpp"
#include "common/parallel.hpp"
#include "mpm/projection.hpp"
#include "obs/metrics.hpp"
#include "stokes/fields.hpp"

namespace ptatin {

namespace {

/// Projected values of Q1 vertices with empty point support.
constexpr Real kFallbackEta = 1.0;
constexpr Real kFallbackRho = 0.0;

/// Evaluate the rheology state at one located material point.
RheologyState point_state(const StructuredMesh& mesh, const Vector& u,
                          const Vector& p, const Vector* temperature,
                          const MaterialPoints& points, Index i) {
  RheologyState st;
  const Index e = points.element(i);
  const Vec3 xi = points.local_coord(i);
  st.j2 = strain_rate_at_point(mesh, u, e, xi).j2;
  st.pressure = pressure_at_point(mesh, p, e, points.position(i));
  if (temperature != nullptr)
    st.temperature = interpolate_vertex_field(mesh, *temperature, e, xi);
  st.plastic_strain = points.plastic_strain(i);
  return st;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(Real) * a.size()) == 0;
}

} // namespace

bool PointEvaluation::holds(const Vector& u, const Vector& p) const {
  return held_ && bitwise_equal(u, u_) && bitwise_equal(p, p_);
}

void PointEvaluation::evaluate(const StructuredMesh& mesh,
                               const MaterialTable& materials,
                               const MaterialPoints& points, const Vector& u,
                               const Vector& p, const Vector* temperature,
                               const SubdomainEngine* engine) {
  obs::MetricsRegistry::instance().counter("mpm.point_evaluations").inc();
  held_ = false; // the arrays below stop describing the held state
  const Index n = points.size();
  std::vector<Real> eta_p(n, kFallbackEta);
  std::vector<Real> rho_p(n, kFallbackRho);
  deta_p_.assign(n, 0.0);
  j2_p_.assign(n, 0.0);
  yielded_.assign(n, 0);

  parallel_for(n, [&](Index i) {
    if (points.element(i) < 0) return;
    const RheologyState st =
        point_state(mesh, u, p, temperature, points, i);
    const FlowLaw& law = materials.law(points.lithology(i));
    const ViscosityEval ve = law.viscosity(st);
    eta_p[i] = ve.eta;
    rho_p[i] = law.density(st);
    deta_p_[i] = ve.deta_dj2;
    j2_p_[i] = st.j2;
    yielded_[i] = ve.yielded ? 1 : 0;
  });

  // Project to quadrature points (Eq. 12-13).
  project_to_quadrature(mesh, points, eta_p, eta_q_, kFallbackEta, engine);
  project_to_quadrature(mesh, points, rho_p, rho_q_, kFallbackRho, engine);

  u_.copy_from(u);
  p_.copy_from(p);
  held_ = true;
}

void PointEvaluation::update(const StructuredMesh& mesh,
                             const MaterialTable& materials,
                             const MaterialPoints& points, const Vector& u,
                             const Vector& p, const Vector* temperature,
                             bool newton_terms, const SubdomainEngine* engine,
                             QuadCoefficients& coeff) {
  PT_ASSERT(coeff.num_elements() == mesh.num_elements());
  if (!holds(u, p))
    evaluate(mesh, materials, points, u, p, temperature, engine);

  std::vector<Real> deta_q;
  std::vector<StrainRateSample> sr;
  if (newton_terms) {
    project_to_quadrature(mesh, points, deta_p_, deta_q, 0.0, engine);
    if (!coeff.has_newton()) coeff.allocate_newton();
    // D0 sampled directly at quadrature points from the current velocity.
    evaluate_strain_rates(mesh, u, sr);
  }

  parallel_for(mesh.num_elements(), [&](Index e) {
    for (int q = 0; q < kQuadPerEl; ++q) {
      coeff.eta(e, q) = eta_q_[e * kQuadPerEl + q];
      coeff.rho(e, q) = rho_q_[e * kQuadPerEl + q];
      if (newton_terms) {
        coeff.deta(e, q) = deta_q[e * kQuadPerEl + q];
        const auto& s = sr[e * kQuadPerEl + q];
        for (int t = 0; t < kSymSize; ++t) coeff.d0(e, q)[t] = s.d[t];
      }
    }
  });
}

Index PointEvaluation::accumulate_plastic_strain(const Vector& u,
                                                 const Vector& p, Real dt,
                                                 MaterialPoints& points) const {
  PT_ASSERT_MSG(holds(u, p),
                "plastic strain needs the point evaluation of the solution");
  const Index n = points.size();
  PT_ASSERT(Index(yielded_.size()) == n);
  parallel_for(n, [&](Index i) {
    if (yielded_[i])
      points.plastic_strain(i) = pt_muladd(
          std::sqrt(std::max(j2_p_[i], Real(0))), dt, points.plastic_strain(i));
  });
  Index count = 0;
  for (Index i = 0; i < n; ++i) count += yielded_[i];
  return count;
}

} // namespace ptatin
