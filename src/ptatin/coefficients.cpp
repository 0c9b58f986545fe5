#include "ptatin/coefficients.hpp"

#include "common/parallel.hpp"
#include "mpm/projection.hpp"
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

} // namespace

Real update_coefficients_from_points(
    const StructuredMesh& mesh, const MaterialTable& materials,
    const MaterialPoints& points, const Vector& u, const Vector& p,
    const Vector* temperature, bool newton_terms,
    const CoefficientPipelineOptions& opts, QuadCoefficients& coeff) {
  PT_ASSERT(coeff.num_elements() == mesh.num_elements());
  const Index n = points.size();

  std::vector<Real> eta_p(n, kFallbackEta);
  std::vector<Real> rho_p(n, kFallbackRho);
  std::vector<Real> deta_p(newton_terms ? n : 0, 0.0);
  std::vector<std::uint8_t> yielded(n, 0);

  parallel_for(n, [&](Index i) {
    if (points.element(i) < 0) return;
    const RheologyState st =
        point_state(mesh, u, p, temperature, points, i);
    const FlowLaw& law = materials.law(points.lithology(i));
    const ViscosityEval ve = law.viscosity(st);
    eta_p[i] = ve.eta;
    rho_p[i] = law.density(st);
    if (newton_terms) deta_p[i] = ve.deta_dj2;
    yielded[i] = ve.yielded ? 1 : 0;
  });

  // Project to quadrature points (Eq. 12-13).
  std::vector<Real> eta_q, rho_q, deta_q;
  project_to_quadrature(mesh, points, eta_p, eta_q, kFallbackEta,
                        opts.decomp);
  project_to_quadrature(mesh, points, rho_p, rho_q, kFallbackRho,
                        opts.decomp);
  if (newton_terms)
    project_to_quadrature(mesh, points, deta_p, deta_q, 0.0, opts.decomp);

  if (newton_terms && !coeff.has_newton()) coeff.allocate_newton();

  // D0 sampled directly at quadrature points from the current velocity.
  std::vector<StrainRateSample> sr;
  if (newton_terms) evaluate_strain_rates(mesh, u, sr);

  parallel_for(mesh.num_elements(), [&](Index e) {
    for (int q = 0; q < kQuadPerEl; ++q) {
      coeff.eta(e, q) = eta_q[e * kQuadPerEl + q];
      coeff.rho(e, q) = rho_q[e * kQuadPerEl + q];
      if (newton_terms) {
        coeff.deta(e, q) = deta_q[e * kQuadPerEl + q];
        const auto& s = sr[e * kQuadPerEl + q];
        for (int t = 0; t < kSymSize; ++t) coeff.d0(e, q)[t] = s.d[t];
      }
    }
  });

  Real yield_count = 0;
  for (Index i = 0; i < n; ++i) yield_count += yielded[i];
  return n > 0 ? yield_count / Real(n) : 0.0;
}

Index accumulate_plastic_strain(const StructuredMesh& mesh,
                                const MaterialTable& materials,
                                const Vector& u, const Vector& p,
                                const Vector* temperature, Real dt,
                                MaterialPoints& points) {
  const Index n = points.size();
  std::vector<std::uint8_t> hit(n, 0);
  parallel_for(n, [&](Index i) {
    if (points.element(i) < 0) return;
    const RheologyState st =
        point_state(mesh, u, p, temperature, points, i);
    const FlowLaw& law = materials.law(points.lithology(i));
    if (law.viscosity(st).yielded) {
      points.plastic_strain(i) += std::sqrt(std::max(st.j2, Real(0))) * dt;
      hit[i] = 1;
    }
  });
  Index count = 0;
  for (Index i = 0; i < n; ++i) count += hit[i];
  return count;
}

} // namespace ptatin
