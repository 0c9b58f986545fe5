// Base-class masking logic and matrix-free diagonal extraction.
#include "stokes/viscous_ops.hpp"

namespace ptatin {

void ViscousOperatorBase::apply(const Vector& x, Vector& y,
                                bool newton) const {
  PT_ASSERT(x.size() == rows());
  PT_ASSERT_MSG(!newton || coeff_.has_newton(),
                "Newton term requires allocated Newton coefficients");
  if (y.size() != rows()) y.resize(rows());
  if (bc_ == nullptr || bc_->num_constrained() == 0) {
    apply_unmasked(x, y, newton);
    return;
  }
  apply_unmasked(masked_velocity(x), y, newton);
  // Constrained rows: identity (overwrites any couplings into those rows).
  bc_->copy_constrained(x, y);
}

const Vector& ViscousOperatorBase::masked_velocity(const Vector& x) const {
  const Index n = rows();
  PT_ASSERT(bc_ != nullptr && x.size() >= n);
  if (work_.size() != n) work_.resize(n);
  const Real* xp = x.data();
  Real* wp = work_.data();
  parallel_for(n, [&](Index i) {
    wp[i] = bc_->is_constrained(i) ? Real(0) : xp[i];
  });
  return work_;
}

Vector ViscousOperatorBase::diagonal() const {
  Vector d = compute_viscous_diagonal(mesh_, coeff_);
  if (bc_ != nullptr) {
    Real* p = d.data();
    parallel_for(d.size(), [&](Index i) {
      if (bc_->is_constrained(i)) p[i] = 1.0;
    });
  }
  return d;
}

Vector compute_viscous_diagonal(const StructuredMesh& mesh,
                                const QuadCoefficients& coeff) {
  const auto& tab = q2_tabulation();
  Vector diag(num_velocity_dofs(mesh), 0.0);
  Real* dp = diag.data();

  for_each_element_colored(mesh, [&](Index e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    Index nodes[kQ2NodesPerEl];
    mesh.element_nodes(e, nodes);

    Real contrib[kQ2NodesPerEl][3] = {};
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real scale = g.wdetj[q] * coeff.eta(e, q);
      const Mat3& ga = g.gamma[q];
      for (int i = 0; i < kQ2NodesPerEl; ++i) {
        // Physical gradient of basis i: gi_r = sum_d dN[i][d] gamma[d][r].
        Real gi[3];
        for (int r = 0; r < 3; ++r)
          gi[r] = tab.dN[q][i][0] * ga[3 * 0 + r] +
                  tab.dN[q][i][1] * ga[3 * 1 + r] +
                  tab.dN[q][i][2] * ga[3 * 2 + r];
        const Real g2 = gi[0] * gi[0] + gi[1] * gi[1] + gi[2] * gi[2];
        for (int c = 0; c < 3; ++c)
          contrib[i][c] += scale * (g2 + gi[c] * gi[c]);
      }
    }
    for (int i = 0; i < kQ2NodesPerEl; ++i)
      for (int c = 0; c < 3; ++c)
        dp[velocity_dof(nodes[i], c)] += contrib[i][c];
  });
  return diag;
}

} // namespace ptatin
