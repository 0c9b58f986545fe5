// Stokes coupling blocks: discrete gradient B = J_up, divergence B^T = J_pu,
// the body-force right-hand side, and the viscosity-scaled pressure mass
// matrix used as the Schur complement preconditioner (§III-B).
#pragma once

#include <functional>
#include <vector>

#include "common/small_mat.hpp"
#include "fem/bc.hpp"
#include "fem/mesh.hpp"
#include "ksp/pc.hpp"
#include "la/csr.hpp"
#include "stokes/coefficient.hpp"

namespace ptatin {

class SubdomainEngine;

/// Element block of B for element e: rows in the local dof order of
/// element_velocity_dofs, columns the element's 4 pressure modes.
void gradient_element_matrix(const StructuredMesh& mesh, Index e,
                             Real Be[3 * kQ2NodesPerEl][kP1NodesPerEl]);

/// Assemble the gradient block B (nvel x npres):
/// B[(i,c)(e,k)] = -int_e psi_k dN_i/dx_c dV, so that the coupled system is
/// [A B; B^T 0][u p] = [f 0].
CsrMatrix assemble_gradient_block(const StructuredMesh& mesh);

/// B and, from the same element pass, the divergence block of the
/// Dirichlet-masked coupled operator: `bt_masked` is the transpose of B with
/// the rows of constrained velocity dofs zeroed. Pattern and value bits equal
/// those of zeroing the rows of a copy of B and transposing it.
void assemble_gradient_blocks(const StructuredMesh& mesh, const DirichletBc& bc,
                              CsrMatrix& b, CsrMatrix& bt_masked);

/// Gravitational body-force RHS of the system [A B; B^T 0][u p] = [f 0]:
/// f[(i,c)] = +int rho g_c N_i dV, so dense material sinks when g points
/// down. (The paper's Eq. 10 writes F(w) = -int f.w with its Eq. 1 sign
/// convention; the physical weak form used here absorbs that minus.)
Vector assemble_body_force(const StructuredMesh& mesh,
                           const QuadCoefficients& coeff, const Vec3& gravity);

/// Subdomain-parallel residual assembly: the same element kernel swept per
/// subdomain and halo-exchanged (docs/PARALLELISM.md). Falls back to the
/// global colored loop when `engine` is null.
Vector assemble_body_force(const StructuredMesh& mesh,
                           const QuadCoefficients& coeff, const Vec3& gravity,
                           const SubdomainEngine* engine);

/// Neumann traction term of Eq. 10: f[(i,c)] += int_Gamma t_c(x) N_i dS over
/// one mesh face (sigma.n = t on Gamma_N, Eq. 5). The surface uses the 3x3
/// Gauss rule with Q2 test functions and the bilinear face geometry.
Vector assemble_traction_force(const StructuredMesh& mesh, MeshFace face,
                               const std::function<Vec3(const Vec3&)>& traction);

/// General volumetric forcing f[(i,c)] = int f_c(x) N_i dV for an arbitrary
/// position-dependent body force (manufactured-solution verification).
Vector assemble_forcing(const StructuredMesh& mesh,
                        const std::function<Vec3(const Vec3&)>& force);

/// Viscosity-scaled pressure mass matrix, inverted element-block-wise:
/// M[(e,k)(e,l)] = int_e psi_k psi_l / eta dV. Since P1disc is discontinuous
/// the matrix is block-diagonal with 4x4 blocks; apply() performs the exact
/// block solve — the Schur complement preconditioner S~ of §III-B.
class PressureMassSchur : public Preconditioner {
public:
  PressureMassSchur(const StructuredMesh& mesh, const QuadCoefficients& coeff);

  /// z <- M^{-1} r (sign handled by the caller; M itself is SPD).
  void apply(const Vector& r, Vector& z) const override;

  /// y <- M x (forward product, used in tests).
  void mult(const Vector& x, Vector& y) const;

  Index size() const { return 4 * nel_; }

private:
  Index nel_ = 0;
  /// Per element: the 4x4 mass block and its inverse, row-major.
  std::vector<Real> blocks_;
  std::vector<Real> inv_blocks_;
};

} // namespace ptatin
