// Dirichlet boundary conditions on the velocity space.
//
// Matrix-free operators cannot delete rows/columns, so constraints are
// enforced by masking: the operator acts on the homogeneous subspace and is
// the identity on constrained dofs (assembled matrices get the equivalent
// zero-row/column + unit-diagonal treatment). Inhomogeneous values enter
// through lifting of the right-hand side.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "fem/dofmap.hpp"
#include "fem/mesh.hpp"
#include "la/csr.hpp"
#include "la/vector.hpp"

namespace ptatin {

enum class MeshFace { kXMin, kXMax, kYMin, kYMax, kZMin, kZMax };

class DirichletBc {
public:
  DirichletBc() = default;
  explicit DirichletBc(Index num_dofs) : mask_(num_dofs, 0), values_(num_dofs, 0.0) {}

  Index num_dofs() const { return static_cast<Index>(mask_.size()); }

  /// Constrain a dof to a value (later calls override earlier ones).
  void constrain(Index dof, Real value);

  bool is_constrained(Index dof) const { return mask_[dof] != 0; }
  Index num_constrained() const { return num_constrained_; }

  /// v[dof] <- 0 for all constrained dofs.
  void zero_constrained(Vector& v) const;
  /// v[dof] <- boundary value for all constrained dofs.
  void set_values(Vector& v) const;
  /// y[dof] <- x[dof] for all constrained dofs (identity block of the
  /// masked operator).
  void copy_constrained(const Vector& x, Vector& y) const;

  /// Vector g with boundary values at constrained dofs and 0 elsewhere
  /// (the lifting vector).
  Vector lifting() const;

  /// Symmetrically impose the constraints on an assembled matrix: zero the
  /// constrained rows and columns and place 1 on the diagonal.
  void apply_to_matrix_symmetric(CsrMatrix& a) const;

  const std::vector<Index>& constrained_dofs() const;

private:
  std::vector<std::uint8_t> mask_;
  std::vector<Real> values_;
  Index num_constrained_ = 0;
  mutable std::vector<Index> dof_list_; ///< lazily built sorted list
  mutable bool dof_list_valid_ = false;
};

/// Constrain one velocity component to `value` on all nodes of a mesh face.
void constrain_face_component(const StructuredMesh& mesh, MeshFace face,
                              int component, Real value, DirichletBc& bc);

/// Free-slip (zero normal velocity) on a face.
inline void constrain_free_slip(const StructuredMesh& mesh, MeshFace face,
                                DirichletBc& bc) {
  const int normal = static_cast<int>(face) / 2;
  constrain_face_component(mesh, face, normal, 0.0, bc);
}

/// No-slip (all components zero) on a face.
inline void constrain_no_slip(const StructuredMesh& mesh, MeshFace face,
                              DirichletBc& bc) {
  for (int c = 0; c < 3; ++c) constrain_face_component(mesh, face, c, 0.0, bc);
}

/// The §IV-A sinker configuration: free-slip on every face except the free
/// surface `top`.
DirichletBc sinker_boundary_conditions(const StructuredMesh& mesh,
                                       MeshFace top = MeshFace::kZMax);

} // namespace ptatin
