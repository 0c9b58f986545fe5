#include "fem/bc.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace ptatin {

void DirichletBc::constrain(Index dof, Real value) {
  PT_DEBUG_ASSERT(dof >= 0 && dof < num_dofs());
  if (!mask_[dof]) {
    mask_[dof] = 1;
    ++num_constrained_;
    dof_list_valid_ = false;
  }
  values_[dof] = value;
}

void DirichletBc::zero_constrained(Vector& v) const {
  PT_ASSERT(v.size() == num_dofs());
  Real* p = v.data();
  parallel_for(num_dofs(), [&](Index i) {
    if (mask_[i]) p[i] = 0.0;
  });
}

void DirichletBc::set_values(Vector& v) const {
  PT_ASSERT(v.size() == num_dofs());
  Real* p = v.data();
  parallel_for(num_dofs(), [&](Index i) {
    if (mask_[i]) p[i] = values_[i];
  });
}

void DirichletBc::copy_constrained(const Vector& x, Vector& y) const {
  PT_ASSERT(x.size() == num_dofs() && y.size() == num_dofs());
  const Real* xp = x.data();
  Real* yp = y.data();
  parallel_for(num_dofs(), [&](Index i) {
    if (mask_[i]) yp[i] = xp[i];
  });
}

Vector DirichletBc::lifting() const {
  Vector g(num_dofs(), 0.0);
  set_values(g);
  return g;
}

void DirichletBc::apply_to_matrix_symmetric(CsrMatrix& a) const {
  PT_ASSERT(a.rows() == num_dofs() && a.cols() == num_dofs());
  // Zero rows and columns of constrained dofs; unit diagonal.
  parallel_for(a.rows(), [&](Index i) {
    const bool row_bc = mask_[i] != 0;
    for (Index k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const Index j = a.col_idx()[k];
      if (row_bc || mask_[j]) {
        a.values()[k] = (i == j && row_bc) ? 1.0 : 0.0;
      }
    }
  });
}

const std::vector<Index>& DirichletBc::constrained_dofs() const {
  if (!dof_list_valid_) {
    dof_list_.clear();
    dof_list_.reserve(num_constrained_);
    for (Index i = 0; i < num_dofs(); ++i)
      if (mask_[i]) dof_list_.push_back(i);
    dof_list_valid_ = true;
  }
  return dof_list_;
}

void constrain_face_component(const StructuredMesh& mesh, MeshFace face,
                              int component, Real value, DirichletBc& bc) {
  PT_ASSERT(bc.num_dofs() == num_velocity_dofs(mesh));
  const Index nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
  auto constrain_node = [&](Index i, Index j, Index k) {
    bc.constrain(velocity_dof(mesh.node_index(i, j, k), component), value);
  };
  switch (face) {
    case MeshFace::kXMin:
      for (Index k = 0; k < nz; ++k)
        for (Index j = 0; j < ny; ++j) constrain_node(0, j, k);
      break;
    case MeshFace::kXMax:
      for (Index k = 0; k < nz; ++k)
        for (Index j = 0; j < ny; ++j) constrain_node(nx - 1, j, k);
      break;
    case MeshFace::kYMin:
      for (Index k = 0; k < nz; ++k)
        for (Index i = 0; i < nx; ++i) constrain_node(i, 0, k);
      break;
    case MeshFace::kYMax:
      for (Index k = 0; k < nz; ++k)
        for (Index i = 0; i < nx; ++i) constrain_node(i, ny - 1, k);
      break;
    case MeshFace::kZMin:
      for (Index j = 0; j < ny; ++j)
        for (Index i = 0; i < nx; ++i) constrain_node(i, j, 0);
      break;
    case MeshFace::kZMax:
      for (Index j = 0; j < ny; ++j)
        for (Index i = 0; i < nx; ++i) constrain_node(i, j, nz - 1);
      break;
  }
}

DirichletBc sinker_boundary_conditions(const StructuredMesh& mesh,
                                       MeshFace top) {
  DirichletBc bc(num_velocity_dofs(mesh));
  for (MeshFace f : {MeshFace::kXMin, MeshFace::kXMax, MeshFace::kYMin,
                     MeshFace::kYMax, MeshFace::kZMin, MeshFace::kZMax}) {
    if (f == top) continue; // free surface: natural (zero traction)
    constrain_free_slip(mesh, f, bc);
  }
  return bc;
}

} // namespace ptatin
