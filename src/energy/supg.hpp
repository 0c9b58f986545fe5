// Energy equation (§V-A, Eq. 20):
//
//   dT/dt + u . grad T = div(kappa grad T)
//
// discretized with Q1 finite elements on the corner-vertex mesh, stabilized
// with SUPG, and stepped with backward Euler:
//
//   (M/dt + K + C(u)) T^{n+1} = M/dt T^n
//
// The SUPG test function w + tau u.grad w multiplies the advective and
// temporal terms; tau uses the classical coth rule
// tau = h/(2|u|) (coth(Pe) - 1/Pe), Pe = |u| h / (2 kappa).
#pragma once

#include "fem/bc.hpp"
#include "fem/mesh.hpp"
#include "ksp/settings.hpp"
#include "la/csr.hpp"
#include "la/vector.hpp"

namespace ptatin {

/// Dirichlet data on the vertex (temperature) space.
class VertexBc {
public:
  VertexBc() = default;
  explicit VertexBc(Index n) : mask_(n, 0), values_(n, 0.0) {}
  void constrain(Index v, Real value) {
    mask_[v] = 1;
    values_[v] = value;
  }
  bool is_constrained(Index v) const { return mask_[v] != 0; }
  Real value(Index v) const { return values_[v]; }
  Index size() const { return static_cast<Index>(mask_.size()); }

private:
  std::vector<std::uint8_t> mask_;
  std::vector<Real> values_;
};

struct EnergySolveStats {
  SolveStats linear;
  Real tau_max = 0.0; ///< largest SUPG stabilization parameter used
};

class EnergySolver {
public:
  /// kappa: thermal diffusivity (constant).
  EnergySolver(const StructuredMesh& mesh, Real kappa);

  /// Advance T (vertex field) by one backward-Euler step with the Q2
  /// velocity field u. The system matrix is reassembled (mesh and velocity
  /// change every time step in ALE runs).
  EnergySolveStats step(const Vector& u, Real dt, const VertexBc& bc,
                        Vector& T) const;

  /// The backward-Euler system step() solves: A on the closed-form vertex
  /// lattice pattern (fem/lattice_pattern.hpp), Dirichlet rows replaced by
  /// identity rows and their values. Returns the largest SUPG tau.
  Real assemble(const Vector& u, Real dt, const VertexBc& bc, const Vector& T,
                CsrMatrix& A, Vector& rhs) const;

  /// Element matrix and load vector of element e, rows and columns in the
  /// corner order of element_corner_vertices. Returns the element's largest
  /// SUPG tau.
  Real element_system(const Vector& u, Real dt, const Vector& T, Index e,
                      Real Ae[kQ1NodesPerEl][kQ1NodesPerEl],
                      Real be[kQ1NodesPerEl]) const;

  Index num_dofs() const { return mesh_.num_vertices(); }

  /// Enable the Krylov SDC sentinel on the internal GMRES solve
  /// (docs/ROBUSTNESS.md): cross-check the Arnoldi recurrence against the
  /// recomputed true residual every `every` iterations (0 = off).
  void set_sentinel(int every, Real tol) {
    sentinel_every_ = every;
    sentinel_tol_ = tol;
  }

private:
  const StructuredMesh& mesh_;
  Real kappa_;
  int sentinel_every_ = 0;
  Real sentinel_tol_ = 1e-6;
};

} // namespace ptatin
