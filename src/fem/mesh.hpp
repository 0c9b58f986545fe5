// Structured deformed-hexahedral mesh: the DMDA analogue.
//
// §III-C: "Structured meshes with an IJK topology are employed in this work,
// however nodal coordinates are not required to be parallel to the x,y,z
// coordinate system. We utilize nodally nested mesh hierarchies, thereby
// allowing the geometry (node coordinates) of the coarse mesh to be trivially
// defined via injection."
//
// The mesh stores the Q2 node lattice ((2mx+1) x (2my+1) x (2mz+1) nodes).
// Element geometry is trilinear, defined by each element's 8 corner vertices
// (the even-parity nodes) — consistent with the paper's data-motion count of
// 8*3 coordinate scalars per element (§III-D).
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/small_mat.hpp"
#include "common/types.hpp"

namespace ptatin {

class StructuredMesh {
public:
  StructuredMesh() = default;

  /// Axis-aligned box [lo, hi] with mx x my x mz Q2 elements.
  static StructuredMesh box(Index mx, Index my, Index mz, const Vec3& lo,
                            const Vec3& hi);

  // --- sizes ---------------------------------------------------------------
  Index mx() const { return mx_; }
  Index my() const { return my_; }
  Index mz() const { return mz_; }
  Index num_elements() const { return mx_ * my_ * mz_; }

  Index nx() const { return 2 * mx_ + 1; } ///< Q2 nodes in x
  Index ny() const { return 2 * my_ + 1; }
  Index nz() const { return 2 * mz_ + 1; }
  Index num_nodes() const { return nx() * ny() * nz(); }

  /// Corner-vertex lattice (the Q1 projection / energy mesh, §II-C).
  Index vx() const { return mx_ + 1; }
  Index vy() const { return my_ + 1; }
  Index vz() const { return mz_ + 1; }
  Index num_vertices() const { return vx() * vy() * vz(); }

  // --- indexing ------------------------------------------------------------
  Index node_index(Index i, Index j, Index k) const {
    PT_DEBUG_ASSERT(i >= 0 && i < nx() && j >= 0 && j < ny() && k >= 0 && k < nz());
    return i + nx() * (j + ny() * k);
  }
  Index element_index(Index ei, Index ej, Index ek) const {
    PT_DEBUG_ASSERT(ei >= 0 && ei < mx_ && ej >= 0 && ej < my_ && ek >= 0 && ek < mz_);
    return ei + mx_ * (ej + my_ * ek);
  }
  void element_ijk(Index e, Index& ei, Index& ej, Index& ek) const {
    ei = e % mx_;
    ej = (e / mx_) % my_;
    ek = e / (mx_ * my_);
  }
  /// Vertex lattice index -> Q2 node index (vertices are the even nodes).
  Index vertex_to_node(Index vi, Index vj, Index vk) const {
    return node_index(2 * vi, 2 * vj, 2 * vk);
  }
  Index vertex_index(Index vi, Index vj, Index vk) const {
    return vi + vx() * (vj + vy() * vk);
  }

  /// The 27 Q2 node indices of element e (local ordering a + 3b + 9c).
  void element_nodes(Index e, Index out[kQ2NodesPerEl]) const;

  /// The 8 corner-vertex NODE indices of element e (local ordering a+2b+4c).
  void element_corners(Index e, Index out[kQ1NodesPerEl]) const;

  /// The 8 corner VERTEX-lattice indices of element e.
  void element_corner_vertices(Index e, Index out[kQ1NodesPerEl]) const;

  // --- geometry --------------------------------------------------------------
  const std::vector<Real>& coords() const { return coords_; }
  std::vector<Real>& coords() { return coords_; }
  Vec3 node_coord(Index n) const {
    return Vec3{coords_[3 * n], coords_[3 * n + 1], coords_[3 * n + 2]};
  }
  void set_node_coord(Index n, const Vec3& x) {
    coords_[3 * n] = x[0];
    coords_[3 * n + 1] = x[1];
    coords_[3 * n + 2] = x[2];
  }

  /// Gather the 8 corner coordinates of element e (24 scalars, xyz per node).
  void element_corner_coords(Index e, Real xe[kQ1NodesPerEl][3]) const;

  /// Apply a smooth deformation x -> f(x) to all node coordinates.
  void deform(const std::function<Vec3(const Vec3&)>& f);

  /// Trilinear geometry map: reference xi in [-1,1]^3 of element e -> x.
  Vec3 map_to_physical(Index e, const Vec3& xi) const;

  /// Coarsen by node injection (requires even mx, my, mz). The coarse mesh
  /// keeps every second node in each direction — the paper's nodally nested
  /// hierarchy.
  StructuredMesh coarsen() const;

  bool can_coarsen() const {
    return mx_ % 2 == 0 && my_ % 2 == 0 && mz_ % 2 == 0 && mx_ >= 2 &&
           my_ >= 2 && mz_ >= 2;
  }

  /// Bounding box of element e (used for point-location initial guesses).
  void element_bbox(Index e, Vec3& lo, Vec3& hi) const;

  /// Total mesh volume from the quadrature of det J (used in tests).
  Real volume() const;

  /// Minimum det(dx/dxi) over the quadrature points of element e. A
  /// nonpositive value means the (ALE-deformed) element is inverted or
  /// degenerate — the health-check pass (src/ptatin/health.hpp) uses this to
  /// reject a mesh state before it is checkpointed or stepped further.
  Real element_min_jacobian(Index e) const;

private:
  Index mx_ = 0, my_ = 0, mz_ = 0;
  std::vector<Real> coords_; ///< 3 * num_nodes(), interleaved x,y,z
};

} // namespace ptatin
