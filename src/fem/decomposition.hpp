// Subdomain decomposition of the structured element mesh.
//
// §II-D: "Parallelism is achieved by spatially decomposing the structured Q2
// finite element mesh containing M x N x P elements into structured
// subdomains". The MPI substitution (see DESIGN.md) keeps the rank-local
// element boxes and drives them from shared memory (fem/subdomain_engine).
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "fem/mesh.hpp"

namespace ptatin {

struct Subdomain {
  /// Owned element box [elo, ehi) per direction.
  std::array<Index, 3> elo{0, 0, 0};
  std::array<Index, 3> ehi{0, 0, 0};
};

class Decomposition {
public:
  Decomposition() = default;

  /// Split the mesh into a px x py x pz grid of box subdomains with element
  /// counts as even as possible.
  static Decomposition create(const StructuredMesh& mesh, Index px, Index py,
                              Index pz);

  Index num_ranks() const { return px_ * py_ * pz_; }
  Index px() const { return px_; }
  Index py() const { return py_; }
  Index pz() const { return pz_; }
  Index mx() const { return mx_; }
  Index my() const { return my_; }
  Index mz() const { return mz_; }

  /// Partition boundaries per direction (size p + 1; dir-rank r owns element
  /// slabs [splits[r], splits[r+1])). The subdomain engine derives its node/
  /// vertex halo planes from these.
  const std::vector<Index>& splits_x() const { return splits_x_; }
  const std::vector<Index>& splits_y() const { return splits_y_; }
  const std::vector<Index>& splits_z() const { return splits_z_; }

  /// Rank of the subdomain at grid position (ri, rj, rk).
  Index rank_at(Index ri, Index rj, Index rk) const {
    return ri + px_ * (rj + py_ * rk);
  }
  /// Inverse of rank_at.
  std::array<Index, 3> dir_indices(Index rank) const {
    return {rank % px_, (rank / px_) % py_, rank / (px_ * py_)};
  }

  const Subdomain& subdomain(Index rank) const { return subs_[rank]; }

  /// Owning rank of element e.
  Index rank_of_element(const StructuredMesh& mesh, Index e) const;

private:
  Index px_ = 1, py_ = 1, pz_ = 1;
  Index mx_ = 0, my_ = 0, mz_ = 0;
  /// Partition boundaries per direction (size p + 1 each).
  std::vector<Index> splits_x_, splits_y_, splits_z_;
  std::vector<Subdomain> subs_;

  Index dir_rank(const std::vector<Index>& splits, Index e) const;
};

} // namespace ptatin
