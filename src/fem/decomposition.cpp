#include "fem/decomposition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ptatin {

namespace {
std::vector<Index> make_splits(Index m, Index p) {
  // Distribute m elements over p chunks, remainder spread from the front.
  std::vector<Index> s(p + 1, 0);
  const Index base = m / p, rem = m % p;
  for (Index i = 0; i < p; ++i) s[i + 1] = s[i] + base + (i < rem ? 1 : 0);
  return s;
}
} // namespace

Decomposition Decomposition::create(const StructuredMesh& mesh, Index px,
                                    Index py, Index pz) {
  PT_ASSERT(px >= 1 && py >= 1 && pz >= 1);
  PT_ASSERT_MSG(px <= mesh.mx() && py <= mesh.my() && pz <= mesh.mz(),
                "more subdomains than elements in some direction");
  Decomposition d;
  d.px_ = px;
  d.py_ = py;
  d.pz_ = pz;
  d.mx_ = mesh.mx();
  d.my_ = mesh.my();
  d.mz_ = mesh.mz();
  d.splits_x_ = make_splits(mesh.mx(), px);
  d.splits_y_ = make_splits(mesh.my(), py);
  d.splits_z_ = make_splits(mesh.mz(), pz);

  d.subs_.resize(d.num_ranks());
  for (Index rk = 0; rk < pz; ++rk)
    for (Index rj = 0; rj < py; ++rj)
      for (Index ri = 0; ri < px; ++ri) {
        Subdomain& s = d.subs_[d.rank_at(ri, rj, rk)];
        s.elo = {d.splits_x_[ri], d.splits_y_[rj], d.splits_z_[rk]};
        s.ehi = {d.splits_x_[ri + 1], d.splits_y_[rj + 1], d.splits_z_[rk + 1]};
      }
  return d;
}

Index Decomposition::dir_rank(const std::vector<Index>& splits, Index e) const {
  // splits is sorted; find the chunk containing e.
  auto it = std::upper_bound(splits.begin(), splits.end(), e);
  return static_cast<Index>(it - splits.begin()) - 1;
}

Index Decomposition::rank_of_element(const StructuredMesh& mesh,
                                     Index e) const {
  Index ei, ej, ek;
  mesh.element_ijk(e, ei, ej, ek);
  const Index ri = dir_rank(splits_x_, ei);
  const Index rj = dir_rank(splits_y_, ej);
  const Index rk = dir_rank(splits_z_, ek);
  return ri + px_ * (rj + py_ * rk);
}

} // namespace ptatin
