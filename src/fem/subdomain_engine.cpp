#include "fem/subdomain_engine.hpp"

#include <map>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptatin {

SubdomainEngine::SubdomainEngine(const StructuredMesh& mesh,
                                 const Decomposition& decomp)
    : decomp_(decomp) {
  PT_ASSERT_MSG(decomp_.mx() == mesh.mx() && decomp_.my() == mesh.my() &&
                    decomp_.mz() == mesh.mz(),
                "decomposition was built for a different mesh");
  build(mesh);
  auto& m = obs::MetricsRegistry::instance();
  c_applies_ = &m.counter("decomp.applies");
  c_sent_ = &m.counter("decomp.halo_bytes_sent");
  c_recv_ = &m.counter("decomp.halo_bytes_received");
}

SubdomainEngine::SubdomainEngine(const StructuredMesh& mesh, Index px,
                                 Index py, Index pz)
    : SubdomainEngine(mesh, Decomposition::create(mesh, px, py, pz)) {}

namespace {

/// Per-direction ownership of a structured lattice with `ppe` points per
/// element (2 for the Q2 node lattice, 1 for the Q1 vertex lattice). Owned
/// is half-open from the low side; the last dir-rank also owns the global
/// top plane. Touched = every point an owned element reaches.
struct AxisSpan {
  Index own_lo, own_hi; ///< owned [own_lo, own_hi)
  Index t_lo, t_hi;     ///< touched [t_lo, t_hi)
};

AxisSpan axis_span(const std::vector<Index>& splits, Index r, Index p,
                   Index ppe) {
  AxisSpan a;
  a.own_lo = ppe * splits[r];
  a.own_hi = ppe * splits[r + 1] + (r == p - 1 ? 1 : 0);
  a.t_lo = a.own_lo;
  a.t_hi = ppe * splits[r + 1] + 1;
  return a;
}

} // namespace

void SubdomainEngine::build_plan(const StructuredMesh& mesh, Index rank,
                                 Lattice which, Plan& plan) const {
  const Index ppe = which == kNodeLattice ? 2 : 1;
  const auto [ri, rj, rk] = decomp_.dir_indices(rank);
  const AxisSpan sx = axis_span(decomp_.splits_x(), ri, decomp_.px(), ppe);
  const AxisSpan sy = axis_span(decomp_.splits_y(), rj, decomp_.py(), ppe);
  const AxisSpan sz = axis_span(decomp_.splits_z(), rk, decomp_.pz(), ppe);

  auto point_index = [&](Index i, Index j, Index k) {
    return which == kNodeLattice ? mesh.node_index(i, j, k)
                                 : mesh.vertex_index(i, j, k);
  };

  // Ghost planes sit at own_hi in each non-top direction; the owner of a
  // ghost point is the neighbor one step "up" in every direction where the
  // point lies on that plane.
  std::map<Index, std::vector<Index>> ghost_by_owner;
  for (Index k = sz.t_lo; k < sz.t_hi; ++k)
    for (Index j = sy.t_lo; j < sy.t_hi; ++j)
      for (Index i = sx.t_lo; i < sx.t_hi; ++i) {
        const Index id = point_index(i, j, k);
        plan.touched.push_back(id);
        const bool gx = i >= sx.own_hi, gy = j >= sy.own_hi,
                   gz = k >= sz.own_hi;
        if (!gx && !gy && !gz) {
          plan.owned.push_back(id);
        } else {
          const Index owner = decomp_.rank_at(ri + (gx ? 1 : 0),
                                              rj + (gy ? 1 : 0),
                                              rk + (gz ? 1 : 0));
          ghost_by_owner[owner].push_back(id);
        }
      }
  for (auto& [nbr, ids] : ghost_by_owner)
    plan.send.push_back(Link{nbr, std::move(ids)});
}

void SubdomainEngine::build(const StructuredMesh& mesh) {
  const Index S = decomp_.num_ranks();
  subs_.resize(S);
  node_buf_.resize(S);
  vert_buf_.resize(S);

  for (Index s = 0; s < S; ++s) {
    Sub& sub = subs_[s];
    const Subdomain& box = decomp_.subdomain(s);
    const auto [ri, rj, rk] = decomp_.dir_indices(s);
    // An element on the high face of a non-top direction reaches ghost
    // lattice points (its top node/vertex plane) — halo-boundary class.
    const bool topx = ri == decomp_.px() - 1, topy = rj == decomp_.py() - 1,
               topz = rk == decomp_.pz() - 1;
    for (Index ek = box.elo[2]; ek < box.ehi[2]; ++ek)
      for (Index ej = box.elo[1]; ej < box.ehi[1]; ++ej)
        for (Index ei = box.elo[0]; ei < box.ehi[0]; ++ei) {
          const bool bnd = (!topx && ei == box.ehi[0] - 1) ||
                           (!topy && ej == box.ehi[1] - 1) ||
                           (!topz && ek == box.ehi[2] - 1);
          (bnd ? sub.boundary : sub.interior)
              .push_back(mesh.element_index(ei, ej, ek));
        }
    interior_total_ += static_cast<Index>(sub.interior.size());
    boundary_total_ += static_cast<Index>(sub.boundary.size());

    build_plan(mesh, s, kNodeLattice, sub.node);
    build_plan(mesh, s, kVertexLattice, sub.vert);
  }

  // Receive lists: invert the send links; ascending src gives the fixed
  // accumulation order.
  for (Index src = 0; src < S; ++src)
    for (Lattice which : {kNodeLattice, kVertexLattice}) {
      const Plan& sp = plan_of(subs_[src], which);
      for (std::size_t li = 0; li < sp.send.size(); ++li) {
        Sub& dst = subs_[sp.send[li].nbr];
        Plan& dp = which == kNodeLattice ? dst.node : dst.vert;
        dp.recv.push_back(Recv{src, static_cast<Index>(li)});
        const Index n = static_cast<Index>(sp.send[li].ids.size());
        (which == kNodeLattice ? node_halo_points_ : vert_halo_points_) += n;
      }
    }
}

void SubdomainEngine::ensure_capacity(Lattice which, int ncomp) const {
  int& cur = which == kNodeLattice ? node_ncomp_ : vert_ncomp_;
  if (ncomp <= cur) return;
  std::vector<Buffers>& bufs = which == kNodeLattice ? node_buf_ : vert_buf_;
  for (Index s = 0; s < num_subdomains(); ++s) {
    const Plan& plan = plan_of(subs_[s], which);
    Buffers& buf = bufs[s];
    // Full-length scratch: per-element kernels scatter through global
    // lattice ids unchanged (the memory cost of the shared-memory MPI
    // substitution; only the touched entries are ever read or written).
    Index max_id = 0;
    for (Index id : plan.touched) max_id = id > max_id ? id : max_id;
    buf.scratch.assign(static_cast<std::size_t>(ncomp) * (max_id + 1), 0.0);
    buf.send.resize(plan.send.size());
    for (std::size_t li = 0; li < plan.send.size(); ++li)
      buf.send[li].assign(
          static_cast<std::size_t>(ncomp) * plan.send[li].ids.size(), 0.0);
  }
  cur = ncomp;
}

void SubdomainEngine::note_apply(Lattice which, int ncomp) const {
  const Index pts =
      which == kNodeLattice ? node_halo_points_ : vert_halo_points_;
  const long long bytes =
      static_cast<long long>(pts) * ncomp * static_cast<long long>(sizeof(Real));
  applies_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  bytes_recv_.fetch_add(bytes, std::memory_order_relaxed);
  c_applies_->inc();
  c_sent_->inc(bytes);
  c_recv_->inc(bytes);
}

DecompStats SubdomainEngine::stats() const {
  DecompStats s;
  s.px = decomp_.px();
  s.py = decomp_.py();
  s.pz = decomp_.pz();
  s.applies = applies_.load(std::memory_order_relaxed);
  s.halo_bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.halo_bytes_received = bytes_recv_.load(std::memory_order_relaxed);
  s.exchange_seconds = exchange_ns_.load(std::memory_order_relaxed) * 1e-9;
  s.interior_seconds = interior_ns_.load(std::memory_order_relaxed) * 1e-9;
  s.boundary_seconds = boundary_ns_.load(std::memory_order_relaxed) * 1e-9;
  s.interior_elements = interior_total_;
  s.boundary_elements = boundary_total_;
  return s;
}

void SubdomainEngine::reset_stats() {
  applies_.store(0, std::memory_order_relaxed);
  bytes_sent_.store(0, std::memory_order_relaxed);
  bytes_recv_.store(0, std::memory_order_relaxed);
  exchange_ns_.store(0, std::memory_order_relaxed);
  interior_ns_.store(0, std::memory_order_relaxed);
  boundary_ns_.store(0, std::memory_order_relaxed);
}

} // namespace ptatin
