// Subdomain-parallel execution engine: §II-D executed, not just modeled.
//
// The paper decomposes the structured Q2 mesh into px x py x pz box
// subdomains and runs every rank's element sweep concurrently, exchanging
// ghost-layer contributions over MPI. This engine is the shared-memory
// substitution (DESIGN.md): each subdomain of a `Decomposition` gets its own
// element range (split into interior and halo-boundary elements), a private
// scratch slab for its touched lattice points, and an explicit in-memory
// halo-exchange step — pack -> exchange -> accumulate.
//
// Ownership rule. Lattice points (Q2 nodes or Q1 corner vertices) are owned
// half-open from the low side: on the node lattice, dir-rank r owns columns
// [2*splits[r], 2*splits[r+1]), with the last rank additionally owning the
// global top plane (on the vertex lattice the same with stride 1). Ghost
// points therefore exist ONLY on a subdomain's high faces/edges/corner — one
// plane per non-top direction — so each subdomain packs for at most 7 "upper"
// neighbors and receives from at most 7 "lower" ones.
//
// Protocol (two phases inside ONE parallel region, parallel_for_phased):
//   phase 0, per subdomain s:  zero s's touched scratch entries; compute the
//     halo-BOUNDARY elements first; pack their ghost contributions into s's
//     per-neighbor send buffers ("post the sends"); then compute the INTERIOR
//     elements — the overlap: while s works its interior, the packed buffers
//     are already complete and other subdomains' packing proceeds in
//     parallel, so the exchange is in flight during interior compute.
//   barrier (the phase boundary orders all packs before all accumulates)
//   phase 1, per subdomain s:  write s's OWNED entries to the global output
//     (disjoint across subdomains — no races), then accumulate the received
//     buffers in ascending source-rank order.
//
// Determinism. Each subdomain's element sweep is sequential in a fixed
// (lexicographic, boundary-then-interior) order and the receive accumulation
// order is fixed, so for a FIXED decomposition shape the result is BITWISE
// reproducible at any thread count. Across different shapes the per-point
// accumulation order at subdomain interfaces differs, so results agree to
// rounding (<= 1e-12 relative; verified in tests/test_decomp_parallel.cpp)
// while Krylov iteration counts stay identical.
//
// The engine is not reentrant: concurrent apply_nodes/accumulate_vertices
// calls on one engine would race on the scratch slabs. Solver applies are
// serialized by the Krylov loop, so this never occurs in practice.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "common/timing.hpp"
#include "common/types.hpp"
#include "fem/decomposition.hpp"
#include "fem/mesh.hpp"

namespace ptatin {

namespace obs {
class Counter;
}

/// Snapshot of the engine's cumulative execution counters (feeds the
/// `decomposition` section of ptatin.solver_report/1 and the decomp.* obs
/// counters; docs/OBSERVABILITY.md).
struct DecompStats {
  Index px = 1, py = 1, pz = 1;
  long long applies = 0;              ///< exchange protocol executions
  long long halo_bytes_sent = 0;      ///< packed into send buffers
  long long halo_bytes_received = 0;  ///< accumulated from receive side
  double exchange_seconds = 0.0;      ///< pack + unpack/accumulate time
  double interior_seconds = 0.0;      ///< interior-element compute time
  double boundary_seconds = 0.0;      ///< halo-boundary element compute time
  Index interior_elements = 0;        ///< static split, whole mesh
  Index boundary_elements = 0;
};

class SubdomainEngine {
public:
  /// Build the halo plans for `decomp` over `mesh`. Both are copied/borrowed
  /// by value where needed; the engine only keeps lattice topology, so any
  /// mesh with the same element dimensions may be driven through it.
  SubdomainEngine(const StructuredMesh& mesh, const Decomposition& decomp);
  SubdomainEngine(const StructuredMesh& mesh, Index px, Index py, Index pz);

  const Decomposition& decomposition() const { return decomp_; }
  Index num_subdomains() const { return static_cast<Index>(subs_.size()); }
  Index mx() const { return decomp_.mx(); }
  Index my() const { return decomp_.my(); }
  Index mz() const { return decomp_.mz(); }

  Index num_interior_elements() const { return interior_total_; }
  Index num_boundary_elements() const { return boundary_total_; }
  /// Elements of one subdomain, lexicographic within each class.
  const std::vector<Index>& interior_elements(Index rank) const {
    return subs_[rank].interior;
  }
  const std::vector<Index>& boundary_elements(Index rank) const {
    return subs_[rank].boundary;
  }
  /// Q2-node lattice points this rank owns (3 velocity dofs each).
  const std::vector<Index>& owned_nodes(Index rank) const {
    return subs_[rank].node.owned;
  }
  /// Halo lattice points exchanged per protocol execution (node lattice).
  Index halo_points_per_exchange() const { return node_halo_points_; }

  /// Run the per-element kernel `fn(e, w)` over every element, subdomains in
  /// parallel, scattering into the ncomp-interleaved scratch slab `w`
  /// (w[ncomp*point + c]; for velocity ncomp = 3 this is exactly the
  /// velocity_dof layout), then halo-exchange into the full-length output
  /// `y`. `fn` may read any shared input (e.g. the global x vector). Lattice
  /// outputs it must write only through `w`; an output that belongs to
  /// element e alone (e.g. its P1disc pressure rows) it may write straight
  /// into a global array, since each element is visited once, by the one
  /// thread that runs its subdomain (the coupled Tens sweep does).
  template <class ElemFn>
  void apply_nodes(int ncomp, Real* y, ElemFn&& fn) const {
    run(kNodeLattice, ncomp, y,
        [&](Index s, Real* w) {
          for (Index e : subs_[s].boundary) fn(e, w);
        },
        [&](Index s, Real* w) {
          for (Index e : subs_[s].interior) fn(e, w);
        });
  }

  /// W-lane variant of apply_nodes: runs of W consecutive entries of each
  /// subdomain's boundary list, then of its interior list, go to
  /// `bfn(elems, w)` (elems points at W element ids); each list's remainder
  /// goes to `fn(e, w)`, all in list order. Consecutive entries share nodes,
  /// so `bfn` must scatter lane by lane (all of lane 0's element, then lane
  /// 1's, ...): every node then receives its contributions in the order
  /// apply_nodes adds them, and the result is bitwise apply_nodes'.
  template <int W, class BatchFn, class ElemFn>
  void apply_nodes_batched(int ncomp, Real* y, BatchFn&& bfn,
                           ElemFn&& fn) const {
    const auto sweep = [&](const std::vector<Index>& list, Real* w) {
      const std::size_t n = list.size(), nb = n - n % W;
      for (std::size_t i = 0; i < nb; i += W) bfn(list.data() + i, w);
      for (std::size_t i = nb; i < n; ++i) fn(list[i], w);
    };
    run(kNodeLattice, ncomp, y,
        [&](Index s, Real* w) { sweep(subs_[s].boundary, w); },
        [&](Index s, Real* w) { sweep(subs_[s].interior, w); });
  }

  /// Vertex-lattice (Q1 corners) variant for MPM projection: `fn(s, w)` does
  /// ALL of subdomain s's scatter work (material points do not split into
  /// interior/boundary classes), then the ghost vertex planes are exchanged
  /// into `y` (ncomp-interleaved over mesh.num_vertices() points).
  template <class SubFn>
  void accumulate_vertices(int ncomp, Real* y, SubFn&& fn) const {
    run(kVertexLattice, ncomp, y,
        [&](Index s, Real* w) { fn(s, w); },
        [](Index, Real*) {});
  }

  DecompStats stats() const;
  void reset_stats();

private:
  enum Lattice { kNodeLattice = 0, kVertexLattice = 1 };

  struct Link {
    Index nbr = 0;            ///< destination rank (always "upper")
    std::vector<Index> ids;   ///< ghost lattice points, ascending
  };
  struct Recv {
    Index src = 0;   ///< source rank (always "lower")
    Index link = 0;  ///< index into subs_[src].<plan>.send
  };
  struct Plan {
    std::vector<Index> touched; ///< lattice points any owned element reaches
    std::vector<Index> owned;   ///< points this rank writes to the output
    std::vector<Link> send;     ///< ascending nbr rank
    std::vector<Recv> recv;     ///< ascending src rank
  };
  struct Sub {
    std::vector<Index> interior, boundary; ///< element ids, lexicographic
    Plan node, vert;
  };
  struct Buffers {
    AlignedVector<Real> scratch;
    std::vector<AlignedVector<Real>> send; ///< one per Plan::send link
  };

  void build(const StructuredMesh& mesh);
  void build_plan(const StructuredMesh& mesh, Index rank, Lattice which,
                  Plan& plan) const;
  void ensure_capacity(Lattice which, int ncomp) const;
  void note_apply(Lattice which, int ncomp) const;

  const Plan& plan_of(const Sub& sub, Lattice which) const {
    return which == kNodeLattice ? sub.node : sub.vert;
  }

  void add_ns(std::atomic<long long>& a, double sec) const {
    a.fetch_add(static_cast<long long>(sec * 1e9),
                std::memory_order_relaxed);
  }

  /// The two-phase pack -> exchange -> accumulate protocol (header comment).
  template <class PrePack, class PostPack>
  void run(Lattice which, int ncomp, Real* y, PrePack&& pre,
           PostPack&& post) const {
    ensure_capacity(which, ncomp);
    std::vector<Buffers>& bufs =
        which == kNodeLattice ? node_buf_ : vert_buf_;
    const Index S = num_subdomains();
    parallel_for_phased(
        2, [S](int) { return S; },
        [&](int phase, Index s) {
          const Sub& sub = subs_[s];
          const Plan& plan = plan_of(sub, which);
          Buffers& buf = bufs[s];
          Real* w = buf.scratch.data();
          if (phase == 0) {
            for (Index id : plan.touched) {
              Real* p = w + id * ncomp;
              for (int c = 0; c < ncomp; ++c) p[c] = 0.0;
            }
            Timer tb;
            pre(s, w);
            const double bsec = tb.seconds();
            // Pack ("post the sends") BEFORE the interior sweep: once the
            // phase barrier passes, receivers drain these buffers — the
            // exchange is in flight while interior elements compute.
            Timer tp;
            for (std::size_t li = 0; li < plan.send.size(); ++li) {
              Real* sb = buf.send[li].data();
              std::size_t k = 0;
              for (Index id : plan.send[li].ids)
                for (int c = 0; c < ncomp; ++c) sb[k++] = w[id * ncomp + c];
            }
            const double psec = tp.seconds();
            Timer ti;
            post(s, w);
            add_ns(boundary_ns_, bsec);
            add_ns(exchange_ns_, psec);
            add_ns(interior_ns_, ti.seconds());
          } else {
            Timer tu;
            // Owned write-back: regions are disjoint across subdomains.
            for (Index id : plan.owned) {
              const Real* p = w + id * ncomp;
              Real* yp = y + id * ncomp;
              for (int c = 0; c < ncomp; ++c) yp[c] = p[c];
            }
            // Receive accumulation in ascending source-rank order (fixed —
            // part of the bitwise-per-shape determinism guarantee): read
            // each lower neighbor's packed send buffer directly.
            for (const Recv& r : plan.recv) {
              const Link& l = plan_of(subs_[r.src], which).send[r.link];
              const Real* sb = bufs[r.src].send[r.link].data();
              std::size_t k = 0;
              for (Index id : l.ids)
                for (int c = 0; c < ncomp; ++c) y[id * ncomp + c] += sb[k++];
            }
            add_ns(exchange_ns_, tu.seconds());
          }
        });
    note_apply(which, ncomp);
  }

  Decomposition decomp_;
  std::vector<Sub> subs_;
  Index interior_total_ = 0, boundary_total_ = 0;
  Index node_halo_points_ = 0, vert_halo_points_ = 0;

  mutable std::vector<Buffers> node_buf_, vert_buf_;
  mutable int node_ncomp_ = 0, vert_ncomp_ = 0;

  mutable std::atomic<long long> applies_{0};
  mutable std::atomic<long long> bytes_sent_{0}, bytes_recv_{0};
  mutable std::atomic<long long> exchange_ns_{0}, interior_ns_{0},
      boundary_ns_{0};
  obs::Counter* c_applies_ = nullptr;
  obs::Counter* c_sent_ = nullptr;
  obs::Counter* c_recv_ = nullptr;
};

} // namespace ptatin
