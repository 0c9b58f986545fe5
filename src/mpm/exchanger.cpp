#include "mpm/exchanger.hpp"

#include "common/error.hpp"
#include "fem/point_location.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"

namespace ptatin {

namespace {

/// A material point in flight between subdomains.
struct PointEnvelope {
  Vec3 x;
  int lithology;
  Real plastic_strain;
};

} // namespace

std::vector<RankPoints> distribute_points(const StructuredMesh& mesh,
                                          const Decomposition& decomp,
                                          const MaterialPoints& global) {
  std::vector<RankPoints> ranks(decomp.num_ranks());
  for (Index r = 0; r < decomp.num_ranks(); ++r) ranks[r].rank = r;

  for (Index i = 0; i < global.size(); ++i) {
    Index e = global.element(i);
    Vec3 xi = global.local_coord(i);
    if (e < 0) {
      const PointLocation loc = locate_point(mesh, global.position(i));
      if (!loc.found) continue; // outside the domain: dropped
      e = loc.element;
      xi = loc.xi;
    }
    const Index r = decomp.rank_of_element(mesh, e);
    const Index j = ranks[r].points.add(global.position(i),
                                        global.lithology(i),
                                        global.plastic_strain(i));
    ranks[r].points.set_location(j, e, xi);
  }
  return ranks;
}

MaterialPoints gather_points(const std::vector<RankPoints>& ranks) {
  MaterialPoints all;
  for (const auto& r : ranks) {
    for (Index i = 0; i < r.points.size(); ++i) {
      const Index j = all.add(r.points.position(i), r.points.lithology(i),
                              r.points.plastic_strain(i));
      if (r.points.element(i) >= 0)
        all.set_location(j, r.points.element(i), r.points.local_coord(i));
    }
  }
  return all;
}

MigrationStats migrate_points(const StructuredMesh& mesh,
                              const Decomposition& decomp,
                              std::vector<RankPoints>& ranks) {
  PT_ASSERT(static_cast<Index>(ranks.size()) == decomp.num_ranks());
  PerfScope span("MPMMigrate");
  MigrationStats stats;

  // Phase 1: every rank locates its points and builds its send list L_s.
  std::vector<std::vector<PointEnvelope>> send_lists(ranks.size());
  for (auto& rp : ranks) {
    const Subdomain& sub = decomp.subdomain(rp.rank);
    Index i = 0;
    while (i < rp.points.size()) {
      const PointLocation loc =
          locate_point(mesh, rp.points.position(i), rp.points.element(i));
      bool keep = false;
      if (loc.found) {
        Index ei, ej, ek;
        mesh.element_ijk(loc.element, ei, ej, ek);
        keep = sub.owns_element_ijk(ei, ej, ek);
        if (keep) rp.points.set_location(i, loc.element, loc.xi);
      }
      if (keep) {
        ++i;
      } else {
        // Not ours (or outside): enqueue on L_s and remove locally. Points
        // outside the global domain will be re-tested (and deleted) by every
        // neighbor, reproducing the paper's outflow-deletion behaviour.
        send_lists[rp.rank].push_back(PointEnvelope{
            rp.points.position(i), rp.points.lithology(i),
            rp.points.plastic_strain(i)});
        rp.points.remove(i);
        ++stats.sent;
      }
    }
  }

  // Phase 2: deliver each L_s to ALL neighbors; receivers relocate the
  // points (L_r processing) and adopt the ones they own. The relocation is
  // rank-independent, so it runs once per point; element ownership is
  // unique, so at most one neighbor adopts. A point adopted by no neighbor
  // is deleted. Sources are visited in ascending rank order, which fixes
  // every receiver's adoption order.
  for (Index src = 0; src < static_cast<Index>(ranks.size()); ++src) {
    for (const PointEnvelope& e : send_lists[src]) {
      const PointLocation loc = locate_point(mesh, e.x);
      bool adopted = false;
      if (loc.found) {
        Index ei, ej, ek;
        mesh.element_ijk(loc.element, ei, ej, ek);
        for (Index nbr_rank : decomp.subdomain(src).neighbors) {
          if (!decomp.subdomain(nbr_rank).owns_element_ijk(ei, ej, ek))
            continue;
          RankPoints& nbr = ranks[nbr_rank];
          const Index j = nbr.points.add(e.x, e.lithology, e.plastic_strain);
          nbr.points.set_location(j, loc.element, loc.xi);
          adopted = true;
          ++stats.received;
          break;
        }
      }
      if (!adopted) ++stats.deleted;
    }
  }

  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("mpm.migrate.sent").inc(stats.sent);
  metrics.counter("mpm.migrate.received").inc(stats.received);
  metrics.counter("mpm.migrate.deleted").inc(stats.deleted);
  auto& queue_depth = metrics.histogram("mpm.migrate.queue_depth");
  for (const auto& ls : send_lists)
    queue_depth.record(double(ls.size()));
  return stats;
}

} // namespace ptatin
