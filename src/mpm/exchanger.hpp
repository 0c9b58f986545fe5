// Material point migration between subdomains (§II-D).
//
// "If the point location routine determines that the material point is not
// located on the current subdomain, the material point is inserted into a
// list L_s. All material points in L_s are sent to all neighboring mesh
// subdomains, and the point location algorithm is reapplied to the newly
// received material points L_r. Material points in L_r which are not
// contained within the current mesh subdomain are deleted. This simple
// strategy enables the communication of material points between processors
// and permits material points to leave the domain if any outflow type
// boundary conditions are prescribed."
//
// The MPI substitution (DESIGN.md): ranks are in-memory subdomains; the
// send/receive lists are real data structures exercised identically. Each
// L_s is handed to the neighbor ranks in memory, and every receiver adopts
// in ascending source-rank order, then in L_s order.
#pragma once

#include <vector>

#include "fem/decomposition.hpp"
#include "mpm/points.hpp"

namespace ptatin {

struct MigrationStats {
  Index sent = 0;      ///< points placed on some L_s
  Index received = 0;  ///< points adopted from some L_r
  Index deleted = 0;   ///< points deleted (left the global domain, or
                       ///< delivered to a neighborhood that does not own them)
};

/// Rank-local point container plus its subdomain identity.
struct RankPoints {
  Index rank = 0;
  MaterialPoints points;
};

/// Run the full migration protocol over all ranks: locate, build L_s lists,
/// deliver to neighbors, relocate L_r, delete unowned. Afterwards every
/// surviving point is located in an element owned by its holding rank.
MigrationStats migrate_points(const StructuredMesh& mesh,
                              const Decomposition& decomp,
                              std::vector<RankPoints>& ranks);

/// Partition a global point set into per-rank containers (initialization).
std::vector<RankPoints> distribute_points(const StructuredMesh& mesh,
                                          const Decomposition& decomp,
                                          const MaterialPoints& global);

/// Gather all rank-local points into one container (diagnostics, output).
MaterialPoints gather_points(const std::vector<RankPoints>& ranks);

} // namespace ptatin
