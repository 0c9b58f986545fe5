// Model description: everything that distinguishes one geodynamic scenario
// from another (domain, lithology layout, rheology, boundary conditions,
// buoyancy, thermal setup).
#pragma once

#include <functional>
#include <memory>

#include "energy/supg.hpp"
#include "fem/bc.hpp"
#include "fem/mesh.hpp"
#include "mg/gmg.hpp"
#include "rheology/flow_law.hpp"

namespace ptatin {

struct ModelSetup {
  std::string name;
  StructuredMesh mesh;
  /// Velocity boundary conditions with inhomogeneous values on the fine mesh.
  DirichletBc bc;
  /// Homogeneous BC pattern reconstruction for multigrid coarse levels.
  BcFactory bc_factory;

  MaterialTable materials;
  std::function<int(const Vec3&)> lithology_of;
  /// Initial plastic strain ("damage", §V-A); null = zero everywhere.
  std::function<Real(const Vec3&)> initial_damage;

  Vec3 gravity{0, 0, -9.8};
  int vertical_axis = 2; ///< up direction: 2 = z (sinker), 1 = y (rifting)

  // --- optional energy equation ---------------------------------------------
  bool use_energy = false;
  Real kappa = 1e-6;
  std::function<Real(const Vec3&)> initial_temperature;
  std::function<void(const StructuredMesh&, VertexBc&)> temperature_bc;
};

} // namespace ptatin
