// Unified solver configuration (§III: "the solver design [must] be
// simplified enough for the end user to make educated choices with
// predictable behavior").
//
// SolverConfig is the single owner of every knob that used to be threaded
// by hand through the driver: the Stokes solver options (backend, GMG,
// Krylov), the nonlinear options, the timestep safeguard / checkpoint knobs,
// and the subdomain decomposition shape (docs/PARALLELISM.md). It is parsed
// from a PETSc-style options database (SolverConfig::from_options) and
// adjusted through its views, and it knows how to build the pieces that
// consume it: a standalone StokesSolver, the PtatinContext, and the
// SafeguardedStepper.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/options.hpp"
#include "ptatin/context.hpp"
#include "ptatin/stepper.hpp"

namespace ptatin {

class StokesSolver;

/// Parse a decomposition shape list: "2x2x2", "2,2,2", or a sweep
/// "1x1x1,2x2x1,2x2x2" all decode as consecutive {px,py,pz} triples.
/// Throws Error when the element count is not a positive multiple of 3 or a
/// factor is < 1.
std::vector<std::array<Index, 3>> parse_decomp_shapes(const std::string& spec);

class SolverConfig {
public:
  SolverConfig() = default;

  /// Build a config from a parsed options database. Recognizes the full
  /// driver flag set (-backend, -decomp, -levels, -coarse, -newton,
  /// -safeguard, -checkpoint_*, ...); unknown keys are ignored.
  /// Also registers the option descriptions, so Options::help_text()
  /// documents every flag this function reads.
  static SolverConfig from_options(const Options& o);

  /// Register this config's option descriptions for Options::help_text()
  /// without parsing anything (from_options does this implicitly).
  static void describe_options();

  /// Subdomain decomposition shape; {1,1,1} = global (non-decomposed) paths.
  SolverConfig& decomp(Index px, Index py, Index pz) {
    ptatin_.decomp = {px, py, pz};
    return *this;
  }

  // --- views ---------------------------------------------------------------
  PtatinOptions& ptatin() { return ptatin_; }
  const PtatinOptions& ptatin() const { return ptatin_; }
  /// The Stokes solver options nested inside the ptatin options.
  StokesSolverOptions& stokes() { return ptatin_.nonlinear.linear; }
  const StokesSolverOptions& stokes() const {
    return ptatin_.nonlinear.linear;
  }
  SafeguardOptions& safeguard() { return safeguard_; }
  const SafeguardOptions& safeguard() const { return safeguard_; }
  std::array<Index, 3> decomp_shape() const { return ptatin_.decomp; }
  bool use_safeguard() const { return use_safeguard_; }

  // --- factories -----------------------------------------------------------
  /// Standalone Stokes solver consuming this config's linear options with
  /// `engine` injected (may be null). Borrows mesh/coeff/bc/engine.
  std::unique_ptr<StokesSolver> make_stokes_solver(
      const StructuredMesh& mesh, const QuadCoefficients& coeff,
      const DirichletBc& bc, const SubdomainEngine* engine = nullptr) const;

  /// The time-stepping context (which owns its engine, built from the
  /// configured decomposition shape).
  std::unique_ptr<PtatinContext> make_context(ModelSetup setup) const;

  /// The safeguarded stepper wrapping `ctx`, configured from safeguard().
  std::unique_ptr<SafeguardedStepper> make_stepper(PtatinContext& ctx) const;

private:
  PtatinOptions ptatin_;
  SafeguardOptions safeguard_;
  bool use_safeguard_ = true;
};

} // namespace ptatin
