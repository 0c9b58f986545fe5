// Deterministic fault injection for robustness testing.
//
// Solver code marks fault *sites* — named points where a failure can be
// injected ("ksp.rnorm", "ksp.breakdown", "nonlin.rnorm", "checkpoint.write",
// "checkpoint.read", "checkpoint.torn_write", "checkpoint.bitflip",
// "health.field_nan", and the silent-data-corruption sites
// "sdc.field_bitflip", "sdc.particle_bitflip", "sdc.matrix_bitflip",
// "sdc.krylov_drift" — docs/ROBUSTNESS.md). The compiled-in site catalogue
// is enumerable via known_sites() (the chaos campaign sweeps it) and specs
// armed against a site that never fired — a typo'd name tests nothing — are
// reported by unfired() and warned about at disarm time.
// Tests and the driver arm faults against those sites:
// "corrupt the value at the Nth call", "throw at the Nth call". Every recovery path in the
// safeguard layer (docs/ROBUSTNESS.md) is exercised through this mechanism,
// so the paths are proven to fire rather than assumed to.
//
// Injection is deterministic: faults trigger on exact per-site call counts
// (optionally a window of consecutive calls), and the optional probabilistic
// mode draws from a fixed-seed generator, so a failing run replays exactly.
// When nothing is armed the hot-path cost is one relaxed atomic load.
//
// Configuration: programmatic (arm / disarm_all), spec strings
// ("site:nth[:kind[:count]]", comma-separated; see docs/ROBUSTNESS.md), the
// PTATIN_FAULTS environment variable, or the driver's -faults option.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptatin::fault {

enum class FaultKind {
  kNan,   ///< corrupt() returns a quiet NaN
  kInf,   ///< corrupt() returns +infinity
  kZero,  ///< corrupt() returns 0 (breakdown denominators)
  kError, ///< maybe_fail() / fires() trigger (I/O failures, forced errors)
};

struct FaultSpec {
  std::string site;      ///< site name the fault is armed against
  long long nth = 1;     ///< 1-based call index of the first firing
  long long count = 1;   ///< consecutive firings from nth on (-1 = forever)
  FaultKind kind = FaultKind::kNan;
  double probability = 0.0; ///< >0: fire per-call with this probability
                            ///< (seeded, deterministic) instead of by count
};

/// One entry of the compiled-in fault-site catalogue.
struct SiteInfo {
  const char* site;    ///< site name specs arm against
  const char* summary; ///< what a fault injected here simulates
};

class FaultInjector {
public:
  /// Process-wide injector. Arms PTATIN_FAULTS from the environment on
  /// first use.
  static FaultInjector& instance();

  /// The compiled-in catalogue of fault sites, in stable order. The chaos
  /// campaign (tests/chaos_campaign.py) sweeps this list via the driver's
  /// -list_fault_sites flag.
  static const std::vector<SiteInfo>& known_sites();

  void arm(FaultSpec spec);
  /// Parse and arm comma-separated "site:nth[:kind[:count]]" specs, where
  /// kind is nan|inf|zero|error (default nan). Returns false (arming
  /// nothing) on malformed input.
  bool arm_from_spec(const std::string& spec);
  /// Remove all armed faults and reset call counters and statistics. Specs
  /// that never fired (typically a typo'd site name, which silently tests
  /// nothing) are warned about; probabilistic specs are exempt — not firing
  /// is a legitimate draw for them.
  void disarm_all();

  /// Armed count-based specs that have not fired yet (see disarm_all).
  std::vector<FaultSpec> unfired() const;
  /// Reseed the probabilistic mode (default seed is fixed).
  void seed(std::uint64_t s);

  /// Fast-path check: false whenever nothing is armed.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Count a call at `site`; true when an armed fault fires there.
  bool fires(const char* site);
  /// Count a call; return `value` or a corrupted value (NaN/Inf/0) when a
  /// value-kind fault fires.
  Real corrupt(const char* site, Real value);
  /// Count a call; throw ptatin::Error when an error-kind fault fires.
  void maybe_fail(const char* site);

  /// Total faults injected since the last disarm_all().
  long long injected() const { return injected_.load(std::memory_order_relaxed); }

private:
  FaultInjector();
  struct Armed {
    FaultSpec spec;
    long long calls = 0; ///< calls observed at this fault's site
    bool fired = false;  ///< this spec has injected at least once
  };
  /// Returns the armed fault that fires for this call, or nullptr.
  const FaultSpec* advance(const char* site);

  std::atomic<bool> enabled_{false};
  std::atomic<long long> injected_{0};
  mutable std::mutex mu_;
  std::vector<Armed> armed_;
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;
};

// Free-function helpers: zero work unless a fault is armed. Solver code
// calls these, never the injector directly.
inline Real corrupt(const char* site, Real value) {
  FaultInjector& fi = FaultInjector::instance();
  return fi.enabled() ? fi.corrupt(site, value) : value;
}

inline bool fires(const char* site) {
  FaultInjector& fi = FaultInjector::instance();
  return fi.enabled() && fi.fires(site);
}

inline void maybe_fail(const char* site) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.enabled()) fi.maybe_fail(site);
}

} // namespace ptatin::fault
