#include "common/faultinject.hpp"

#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace ptatin::fault {

namespace {

/// splitmix64: tiny deterministic generator for the probabilistic mode.
double next_uniform(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return double(z >> 11) * 0x1.0p-53;
}

bool parse_kind(const std::string& s, FaultKind& kind) {
  if (s == "nan") kind = FaultKind::kNan;
  else if (s == "inf") kind = FaultKind::kInf;
  else if (s == "zero") kind = FaultKind::kZero;
  else if (s == "error") kind = FaultKind::kError;
  else return false;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

} // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector* fi = [] {
    auto* f = new FaultInjector();
    if (const char* env = std::getenv("PTATIN_FAULTS");
        env != nullptr && env[0] != '\0') {
      if (!f->arm_from_spec(env))
        log_warn("PTATIN_FAULTS: malformed spec ignored: ", env);
    }
    return f;
  }();
  return *fi;
}

FaultInjector::FaultInjector() = default;

const std::vector<SiteInfo>& FaultInjector::known_sites() {
  // Stable order: the chaos campaign's sweep and its CI log output follow it.
  static const std::vector<SiteInfo> sites = {
      {"ksp.rnorm", "corrupt a Krylov residual norm (NaN/Inf/0)"},
      {"ksp.breakdown", "force a Krylov algorithmic breakdown"},
      {"nonlin.rnorm", "corrupt a nonlinear residual norm"},
      {"nonlin.linsolve", "declare a linear solve fatally failed"},
      {"checkpoint.write", "throw from the checkpoint writer"},
      {"checkpoint.read", "throw from the checkpoint reader"},
      {"checkpoint.torn_write", "truncate a published checkpoint file"},
      {"checkpoint.bitflip", "flip one checkpoint payload bit post-CRC"},
      {"health.field_nan", "poison one velocity entry before a health pass"},
      {"sdc.field_bitflip", "flip a low mantissa bit of a sealed field"},
      {"sdc.particle_bitflip", "flip a low mantissa bit of a particle slab"},
      {"sdc.matrix_bitflip", "flip a bit in a sealed operator matrix"},
      {"sdc.krylov_drift", "drift the Krylov recurrence off the true "
                           "residual"},
  };
  return sites;
}

void FaultInjector::arm(FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.push_back(Armed{std::move(spec), 0});
  enabled_.store(true, std::memory_order_relaxed);
}

bool FaultInjector::arm_from_spec(const std::string& spec) {
  std::vector<FaultSpec> parsed;
  for (const std::string& item : split(spec, ',')) {
    if (item.empty()) continue;
    const std::vector<std::string> f = split(item, ':');
    if (f.size() < 2 || f.size() > 4 || f[0].empty()) return false;
    FaultSpec fs;
    fs.site = f[0];
    try {
      fs.nth = std::stoll(f[1]);
    } catch (...) {
      return false;
    }
    if (fs.nth < 1) return false;
    if (f.size() >= 3 && !parse_kind(f[2], fs.kind)) return false;
    if (f.size() == 4) {
      if (f[3] == "*") {
        fs.count = -1;
      } else {
        try {
          fs.count = std::stoll(f[3]);
        } catch (...) {
          return false;
        }
        if (fs.count < 1) return false;
      }
    }
    parsed.push_back(std::move(fs));
  }
  if (parsed.empty()) return false;
  for (FaultSpec& fs : parsed) arm(std::move(fs));
  return true;
}

void FaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Armed& a : armed_) {
    if (a.fired || a.spec.probability > 0.0) continue;
    // A spec that never fired usually means a typo'd site name or a count
    // the run never reached — either way the fault tested nothing.
    log_warn("fault spec armed at site '", a.spec.site, "' (nth=", a.spec.nth,
             ") never fired — ", a.calls, " call(s) observed; check the site "
             "name against -list_fault_sites");
  }
  armed_.clear();
  injected_.store(0, std::memory_order_relaxed);
  enabled_.store(false, std::memory_order_relaxed);
}

std::vector<FaultSpec> FaultInjector::unfired() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FaultSpec> out;
  for (const Armed& a : armed_)
    if (!a.fired && a.spec.probability <= 0.0) out.push_back(a.spec);
  return out;
}

void FaultInjector::seed(std::uint64_t s) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = s;
}

const FaultSpec* FaultInjector::advance(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  const FaultSpec* firing = nullptr;
  for (Armed& a : armed_) {
    if (a.spec.site != site) continue;
    ++a.calls;
    bool fire;
    if (a.spec.probability > 0.0) {
      fire = a.calls >= a.spec.nth &&
             next_uniform(rng_state_) < a.spec.probability;
    } else {
      fire = a.calls >= a.spec.nth &&
             (a.spec.count < 0 || a.calls < a.spec.nth + a.spec.count);
    }
    if (fire) a.fired = true;
    if (fire && firing == nullptr) firing = &a.spec;
  }
  if (firing != nullptr) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    auto& metrics = obs::MetricsRegistry::instance();
    metrics.counter("fault.injected").inc();
    metrics.counter(std::string("fault.injected.") + site).inc();
    log_warn("fault injected at site '", site, "'");
  }
  return firing;
}

bool FaultInjector::fires(const char* site) { return advance(site) != nullptr; }

Real FaultInjector::corrupt(const char* site, Real value) {
  const FaultSpec* f = advance(site);
  if (f == nullptr) return value;
  switch (f->kind) {
    case FaultKind::kNan: return std::numeric_limits<Real>::quiet_NaN();
    case FaultKind::kInf: return std::numeric_limits<Real>::infinity();
    case FaultKind::kZero: return Real(0);
    case FaultKind::kError: break; // error faults do not corrupt values
  }
  return value;
}

void FaultInjector::maybe_fail(const char* site) {
  const FaultSpec* f = advance(site);
  if (f != nullptr && f->kind == FaultKind::kError)
    PT_THROW("injected fault at site '" << site << "'");
}

} // namespace ptatin::fault
