#include "fem/kernel_registry.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "common/error.hpp"

namespace ptatin {

const char* fine_operator_token(FineOperatorType t) {
  // The one place that spells the tokens; every former switch over
  // FineOperatorType (config parsing, serve job specs, bench labels) routes
  // through here or its inverse parse_fine_operator().
  static const char* kTokens[] = {"asmb", "mf", "tens", "tensc"};
  return kTokens[static_cast<int>(t)];
}

const char* fine_operator_display(FineOperatorType t) {
  static const char* kNames[] = {"Asmb", "MF", "Tens", "TensC"};
  return kNames[static_cast<int>(t)];
}

FineOperatorType parse_fine_operator(const std::string& token) {
  if (token == "asmb") return FineOperatorType::kAssembled;
  if (token == "mf") return FineOperatorType::kMatrixFree;
  if (token == "tens") return FineOperatorType::kTensor;
  if (token == "tensc") return FineOperatorType::kTensorC;
  PT_THROW("unknown backend '" + token + "' (expected asmb|mf|tens|tensc)");
}

std::string KernelKey::str() const {
  std::ostringstream os;
  os << fine_operator_token(type) << "/k" << order << "/b" << batch_width
     << "/" << (mode == EngineMode::kGlobal ? "global" : "subdomain");
  return os.str();
}

namespace {
std::tuple<int, int, int, int> key_tuple(const KernelKey& k) {
  return {static_cast<int>(k.type), k.order, k.batch_width,
          static_cast<int>(k.mode)};
}
} // namespace

bool KernelKey::operator<(const KernelKey& o) const {
  return key_tuple(*this) < key_tuple(o);
}
bool KernelKey::operator==(const KernelKey& o) const {
  return key_tuple(*this) == key_tuple(o);
}

struct KernelRegistry::Impl {
  struct Fallback {
    int min_order, max_order;
    KernelFactory factory;
  };
  std::map<KernelKey, KernelFactory> exact;
  /// keyed (type, batch_width, mode); order is the wildcard dimension
  std::map<std::tuple<int, int, int>, Fallback> fallback;
  mutable std::mutex mu;
};

KernelRegistry& KernelRegistry::instance() {
  // Function-local static: constructed on first registrar touch, so the
  // static-init order across kernel TUs never matters.
  static KernelRegistry reg;
  return reg;
}

KernelRegistry::Impl& KernelRegistry::impl() const {
  static Impl impl;
  return impl;
}

void KernelRegistry::add(const KernelKey& key, KernelFactory factory) {
  PT_ASSERT(factory != nullptr);
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const bool inserted = im.exact.emplace(key, factory).second;
  PT_ASSERT_MSG(inserted, "duplicate kernel registration");
}

void KernelRegistry::add_fallback(FineOperatorType type, int batch_width,
                                  EngineMode mode, int min_order,
                                  int max_order, KernelFactory factory) {
  PT_ASSERT(factory != nullptr && min_order <= max_order);
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const auto k = std::make_tuple(static_cast<int>(type), batch_width,
                                 static_cast<int>(mode));
  const bool inserted =
      im.fallback.emplace(k, Impl::Fallback{min_order, max_order, factory})
          .second;
  PT_ASSERT_MSG(inserted, "duplicate kernel fallback registration");
}

namespace {
/// Component-wise distance for the nearest-key diagnosis. Weighted so that
/// a same-backend key at a different width reads as "closer" than a
/// different backend entirely — the suggestions a user can act on first.
int key_distance(const KernelKey& want, const KernelKey& have) {
  int d = 0;
  if (want.type != have.type) d += 8;
  d += 2 * std::abs(want.order - have.order);
  if (want.batch_width != have.batch_width) d += 1;
  if (want.mode != have.mode) d += 4;
  return d;
}
} // namespace

KernelResolution KernelRegistry::resolve(const KernelSpec& spec) const {
  Impl& im = impl();
  const KernelKey key = KernelKey::of(spec);
  {
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.exact.find(key);
    if (it != im.exact.end()) return {it->second, true, key};
    const auto fk = std::make_tuple(static_cast<int>(key.type),
                                    key.batch_width,
                                    static_cast<int>(key.mode));
    auto fit = im.fallback.find(fk);
    if (fit != im.fallback.end() && key.order >= fit->second.min_order &&
        key.order <= fit->second.max_order) {
      KernelKey fkey = key;
      fkey.order = 0; // wildcard marker: matched by order range, not exact key
      return {fit->second.factory, false, fkey};
    }
  } // drop the lock before composing the diagnosis (which re-locks)
  PT_THROW("no kernel registered for " + key.str() + "; " +
           nearest_keys_message(spec));
}

KernelResolution
KernelRegistry::resolve_fallback(const KernelSpec& spec) const {
  Impl& im = impl();
  const KernelKey key = KernelKey::of(spec);
  {
    std::lock_guard<std::mutex> lock(im.mu);
    const auto fk = std::make_tuple(static_cast<int>(key.type),
                                    key.batch_width,
                                    static_cast<int>(key.mode));
    auto fit = im.fallback.find(fk);
    if (fit != im.fallback.end() && key.order >= fit->second.min_order &&
        key.order <= fit->second.max_order) {
      KernelKey fkey = key;
      fkey.order = 0;
      return {fit->second.factory, false, fkey};
    }
  }
  PT_THROW("no generic-order fallback registered for " + key.str() + "; " +
           nearest_keys_message(spec));
}

bool KernelRegistry::is_registered(const KernelSpec& spec) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const KernelKey key = KernelKey::of(spec);
  if (im.exact.count(key)) return true;
  const auto fk = std::make_tuple(static_cast<int>(key.type), key.batch_width,
                                  static_cast<int>(key.mode));
  auto fit = im.fallback.find(fk);
  return fit != im.fallback.end() && key.order >= fit->second.min_order &&
         key.order <= fit->second.max_order;
}

std::vector<KernelKey> KernelRegistry::keys() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<KernelKey> out;
  out.reserve(im.exact.size());
  for (const auto& kv : im.exact) out.push_back(kv.first);
  return out; // std::map iteration order == sorted
}

std::vector<std::string> KernelRegistry::fallback_ranges() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> out;
  for (const auto& kv : im.fallback) {
    std::ostringstream os;
    os << fine_operator_token(
              static_cast<FineOperatorType>(std::get<0>(kv.first)))
       << "/k" << kv.second.min_order << "..k" << kv.second.max_order << "/b"
       << std::get<1>(kv.first) << "/"
       << (static_cast<EngineMode>(std::get<2>(kv.first)) ==
                   EngineMode::kGlobal
               ? "global"
               : "subdomain");
    out.push_back(os.str());
  }
  return out;
}

std::string KernelRegistry::nearest_keys_message(const KernelSpec& spec,
                                                 std::size_t count) const {
  // Caller may or may not hold the lock; collect under our own copy of the
  // key list to stay re-entrant from resolve()'s throw path.
  const KernelKey want = KernelKey::of(spec);
  std::vector<std::pair<int, KernelKey>> ranked;
  {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    for (const auto& kv : im.exact)
      ranked.emplace_back(key_distance(want, kv.first), kv.first);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream os;
  os << "nearest registered keys:";
  for (std::size_t i = 0; i < ranked.size() && i < count; ++i)
    os << (i ? ", " : " ") << ranked[i].second.str();
  std::vector<std::string> fb = fallback_ranges();
  if (!fb.empty()) {
    os << "; generic-order fallbacks:";
    for (std::size_t i = 0; i < fb.size(); ++i) os << (i ? ", " : " ") << fb[i];
  }
  return os.str();
}

} // namespace ptatin
