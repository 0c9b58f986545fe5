#include "common/sealed.hpp"

#include "common/crc32.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace ptatin::sdc {

void Seal::arm(const std::vector<Region>& regions) {
  entries_.clear();
  entries_.reserve(regions.size());
  for (const Region& r : regions)
    entries_.push_back(Entry{r.name, r.bytes, crc32(r.data, r.bytes)});
  obs::MetricsRegistry::instance().counter("sdc.seals_armed").inc();
}

std::vector<std::string> Seal::verify(
    const std::vector<Region>& regions) const {
  std::vector<std::string> bad;
  if (regions.size() != entries_.size()) {
    bad.push_back("region count changed (" + std::to_string(entries_.size()) +
                  " sealed, " + std::to_string(regions.size()) + " present)");
    return bad;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const Region& r = regions[i];
    if (r.bytes != e.bytes)
      bad.push_back(e.name + " (size changed)");
    else if (crc32(r.data, r.bytes) != e.crc)
      bad.push_back(e.name);
  }
  return bad;
}

std::vector<std::string> verify_operator_seal(
    const std::string& owner, const Seal& seal,
    const std::vector<Region>& regions) {
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("sdc.seal_verifies").inc();
  std::vector<std::string> bad;
  for (const std::string& region : seal.verify(regions))
    bad.push_back(owner + "/" + region);
  if (!bad.empty()) {
    metrics.counter("sdc.seal_mismatches").inc((long long)bad.size());
    for (const std::string& b : bad)
      log_warn("sdc: sealed region mismatch: ", b);
  }
  return bad;
}

} // namespace ptatin::sdc
