#include "ptatin/scrub.hpp"

#include "common/sealed.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"

namespace ptatin::sdc {

std::vector<std::string> Scrubber::scrub_now() {
  PerfScope span("SdcScrub");
  ++scrubs_;
  obs::MetricsRegistry::instance().counter("sdc.scrubs").inc();
  return SealRegistry::instance().verify_all();
}

} // namespace ptatin::sdc
