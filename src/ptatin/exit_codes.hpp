// Driver exit-code taxonomy.
//
// Batch schedulers and the CI restart round-trip job dispatch on the
// driver's exit status, so each failure class gets a distinct, stable code
// (asserted in tests/test_robustness.cpp, documented in --help and
// docs/ROBUSTNESS.md).
#pragma once

namespace ptatin {

enum class DriverExit : int {
  kSuccess = 0,          ///< run completed
  kSolverFailure = 1,    ///< a step failed beyond the safeguard tier's retries
  kUsageError = 2,       ///< malformed options (bad -faults spec, bad -model)
  kCheckpointFailure = 3,///< restart/checkpoint could not be loaded or saved
  kHealthFailure = 4,    ///< a health check failed beyond recovery
  kSdcFailure = 6,       ///< unrecoverable silent data corruption (seal or
                         ///< sentinel detection that no snapshot could heal)
};

inline const char* describe(DriverExit e) {
  switch (e) {
    case DriverExit::kSuccess: return "success";
    case DriverExit::kSolverFailure: return "unrecovered solver failure";
    case DriverExit::kUsageError: return "usage error";
    case DriverExit::kCheckpointFailure: return "checkpoint/restart failure";
    case DriverExit::kHealthFailure: return "health-check failure";
    case DriverExit::kSdcFailure: return "silent data corruption";
  }
  return "unknown";
}

} // namespace ptatin
