// SolverReport: machine-readable capture of per-solve convergence data.
//
// Every future perf PR must prove its win against a recorded baseline; this
// is the record. The global report (obs::SolverReport::global()) is filled
// by the solver layers when capture is enabled: the Stokes solver appends
// one KrylovRecord per outer solve (full residual history, history[0] = the
// true initial residual), the nonlinear solver appends one NewtonRecord per
// nonlinear solve, and serialization folds in the metrics registry, the perf
// events, and a per-MG-level timing table derived from the "MGSmooth(Lk)" /
// "MGTransfer(Lk)" perf events.
//
// Serialized reports are versioned ("ptatin.solver_report/1"). The same JSON
// writer also maintains the BENCH_*.json trajectory files ("ptatin.bench/1":
// one object per benchmark with an appended "runs" array) via
// append_bench_run().
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace ptatin::obs {

inline constexpr const char* kSolverReportSchema = "ptatin.solver_report/1";
inline constexpr const char* kBenchSchema = "ptatin.bench/1";

/// One Krylov solve: label identifies the call site ("stokes_outer",
/// "scr_outer", ...), method the algorithm ("gcr", "fgmres", "cg", ...).
struct KrylovRecord {
  std::string label;
  std::string method;
  bool converged = false;
  int iterations = 0;
  double initial_residual = 0.0;
  double final_residual = 0.0;
  double seconds = 0.0;
  std::string reason;
  std::vector<double> history; ///< residual norm per iteration, [0] = initial
};

/// One nonlinear (Picard/Newton) solve.
struct NewtonRecord {
  std::string label;
  bool converged = false;
  int iterations = 0;
  long total_krylov_iterations = 0;
  double seconds = 0.0;
  std::string failure;  ///< nonlinear failure reason ("" = none)
  int fallbacks = 0;    ///< Newton -> Picard escalations taken
  std::vector<double> residual_history; ///< ||F||, [0] = initial
  std::vector<int> krylov_per_iteration;
  std::vector<double> step_lengths;
};

/// One safeguarded time step that needed (or failed) recovery: the
/// timestep tier records every retry sequence here so rollbacks are visible
/// in telemetry, not silent (docs/ROBUSTNESS.md).
struct SafeguardRecord {
  int step = 0;                       ///< 1-based step index
  bool recovered = false;             ///< a retry ultimately succeeded
  int retries = 0;                    ///< rollback/retry attempts taken
  std::vector<double> dt_history;     ///< dt per attempt (first = requested)
  std::vector<std::string> failures;  ///< failure reason per failed attempt
};

/// Per-step material point population-control churn (src/mpm/population),
/// recorded by the safeguarded stepper so injection/deletion storms are
/// visible in telemetry rather than only as run-total counters.
struct PopulationRecord {
  int step = 0;                 ///< 1-based step index
  long long injected = 0;
  long long removed = 0;
  long long deficient = 0;      ///< elements still deficient after control
  long long min_per_cell = 0;   ///< post-control per-cell population extremes
  long long max_per_cell = 0;
};

/// The restart the checkpoint rotation resumed from, for the "state" section
/// of ptatin.solver_report/1 (docs/ROBUSTNESS.md). The section's counts
/// (checkpoint saves and save failures, restarts, health checks, failures
/// and repairs) are the checkpoint.* and health.* counters.
struct StateRecord {
  long long restart_step = -1;       ///< step the run resumed from (-1 = none)
  std::string restart_path;          ///< checkpoint file the restart used
  std::vector<std::string> corrupt_skipped; ///< checkpoints that failed
                                            ///< verification and were bypassed
};

/// Subdomain-parallel execution summary — the "decomposition" section of
/// ptatin.solver_report/1 (docs/PARALLELISM.md, docs/OBSERVABILITY.md).
/// Filled from SubdomainEngine::stats() by the Stokes solve when a
/// decomposition engine drives the fine-level applies.
struct DecompRecord {
  long long px = 1, py = 1, pz = 1;   ///< subdomain grid shape
  long long applies = 0;              ///< halo-exchange protocol executions
  long long halo_bytes_sent = 0;
  long long halo_bytes_received = 0;
  double exchange_seconds = 0.0;      ///< pack + unpack/accumulate time
  double interior_seconds = 0.0;      ///< interior-element compute time
  double boundary_seconds = 0.0;      ///< halo-boundary element compute time
  long long interior_elements = 0;
  long long boundary_elements = 0;
};

class SolverReport {
public:
  SolverReport() = default;

  /// The process-wide report the solver layers append to when enabled.
  static SolverReport& global();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void set_meta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }
  void add_krylov(KrylovRecord r) { krylov_.push_back(std::move(r)); }
  void add_newton(NewtonRecord r) { newton_.push_back(std::move(r)); }
  void add_safeguard(SafeguardRecord r) {
    safeguards_.push_back(std::move(r));
  }
  void add_population(PopulationRecord r) {
    population_.push_back(std::move(r));
  }
  void clear();

  const std::vector<KrylovRecord>& krylov_solves() const { return krylov_; }
  const std::vector<SafeguardRecord>& safeguard_events() const {
    return safeguards_;
  }
  StateRecord& state() { return state_; }
  const StateRecord& state() const { return state_; }

  /// Record (or overwrite — the stats are cumulative) the subdomain
  /// execution summary. Serialized only once set.
  void set_decomposition(const DecompRecord& r) {
    decomp_ = r;
    has_decomp_ = true;
  }

  /// Full report including metrics / perf / MG-level sections (those, and
  /// the counts of the state and sdc sections, are snapshots of the global
  /// registries at serialization time).
  JsonValue to_json() const;
  std::string to_json_string(int indent = 1) const;
  bool write(const std::string& path) const;

private:
  bool enabled_ = false;
  std::map<std::string, std::string> meta_;
  std::vector<KrylovRecord> krylov_;
  std::vector<NewtonRecord> newton_;
  std::vector<SafeguardRecord> safeguards_;
  std::vector<PopulationRecord> population_;
  StateRecord state_;
  DecompRecord decomp_;
  bool has_decomp_ = false;
};

// --- telemetry facade ---------------------------------------------------------

/// Master switch: turns on trace-span collection and solver-report capture.
void enable_telemetry(bool on = true);

/// Write <dir>/trace.json (Chrome trace_event) and <dir>/solver_report.json,
/// creating <dir> if needed. Returns false if either file failed to write.
bool write_telemetry(const std::string& dir);

// --- benchmark trajectories ---------------------------------------------------

/// Append one run to a BENCH_*.json trajectory file. Creates the file with
/// {"schema", "name", "runs": [run]} when absent or unreadable; otherwise
/// parses it and appends to "runs". Returns false on I/O failure.
bool append_bench_run(const std::string& path, const std::string& name,
                      JsonValue run);

} // namespace ptatin::obs
