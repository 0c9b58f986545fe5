#include "obs/report.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"

namespace ptatin::obs {

SolverReport& SolverReport::global() {
  static SolverReport report;
  return report;
}

void SolverReport::clear() {
  meta_.clear();
  krylov_.clear();
  newton_.clear();
  safeguards_.clear();
  population_.clear();
  state_ = StateRecord{};
  decomp_ = DecompRecord{};
  has_decomp_ = false;
}

namespace {

JsonValue to_json_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (double x : v) a.push_back(JsonValue(x));
  return a;
}

JsonValue to_json_array(const std::vector<int>& v) {
  JsonValue a = JsonValue::array();
  for (int x : v) a.push_back(JsonValue(x));
  return a;
}

JsonValue krylov_to_json(const KrylovRecord& r) {
  JsonValue j = JsonValue::object();
  j["label"] = JsonValue(r.label);
  j["method"] = JsonValue(r.method);
  j["converged"] = JsonValue(r.converged);
  j["iterations"] = JsonValue(r.iterations);
  j["initial_residual"] = JsonValue(r.initial_residual);
  j["final_residual"] = JsonValue(r.final_residual);
  j["seconds"] = JsonValue(r.seconds);
  j["reason"] = JsonValue(r.reason);
  j["history"] = to_json_array(r.history);
  return j;
}

JsonValue newton_to_json(const NewtonRecord& r) {
  JsonValue j = JsonValue::object();
  j["label"] = JsonValue(r.label);
  j["converged"] = JsonValue(r.converged);
  j["iterations"] = JsonValue(r.iterations);
  j["total_krylov_iterations"] = JsonValue((long long)r.total_krylov_iterations);
  j["seconds"] = JsonValue(r.seconds);
  j["failure"] = JsonValue(r.failure);
  j["fallbacks"] = JsonValue(r.fallbacks);
  j["residual_history"] = to_json_array(r.residual_history);
  j["krylov_per_iteration"] = to_json_array(r.krylov_per_iteration);
  j["step_lengths"] = to_json_array(r.step_lengths);
  return j;
}

JsonValue safeguard_to_json(const SafeguardRecord& r) {
  JsonValue j = JsonValue::object();
  j["step"] = JsonValue(r.step);
  j["recovered"] = JsonValue(r.recovered);
  j["retries"] = JsonValue(r.retries);
  j["dt_history"] = to_json_array(r.dt_history);
  JsonValue fails = JsonValue::array();
  for (const auto& f : r.failures) fails.push_back(JsonValue(f));
  j["failures"] = std::move(fails);
  return j;
}

JsonValue population_to_json(const PopulationRecord& r) {
  JsonValue j = JsonValue::object();
  j["step"] = JsonValue(r.step);
  j["injected"] = JsonValue(r.injected);
  j["removed"] = JsonValue(r.removed);
  j["deficient"] = JsonValue(r.deficient);
  j["min_per_cell"] = JsonValue(r.min_per_cell);
  j["max_per_cell"] = JsonValue(r.max_per_cell);
  return j;
}

JsonValue decomp_to_json(const DecompRecord& d) {
  JsonValue j = JsonValue::object();
  j["px"] = JsonValue(d.px);
  j["py"] = JsonValue(d.py);
  j["pz"] = JsonValue(d.pz);
  j["applies"] = JsonValue(d.applies);
  j["halo_bytes_sent"] = JsonValue(d.halo_bytes_sent);
  j["halo_bytes_received"] = JsonValue(d.halo_bytes_received);
  j["exchange_seconds"] = JsonValue(d.exchange_seconds);
  j["interior_seconds"] = JsonValue(d.interior_seconds);
  j["boundary_seconds"] = JsonValue(d.boundary_seconds);
  j["interior_elements"] = JsonValue(d.interior_elements);
  j["boundary_elements"] = JsonValue(d.boundary_elements);
  return j;
}

/// The state and sdc sections count events with the metrics counters that
/// the checkpoint, health and SDC layers increment.
JsonValue counted(const std::string& name) {
  return JsonValue(MetricsRegistry::instance().counter(name).value());
}

JsonValue state_to_json(const StateRecord& s) {
  JsonValue j = JsonValue::object();
  j["checkpoint_saves"] = counted("checkpoint.saves");
  j["checkpoint_save_failures"] = counted("checkpoint.save_failures");
  j["restarts"] = counted("checkpoint.restarts");
  j["restart_step"] = JsonValue(s.restart_step);
  j["restart_path"] = JsonValue(s.restart_path);
  JsonValue skipped = JsonValue::array();
  for (const auto& p : s.corrupt_skipped) skipped.push_back(JsonValue(p));
  j["corrupt_skipped"] = std::move(skipped);
  j["health_checks"] = counted("health.checks");
  j["health_failures"] = counted("health.failures");
  j["health_repairs"] = counted("health.population_repairs");
  return j;
}

JsonValue sdc_to_json() {
  JsonValue j = JsonValue::object();
  for (const char* key :
       {"seals_armed", "seal_verifies", "detections", "heals",
        "sentinel_checks", "sentinel_trips", "unrecovered"})
    j[key] = counted(std::string("sdc.") + key);
  return j;
}

std::string string_or(const JsonValue& obj, const std::string& key,
                      const std::string& dflt) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type() == JsonValue::Type::kString ? v->as_string()
                                                               : dflt;
}

/// Per-MG-level timing table derived from the perf events emitted by the
/// GMG cycle ("MGSmooth(Lk)" / "MGTransfer(Lk)"); level 0 is the coarsest.
JsonValue mg_levels_json() {
  JsonValue levels = JsonValue::array();
  const auto& events = PerfRegistry::instance().events();
  const auto coarse = events.find("MGCoarseSolve");
  for (int l = 0; l < 64; ++l) {
    char smooth_name[32], transfer_name[32];
    std::snprintf(smooth_name, sizeof smooth_name, "MGSmooth(L%d)", l);
    std::snprintf(transfer_name, sizeof transfer_name, "MGTransfer(L%d)", l);
    const auto smooth = events.find(smooth_name);
    const auto transfer = events.find(transfer_name);
    const bool has_coarse =
        l == 0 && coarse != events.end() && coarse->second.calls() > 0;
    if (smooth == events.end() && transfer == events.end() && !has_coarse) {
      if (l > 0) break; // levels are contiguous above the coarsest
      continue;         // no hierarchy was exercised
    }
    JsonValue j = JsonValue::object();
    j["level"] = JsonValue(l);
    if (has_coarse) {
      j["coarse_seconds"] = JsonValue(coarse->second.seconds());
      j["coarse_calls"] = JsonValue((long long)coarse->second.calls());
    }
    if (smooth != events.end()) {
      j["smooth_seconds"] = JsonValue(smooth->second.seconds());
      j["smooth_calls"] = JsonValue((long long)smooth->second.calls());
    }
    if (transfer != events.end())
      j["transfer_seconds"] = JsonValue(transfer->second.seconds());
    levels.push_back(std::move(j));
  }
  return levels;
}

} // namespace

JsonValue SolverReport::to_json() const {
  JsonValue j = JsonValue::object();
  j["schema"] = JsonValue(kSolverReportSchema);
  JsonValue meta = JsonValue::object();
  for (const auto& [k, v] : meta_) meta[k] = JsonValue(v);
  j["meta"] = std::move(meta);

  JsonValue krylov = JsonValue::array();
  for (const auto& r : krylov_) krylov.push_back(krylov_to_json(r));
  j["krylov"] = std::move(krylov);

  JsonValue newton = JsonValue::array();
  for (const auto& r : newton_) newton.push_back(newton_to_json(r));
  j["newton"] = std::move(newton);

  JsonValue safeguards = JsonValue::array();
  for (const auto& r : safeguards_) safeguards.push_back(safeguard_to_json(r));
  j["safeguards"] = std::move(safeguards);

  JsonValue population = JsonValue::array();
  for (const auto& r : population_) population.push_back(population_to_json(r));
  j["population"] = std::move(population);

  j["state"] = state_to_json(state_);
  j["sdc"] = sdc_to_json();
  if (has_decomp_) j["decomposition"] = decomp_to_json(decomp_);

  j["mg_levels"] = mg_levels_json();
  j["metrics"] = MetricsRegistry::instance().to_json();

  JsonValue perf = JsonValue::object();
  for (const auto& [name, ev] : PerfRegistry::instance().events()) {
    if (ev.calls() == 0) continue;
    JsonValue e = JsonValue::object();
    e["calls"] = JsonValue((long long)ev.calls());
    e["seconds"] = JsonValue(ev.seconds());
    if (ev.flops > 0) {
      e["flops"] = JsonValue(ev.flops);
      e["gflops_per_sec"] = JsonValue(ev.gflops_per_sec());
    }
    perf[name] = std::move(e);
  }
  j["perf_events"] = std::move(perf);
  return j;
}

std::string SolverReport::to_json_string(int indent) const {
  return to_json().dump(indent);
}

bool SolverReport::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json_string() << "\n";
  return bool(f);
}

void enable_telemetry(bool on) {
  Tracer::instance().set_enabled(on);
  SolverReport::global().set_enabled(on);
}

bool write_telemetry(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path base(dir);
  const bool trace_ok =
      Tracer::instance().write_chrome_trace((base / "trace.json").string());
  const bool report_ok =
      SolverReport::global().write((base / "solver_report.json").string());
  return trace_ok && report_ok;
}

bool append_bench_run(const std::string& path, const std::string& name,
                      JsonValue run) {
  run["unix_time"] = JsonValue(double(std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::system_clock::now().time_since_epoch()).count()));

  JsonValue doc;
  bool fresh = true;
  if (std::ifstream in(path); in) {
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
      JsonValue existing = JsonValue::parse(ss.str());
      if (string_or(existing, "schema", "") == kBenchSchema &&
          existing.find("runs") != nullptr) {
        doc = std::move(existing);
        fresh = false;
      }
    } catch (const Error&) {
      // Unreadable trajectory: start over rather than lose the new run.
    }
  }
  if (fresh) {
    doc = JsonValue::object();
    doc["schema"] = JsonValue(kBenchSchema);
    doc["name"] = JsonValue(name);
    doc["runs"] = JsonValue::array();
  }
  doc["runs"].push_back(std::move(run));

  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump(1) << "\n";
  return bool(out);
}

} // namespace ptatin::obs
