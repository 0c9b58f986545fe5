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
  sdc_ = SdcRecord{};
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

JsonValue state_to_json(const StateRecord& s) {
  JsonValue j = JsonValue::object();
  j["checkpoint_saves"] = JsonValue(s.checkpoint_saves);
  j["checkpoint_save_failures"] = JsonValue(s.checkpoint_save_failures);
  j["restarts"] = JsonValue(s.restarts);
  j["restart_step"] = JsonValue(s.restart_step);
  j["restart_path"] = JsonValue(s.restart_path);
  JsonValue skipped = JsonValue::array();
  for (const auto& p : s.corrupt_skipped) skipped.push_back(JsonValue(p));
  j["corrupt_skipped"] = std::move(skipped);
  j["health_checks"] = JsonValue(s.health_checks);
  j["health_failures"] = JsonValue(s.health_failures);
  j["health_repairs"] = JsonValue(s.health_repairs);
  return j;
}

JsonValue sdc_to_json(const SdcRecord& s) {
  JsonValue j = JsonValue::object();
  j["seals_armed"] = JsonValue(s.seals_armed);
  j["seal_verifies"] = JsonValue(s.seal_verifies);
  j["scrubs"] = JsonValue(s.scrubs);
  j["detections"] = JsonValue(s.detections);
  j["heals"] = JsonValue(s.heals);
  j["sentinel_checks"] = JsonValue(s.sentinel_checks);
  j["sentinel_trips"] = JsonValue(s.sentinel_trips);
  j["unrecovered"] = JsonValue(s.unrecovered);
  return j;
}

std::vector<double> number_array(const JsonValue* a) {
  std::vector<double> out;
  if (a == nullptr || !a->is_array()) return out;
  out.reserve(a->size());
  for (std::size_t i = 0; i < a->size(); ++i) out.push_back(a->at(i).as_number());
  return out;
}

std::string string_or(const JsonValue& obj, const std::string& key,
                      const std::string& dflt) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type() == JsonValue::Type::kString ? v->as_string()
                                                               : dflt;
}

double number_or(const JsonValue& obj, const std::string& key, double dflt) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type() == JsonValue::Type::kNumber ? v->as_number()
                                                               : dflt;
}

bool bool_or(const JsonValue& obj, const std::string& key, bool dflt) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type() == JsonValue::Type::kBool ? v->as_bool()
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
  j["sdc"] = sdc_to_json(sdc_);
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

SolverReport SolverReport::parse(const std::string& json_text) {
  const JsonValue j = JsonValue::parse(json_text);
  PT_ASSERT_MSG(string_or(j, "schema", "") == kSolverReportSchema,
                "not a ptatin.solver_report/1 document");
  SolverReport rep;
  if (const JsonValue* meta = j.find("meta"); meta != nullptr)
    for (const auto& [k, v] : meta->members()) rep.meta_[k] = v.as_string();

  if (const JsonValue* krylov = j.find("krylov"); krylov != nullptr)
    for (std::size_t i = 0; i < krylov->size(); ++i) {
      const JsonValue& r = krylov->at(i);
      KrylovRecord rec;
      rec.label = string_or(r, "label", "");
      rec.method = string_or(r, "method", "");
      rec.converged = bool_or(r, "converged", false);
      rec.iterations = int(number_or(r, "iterations", 0));
      rec.initial_residual = number_or(r, "initial_residual", 0);
      rec.final_residual = number_or(r, "final_residual", 0);
      rec.seconds = number_or(r, "seconds", 0);
      rec.reason = string_or(r, "reason", "");
      rec.history = number_array(r.find("history"));
      rep.krylov_.push_back(std::move(rec));
    }

  if (const JsonValue* newton = j.find("newton"); newton != nullptr)
    for (std::size_t i = 0; i < newton->size(); ++i) {
      const JsonValue& r = newton->at(i);
      NewtonRecord rec;
      rec.label = string_or(r, "label", "");
      rec.converged = bool_or(r, "converged", false);
      rec.iterations = int(number_or(r, "iterations", 0));
      rec.total_krylov_iterations =
          long(number_or(r, "total_krylov_iterations", 0));
      rec.seconds = number_or(r, "seconds", 0);
      rec.failure = string_or(r, "failure", "");
      rec.fallbacks = int(number_or(r, "fallbacks", 0));
      rec.residual_history = number_array(r.find("residual_history"));
      for (double v : number_array(r.find("krylov_per_iteration")))
        rec.krylov_per_iteration.push_back(int(v));
      rec.step_lengths = number_array(r.find("step_lengths"));
      rep.newton_.push_back(std::move(rec));
    }

  if (const JsonValue* sg = j.find("safeguards"); sg != nullptr)
    for (std::size_t i = 0; i < sg->size(); ++i) {
      const JsonValue& r = sg->at(i);
      SafeguardRecord rec;
      rec.step = int(number_or(r, "step", 0));
      rec.recovered = bool_or(r, "recovered", false);
      rec.retries = int(number_or(r, "retries", 0));
      rec.dt_history = number_array(r.find("dt_history"));
      if (const JsonValue* fails = r.find("failures");
          fails != nullptr && fails->is_array())
        for (std::size_t k = 0; k < fails->size(); ++k)
          rec.failures.push_back(fails->at(k).as_string());
      rep.safeguards_.push_back(std::move(rec));
    }

  if (const JsonValue* pop = j.find("population"); pop != nullptr)
    for (std::size_t i = 0; i < pop->size(); ++i) {
      const JsonValue& r = pop->at(i);
      PopulationRecord rec;
      rec.step = int(number_or(r, "step", 0));
      rec.injected = (long long)(number_or(r, "injected", 0));
      rec.removed = (long long)(number_or(r, "removed", 0));
      rec.deficient = (long long)(number_or(r, "deficient", 0));
      rec.min_per_cell = (long long)(number_or(r, "min_per_cell", 0));
      rec.max_per_cell = (long long)(number_or(r, "max_per_cell", 0));
      rep.population_.push_back(rec);
    }

  if (const JsonValue* st = j.find("state"); st != nullptr) {
    rep.state_.checkpoint_saves = int(number_or(*st, "checkpoint_saves", 0));
    rep.state_.checkpoint_save_failures =
        int(number_or(*st, "checkpoint_save_failures", 0));
    rep.state_.restarts = int(number_or(*st, "restarts", 0));
    rep.state_.restart_step = (long long)(number_or(*st, "restart_step", -1));
    rep.state_.restart_path = string_or(*st, "restart_path", "");
    if (const JsonValue* skipped = st->find("corrupt_skipped");
        skipped != nullptr && skipped->is_array())
      for (std::size_t k = 0; k < skipped->size(); ++k)
        rep.state_.corrupt_skipped.push_back(skipped->at(k).as_string());
    rep.state_.health_checks = int(number_or(*st, "health_checks", 0));
    rep.state_.health_failures = int(number_or(*st, "health_failures", 0));
    rep.state_.health_repairs = int(number_or(*st, "health_repairs", 0));
  }

  if (const JsonValue* sd = j.find("sdc"); sd != nullptr) {
    rep.sdc_.seals_armed = (long long)(number_or(*sd, "seals_armed", 0));
    rep.sdc_.seal_verifies = (long long)(number_or(*sd, "seal_verifies", 0));
    rep.sdc_.scrubs = (long long)(number_or(*sd, "scrubs", 0));
    rep.sdc_.detections = (long long)(number_or(*sd, "detections", 0));
    rep.sdc_.heals = (long long)(number_or(*sd, "heals", 0));
    rep.sdc_.sentinel_checks =
        (long long)(number_or(*sd, "sentinel_checks", 0));
    rep.sdc_.sentinel_trips = (long long)(number_or(*sd, "sentinel_trips", 0));
    rep.sdc_.unrecovered = (long long)(number_or(*sd, "unrecovered", 0));
  }

  if (const JsonValue* d = j.find("decomposition"); d != nullptr) {
    DecompRecord rec;
    rec.px = (long long)(number_or(*d, "px", 1));
    rec.py = (long long)(number_or(*d, "py", 1));
    rec.pz = (long long)(number_or(*d, "pz", 1));
    rec.applies = (long long)(number_or(*d, "applies", 0));
    rec.halo_bytes_sent = (long long)(number_or(*d, "halo_bytes_sent", 0));
    rec.halo_bytes_received =
        (long long)(number_or(*d, "halo_bytes_received", 0));
    rec.exchange_seconds = number_or(*d, "exchange_seconds", 0);
    rec.interior_seconds = number_or(*d, "interior_seconds", 0);
    rec.boundary_seconds = number_or(*d, "boundary_seconds", 0);
    rec.interior_elements = (long long)(number_or(*d, "interior_elements", 0));
    rec.boundary_elements = (long long)(number_or(*d, "boundary_elements", 0));
    rep.set_decomposition(rec);
  }
  return rep;
}

void enable_telemetry(bool on) {
  Tracer::instance().set_enabled(on);
  SolverReport::global().set_enabled(on);
}

bool telemetry_enabled() { return SolverReport::global().enabled(); }

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
