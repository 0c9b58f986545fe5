#include "serve/job_spec.hpp"

#include "common/error.hpp"
#include "obs/report.hpp"
#include "ptatin/model_select.hpp"
#include "serve/digest.hpp"

namespace ptatin::serve {

namespace {

// Back-end tokens come from fem/kernel_spec.hpp (fine_operator_token) — the
// one place that spells them.

const char* coarse_name(GmgCoarseSolve c) {
  switch (c) {
    case GmgCoarseSolve::kAmg: return "amg";
    case GmgCoarseSolve::kBJacobiLu: return "bjacobi";
    case GmgCoarseSolve::kAsmCg: return "asmcg";
  }
  return "?";
}

[[noreturn]] void throw_unknown(const std::vector<Options::UnknownKey>& u) {
  std::string msg = Options::format_unknown(u);
  while (!msg.empty() && msg.back() == '\n') msg.pop_back();
  PT_THROW("job spec: " + msg);
}

} // namespace

void JobSpec::describe_options() {
  Options::describe("name", "LABEL", "job display name (not part of the\n"
                                     "cache digest)");
  Options::describe("priority", "N",
                    "scheduling class, higher first (default 0; may\n"
                    "preempt lower classes at step boundaries)");
  Options::describe("cores", "N",
                    "thread budget while running (default 1; admission\n"
                    "against the fleet's shared core budget)");
  Options::describe("steps", "N", "number of timesteps (default 5)");
  Options::describe("dt", "X", "initial/fallback dt (default 0.002)");
  Options::describe("cfl", "X", "CFL number (default 0.25)");
}

JobSpec JobSpec::from_json(const obs::JsonValue& obj) {
  // Every key family a spec may use must be registered before the strict
  // unknown-key pass, so validation sees the same registry -help does.
  describe_options();
  describe_model_options();
  SolverConfig::describe_options();
  const Options o = options_from_json(obj);
  if (const auto unknown = o.unknown_keys(); !unknown.empty())
    throw_unknown(unknown);

  JobSpec s;
  s.name = o.get_string("name", "");
  s.priority = o.get_int("priority", 0);
  s.cores = o.get_int("cores", 1);
  s.steps = o.get_int("steps", 5);
  s.dt0 = o.get_real("dt", 0.002);
  s.cfl = o.get_real("cfl", 0.25);
  PT_ASSERT_MSG(s.cores >= 1, "job spec: cores must be >= 1");
  PT_ASSERT_MSG(s.steps >= 1, "job spec: steps must be >= 1");
  PT_ASSERT_MSG(s.dt0 > 0, "job spec: dt must be > 0");
  s.options = o;
  s.config = SolverConfig::from_options(o);
  // Resolve the model now so a bad -model value fails at submission, not
  // when the job is finally scheduled.
  int vaxis = 2;
  (void)build_model_from_options(o, vaxis);
  return s;
}

JobSpec JobSpec::from_json_text(const std::string& text) {
  return from_json(obs::JsonValue::parse(text));
}

obs::JsonValue JobSpec::canonical_json() const {
  const PtatinOptions& po = config.ptatin();
  const StokesSolverOptions& so = config.stokes();
  const SafeguardOptions& sg = config.safeguard();

  obs::JsonValue j = obs::JsonValue::object();
  j["schema"] = obs::JsonValue(obs::kJobSchema);
  j["model_params"] = canonical_model_json(options);

  obs::JsonValue run = obs::JsonValue::object();
  run["steps"] = obs::JsonValue(steps);
  run["dt"] = obs::JsonValue(dt0);
  run["cfl"] = obs::JsonValue(cfl);
  j["run"] = std::move(run);

  // Resolved solver parameters, fixed key order. Reading the parsed config
  // (not the raw options) makes default-filled and explicitly-spelled
  // defaults indistinguishable by construction.
  obs::JsonValue s = obs::JsonValue::object();
  s["backend"] = obs::JsonValue(fine_operator_token(so.kernel.type));
  obs::JsonValue decomp = obs::JsonValue::array();
  for (Index d : po.decomp) decomp.push_back(obs::JsonValue((long long)d));
  s["decomp"] = std::move(decomp);
  s["levels"] = obs::JsonValue(so.gmg.levels);
  s["coarse"] = obs::JsonValue(coarse_name(so.coarse_solve));
  s["amg_coarse_size"] = obs::JsonValue((long long)so.amg.coarse_size);
  s["newton"] = obs::JsonValue(po.nonlinear.use_newton);
  s["picard_fallback"] = obs::JsonValue(po.nonlinear.fallback_to_picard);
  s["max_newton"] = obs::JsonValue(po.nonlinear.max_it);
  s["nonlinear_rtol"] = obs::JsonValue(po.nonlinear.rtol);
  s["krylov_rtol"] = obs::JsonValue(so.krylov.rtol);
  s["krylov_maxit"] = obs::JsonValue(so.krylov.max_it);
  s["dtol"] = obs::JsonValue(so.krylov.dtol);
  s["ppd"] = obs::JsonValue(po.points_per_dim);
  s["ale"] = obs::JsonValue(po.update_mesh);
  // Safeguard knobs shape the dt sequence when a step has to be retried, so
  // they are result-determining; checkpoint dir/cadence/keep are not (the
  // restart round-trip CI proves cadence never changes state bits), and the
  // fleet overrides the directory per job anyway.
  s["safeguard"] = obs::JsonValue(config.use_safeguard());
  s["max_retries"] = obs::JsonValue(sg.max_retries);
  s["dt_cut_factor"] = obs::JsonValue(sg.dt_cut_factor);
  s["dt_grow"] = obs::JsonValue(sg.dt_grow_factor);
  s["health_every"] = obs::JsonValue(sg.health_every);
  j["solver"] = std::move(s);
  return j;
}

std::string JobSpec::digest() const { return digest_string(canonical_json().dump()); }

ModelSetup JobSpec::build_model(int& vertical_axis) const {
  return build_model_from_options(options, vertical_axis);
}

std::vector<JobSpec> parse_job_batch(const std::string& text) {
  const obs::JsonValue doc = obs::JsonValue::parse(text);
  const obs::JsonValue* arr = &doc;
  if (doc.is_object()) arr = doc.find("jobs");
  PT_ASSERT_MSG(arr != nullptr && arr->is_array(),
                "job batch: expected a JSON array of job objects or "
                "{\"jobs\": [...]}");
  std::vector<JobSpec> out;
  out.reserve(arr->size());
  for (std::size_t i = 0; i < arr->size(); ++i) {
    try {
      out.push_back(JobSpec::from_json(arr->at(i)));
    } catch (const Error& e) {
      PT_THROW("job " + std::to_string(i + 1) + ": " + e.what());
    }
  }
  return out;
}

} // namespace ptatin::serve
