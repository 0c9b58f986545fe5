// ptatin_driver: the configurable production entry point.
//
// Select a model, a solver configuration, and run a time-stepped simulation
// with VTK output, per-step diagnostics, and durable checkpoint/restart —
// the way the real pTatin3D is driven through PETSc options (§III: "it is
// important that the solver design be simplified enough for the end user to
// make educated choices with predictable behavior").
//
// Examples:
//   ptatin_driver -model sinker -m 8 -steps 10 -output /tmp/run
//   ptatin_driver -model rifting -mx 16 -my 8 -mz 8 -steps 20
//                 -backend tens -levels 2 -coarse amg
//   ptatin_driver -model sinker -steps 10 -checkpoint_dir /tmp/run_ckpt
//                 -checkpoint_every 2 -checkpoint_keep 3
//   ptatin_driver -model sinker -steps 10 -restart /tmp/run_ckpt
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "obs/json.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"
#include "ptatin/checkpoint.hpp"
#include "ptatin/config.hpp"
#include "ptatin/context.hpp"
#include "ptatin/diagnostics.hpp"
#include "ptatin/exit_codes.hpp"
#include "ptatin/health.hpp"
#include "ptatin/stepper.hpp"
#include "ptatin/model_select.hpp"
#include "ptatin/vtk.hpp"

using namespace ptatin;

namespace {

/// Driver-level flags (run length, I/O); the model flags are registered by
/// describe_model_options() and the solver flags by
/// SolverConfig::describe_options().
void describe_driver_options() {
  Options::describe("steps", "N",
                    "total time steps (default 5; a restart resumes\n"
                    "towards N)");
  Options::describe("dt", "X", "first-step dt (then CFL)");
  Options::describe("cfl", "X", "CFL number (default 0.25)");
  Options::describe("output", "PREFIX", "VTK output prefix");
  Options::describe("vtk_every", "N", "VTK cadence (0 = off)");
  Options::describe("restart", "PATH",
                    "resume: a checkpoint file, or a rotation DIR\n"
                    "(newest that verifies)");
  Options::describe("final_state", "FILE",
                    "write a bitwise state digest JSON after the run\n"
                    "(restart diffing)");
  Options::describe("telemetry", "DIR",
                    "write DIR/trace.json (Chrome trace_event) +\n"
                    "DIR/solver_report.json");
  Options::describe("faults", "SPEC",
                    "arm fault injection, SPEC = site:nth[:kind[:count]],...");
  Options::describe("list_fault_sites", "",
                    "print the registered fault-site catalogue and exit\n"
                    "(machine-readable: one \"site\\tsummary\" per line)");
  Options::describe("verbose", "", "per-iteration logging");
  Options::describe("help", "", "print this help and exit");
}

/// Bitwise state digest for restart round-trip comparison (timing-free, so
/// two runs that agree on every state bit produce identical files).
bool write_final_state(const std::string& path, const PtatinContext& ctx,
                       const std::string& model, int steps) {
  const StateDigest d = digest_state(ctx);
  obs::JsonValue j = obs::JsonValue::object();
  j["schema"] = obs::JsonValue("ptatin.state_digest/1");
  j["model"] = obs::JsonValue(model);
  j["steps"] = obs::JsonValue(steps);
  j["coords_crc"] = obs::JsonValue((long long)d.coords_crc);
  j["velocity_crc"] = obs::JsonValue((long long)d.velocity_crc);
  j["pressure_crc"] = obs::JsonValue((long long)d.pressure_crc);
  j["temperature_crc"] = obs::JsonValue((long long)d.temperature_crc);
  j["points_crc"] = obs::JsonValue((long long)d.points_crc);
  j["num_points"] = obs::JsonValue(d.num_points);
  j["num_elements"] = obs::JsonValue(d.num_elements);
  std::ofstream f(path);
  if (!f) return false;
  f << j.dump(1) << "\n";
  return bool(f);
}

} // namespace

int main(int argc, char** argv) {
  Options o = Options::from_args(argc, argv);
  // The registered option descriptions (common/options.hpp) back both the
  // generated -help text and unknown-flag rejection: driver flags here,
  // model flags from the shared selector, solver flags from the unified
  // configuration.
  describe_driver_options();
  describe_model_options();
  SolverConfig::describe_options();
  if (o.get_bool("help", false)) {
    std::printf("ptatin_driver options:\n%s"
                "exit codes:\n"
                "  0  success\n"
                "  1  unrecovered solver failure\n"
                "  2  usage error (bad -model, malformed -faults, ...)\n"
                "  3  checkpoint/restart failure\n"
                "  4  health-check failure\n"
                "  6  silent data corruption (seal/sentinel detection no "
                "snapshot could heal)\n",
                Options::help_text().c_str());
    return int(DriverExit::kSuccess);
  }
  if (o.get_bool("list_fault_sites", false)) {
    for (const auto& site : fault::FaultInjector::known_sites())
      std::printf("%s\t%s\n", site.site, site.summary);
    return int(DriverExit::kSuccess);
  }
  // Unknown flags, and value flags given without a value, are a typed usage
  // error, not a silent no-op: a mistyped knob must never run the default
  // configuration under the user's nose.
  if (const auto unknown = o.unknown_keys(); !unknown.empty()) {
    std::fprintf(stderr, "error: %susage: ptatin_driver -help\n",
                 Options::format_unknown(unknown).c_str());
    return int(DriverExit::kUsageError);
  }
  if (o.get_bool("verbose", false)) set_log_level(LogLevel::kDebug);

  const std::string telemetry_dir = o.get_string("telemetry", "");
  if (!telemetry_dir.empty()) obs::enable_telemetry();

  const std::string faults = o.get_string("faults", "");
  if (!faults.empty() &&
      !fault::FaultInjector::instance().arm_from_spec(faults)) {
    std::fprintf(stderr, "error: malformed -faults spec '%s'\n",
                 faults.c_str());
    return int(DriverExit::kUsageError);
  }
  // Disarm at every exit path so armed-but-never-fired specs (a typo'd site
  // name tests nothing) are warned about; the chaos campaign greps for it.
  struct FaultTeardown {
    ~FaultTeardown() { fault::FaultInjector::instance().disarm_all(); }
  } fault_teardown;

  ModelSetup setup;
  try {
    setup = build_model_from_options(o);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return int(DriverExit::kUsageError);
  }
  const std::string name = setup.name;

  // All solver/stepper knobs (backend, GMG, decomposition, safeguard,
  // checkpoints) come from the unified configuration.
  SolverConfig cfg;
  try {
    cfg = SolverConfig::from_options(o);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return int(DriverExit::kUsageError);
  }
  const int vertical_axis = setup.vertical_axis;
  cfg.ptatin().ale.vertical_axis = vertical_axis;

  PtatinContext ctx(std::move(setup), cfg.ptatin());

  const int steps = o.get_int("steps", 5);
  const Real cfl = o.get_real("cfl", 0.25);
  const std::string prefix = o.get_string("output", "/tmp/" + name);
  const int vtk_every = o.get_int("vtk_every", 0);
  const SafeguardOptions& sg = cfg.safeguard();
  const int ckpt_every = sg.checkpoint_every;
  const std::string& ckpt_dir = sg.checkpoint_dir;

  const bool safeguard = cfg.use_safeguard();
  SafeguardedStepper stepper(ctx, cfg);

  // Restart: a rotation directory (newest checkpoint that verifies, with
  // automatic fallback over corrupt ones) or a single checkpoint file.
  const std::string restart = o.get_string("restart", "");
  int start_step = 0;
  if (!restart.empty()) {
    CheckpointMeta meta;
    try {
      if (std::filesystem::is_directory(restart)) {
        CheckpointRotation rot(restart, sg.checkpoint_keep);
        CheckpointRotation::LoadResult lr = rot.load_latest(ctx);
        for (const std::string& skipped : lr.skipped)
          std::printf("restart: skipped corrupt checkpoint %s\n",
                      skipped.c_str());
        meta = lr.meta;
        std::printf("restarted from %s (step %lld, t = %.6g)\n",
                    lr.path.c_str(), (long long)meta.step, meta.sim_time);
      } else {
        meta = load_checkpoint(restart, ctx);
        std::printf("restarted from %s (step %lld, t = %.6g)\n",
                    restart.c_str(), (long long)meta.step, meta.sim_time);
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "error: restart failed: %s\n", e.what());
      return int(DriverExit::kCheckpointFailure);
    }
    stepper.resume(meta);
    start_step = int(meta.step);

    // Never resume integration from a state that fails the health pass.
    const HealthReport hr = check_health(ctx, sg.health);
    if (!hr.ok) {
      std::fprintf(stderr, "error: restarted state failed health check: %s\n",
                   hr.summary().c_str());
      return int(DriverExit::kHealthFailure);
    }
  }

  // Reporting is read-only: const access keeps the non-const points()
  // accessor from bumping the state epoch, which would disarm the SDC seal
  // the safeguarded stepper arms between steps (docs/ROBUSTNESS.md).
  const PtatinContext& cctx = ctx;

  const auto dshape = cfg.decomp_shape();
  std::printf("== pTatin3D driver: model %s, %lld elements, %lld material "
              "points, decomp %lldx%lldx%lld, steps %d..%d ==\n",
              name.c_str(), (long long)ctx.mesh().num_elements(),
              (long long)cctx.points().size(), (long long)dshape[0],
              (long long)dshape[1], (long long)dshape[2], start_step + 1,
              steps);

  DriverExit outcome = DriverExit::kSuccess;
  double total = 0;
  for (int s = start_step + 1; s <= steps; ++s) {
    Real dt = ctx.suggest_dt(cfl);
    if (s == 1 || dt <= 0) dt = o.get_real("dt", 0.002);
    StepReport rep;
    if (safeguard) {
      SafeguardedStepResult sres = stepper.advance(dt);
      rep = std::move(sres.report);
      dt = sres.dt_used;
      if (sres.retries > 0 && sres.ok)
        std::printf("          recovered after %d retr%s (dt -> %.3e)\n",
                    sres.retries, sres.retries == 1 ? "y" : "ies", dt);
      if (!sres.checkpoint_path.empty())
        std::printf("          checkpoint written: %s\n",
                    sres.checkpoint_path.c_str());
      if (!sres.ok) {
        const std::string& why =
            sres.failures.empty() ? std::string("unknown")
                                  : sres.failures.back();
        std::fprintf(stderr, "error: step %d failed beyond recovery (%s)\n",
                     s, why.c_str());
        outcome = sdc::is_sdc_failure(why) ? DriverExit::kSdcFailure
                  : why.rfind("health:", 0) == 0 ? DriverExit::kHealthFailure
                                                 : DriverExit::kSolverFailure;
        break;
      }
    } else {
      try {
        rep = ctx.step(dt);
      } catch (const Error& e) {
        std::fprintf(stderr, "error: step %d threw (%s)\n", s, e.what());
        outcome = DriverExit::kSolverFailure;
        break;
      }
    }
    total += rep.seconds;

    const FlowStats fs =
        compute_flow_stats(ctx.mesh(), ctx.coefficients(), ctx.velocity());
    const TopographyField topo =
        extract_topography(ctx.mesh(), vertical_axis);
    std::printf("step %3d  dt=%.3e  newton=%d  krylov=%-5ld u_rms=%.3e  "
                "topo=[%+.4f,%+.4f]  pts=%lld  %.1fs\n",
                s, dt, rep.nonlinear.iterations,
                rep.nonlinear.total_krylov_iterations, fs.u_rms,
                topo.min - topo.mean, topo.max - topo.mean,
                (long long)cctx.points().size(), rep.seconds);

    char tag[32];
    if (vtk_every > 0 && s % vtk_every == 0) {
      std::snprintf(tag, sizeof tag, "_%04d.vtk", s);
      write_vtk_structured(prefix + "_mesh" + tag, ctx.mesh(), ctx.velocity(),
                           ctx.pressure(), &ctx.coefficients());
      write_vtk_points(prefix + "_pts" + tag, cctx.points());
    }
    // Legacy single-file checkpoints (no integrity rotation): only when no
    // -checkpoint_dir is configured, and when running unguarded also as the
    // only checkpoint path.
    if (ckpt_every > 0 && ckpt_dir.empty() && s % ckpt_every == 0) {
      CheckpointMeta meta;
      meta.step = s;
      meta.sim_time = stepper.sim_time();
      std::snprintf(tag, sizeof tag, "_ckpt_%04d.bin", s);
      save_checkpoint(prefix + tag, ctx, meta);
      std::printf("          checkpoint written: %s%s\n", prefix.c_str(),
                  tag);
    }
  }
  if (outcome == DriverExit::kSuccess)
    std::printf("== done: %.1f s total, %.1f s/step ==\n", total,
                total / std::max(1, steps - start_step));

  const std::string final_state = o.get_string("final_state", "");
  if (!final_state.empty() && outcome == DriverExit::kSuccess) {
    if (write_final_state(final_state, ctx, name, steps))
      std::printf("state digest written: %s\n", final_state.c_str());
    else
      std::fprintf(stderr, "warning: failed to write %s\n",
                   final_state.c_str());
  }

  if (!telemetry_dir.empty()) {
    auto& report = obs::SolverReport::global();
    report.set_meta("model", name);
    report.set_meta("steps", std::to_string(steps));
    report.set_meta("backend", o.get_string("backend", "tens"));
    KernelSpec kernel = cfg.stokes().kernel;
    kernel.engine = ctx.subdomain_engine();
    report.set_meta("kernel", kernel_label(kernel));
    report.set_meta("decomp", std::to_string(dshape[0]) + "x" +
                                  std::to_string(dshape[1]) + "x" +
                                  std::to_string(dshape[2]));
    report.set_meta("driver", "ptatin_driver");
    if (obs::write_telemetry(telemetry_dir)) {
      std::printf("telemetry written: %s/{trace.json,solver_report.json}\n",
                  telemetry_dir.c_str());
    } else {
      std::fprintf(stderr, "warning: failed to write telemetry to %s\n",
                   telemetry_dir.c_str());
    }
    std::printf("%s", PerfRegistry::instance().summary().c_str());
  }
  if (outcome != DriverExit::kSuccess)
    std::fprintf(stderr, "exit: %d (%s)\n", int(outcome), describe(outcome));
  return int(outcome);
}
