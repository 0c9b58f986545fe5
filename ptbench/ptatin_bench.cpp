// ptatin_bench: one benchmark workload per process (ptbench/README.md).
//
//   ptatin_bench --workload NAME --seed N --seconds S --out FILE
//                [--trace_dir DIR] [--smoke true]
//
// Every run times its workload with tracing off and reports the end-to-end
// metrics. With --trace_dir it then repeats the timed operations with
// telemetry on, derives the per-layer ledger from the PerfRegistry events
// and counters the solver stack already exposes, runs the kernel, halo,
// setup and host probes, and writes DIR/trace.json. Nothing is timed from
// inside the solver: the bench calls public functions and reads counters.
//
// The result is one JSON document (schema ptbench.result/1) written to
// --out; run.py checks it and prints the metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/options.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "fem/subdomain_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"
#include "ptatin/checkpoint.hpp"
#include "ptatin/config.hpp"
#include "ptatin/diagnostics.hpp"
#include "ptatin/health.hpp"
#include "ptatin/models_rifting.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"
#include "stokes/geometry.hpp"

using namespace ptatin;

namespace {

// --- workloads ---------------------------------------------------------------

enum class Kind { kStokes, kSteps };

/// One named workload, a closed loop with one caller: each operation starts
/// when the previous one returns. `nominal_op_s` is the cost of one
/// operation (a solve, or one execution of a step) at 2 threads on the
/// reference host. The number of timed operations follows from --seconds
/// and nominal_op_s alone, before timing starts, so two commits run with the
/// same --seconds time the same operations.
struct Workload {
  const char* name;
  Kind kind;
  const char* model;  ///< "sinker" | "rifting"
  bool decomp;        ///< attach a 2x2x1 SubdomainEngine (stokes only)
  Real cfl;           ///< dt protocol (steps only)
  double nominal_op_s;
};

constexpr Workload kWorkloads[] = {
    {"stokes_sinker12", Kind::kStokes, "sinker", false, 0.0, 6.5},
    {"stokes_sinker12_decomp", Kind::kStokes, "sinker", true, 0.0, 6.7},
    {"steps_sinker12", Kind::kSteps, "sinker", false, 0.1, 3.3},
    {"steps_rifting", Kind::kSteps, "rifting", false, 0.25, 2.7},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir; ///< empty = untraced run
  bool smoke = false;    ///< tiny meshes, one timed operation
  std::string out;
};

// --- statistics ----------------------------------------------------------------

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
/// default "exclusive" method), so C++ and run.py agree on every spread.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  auto at = [&](int j) {
    const double pos = j * (n + 1) / 4.0; // 1-based position
    const double lo = std::clamp(std::floor(pos), 1.0, n - 1);
    const double frac = std::clamp(pos - lo, 0.0, 1.0);
    const auto i = static_cast<std::size_t>(lo) - 1;
    return v[i] + (v[i + 1] - v[i]) * frac;
  };
  return {at(1), at(2), at(3)};
}

double median(const std::vector<double>& v) { return quartiles(v).median; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

/// Per-apply timing samples after one warm-up apply (which for Asmb also
/// pays assembly). Reported as quartiles, not a mean, so one descheduled
/// apply on a shared host cannot skew the row.
Quartiles time_apply(const LinearOperator& op, const Vector& x, Vector& y,
                     int reps) {
  op.apply(x, y);
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    Timer t;
    op.apply(x, y);
    samples.push_back(t.seconds());
  }
  return quartiles(std::move(samples));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

// --- result document -------------------------------------------------------

class MetricSet {
public:
  void set(const std::string& name, double value, const char* unit) {
    obs::JsonValue m = obs::JsonValue::object();
    m["value"] = obs::JsonValue(value);
    m["unit"] = obs::JsonValue(unit);
    doc_[name] = std::move(m);
  }
  obs::JsonValue& json() { return doc_; }

private:
  obs::JsonValue doc_ = obs::JsonValue::object();
};

struct Result {
  long long ops = 0;
  long long ops_failed = 0;
  std::vector<std::string> failures;
  MetricSet e2e, layer;
  obs::JsonValue info = obs::JsonValue::object();

  /// Count one operation; `why` empty = it succeeded.
  void op(const std::string& why) {
    ++ops;
    if (!why.empty()) {
      ++ops_failed;
      if (failures.size() < 20) failures.push_back(why);
    }
  }
};

obs::JsonValue json_array(const std::vector<double>& v) {
  obs::JsonValue a = obs::JsonValue::array();
  for (double x : v) a.push_back(obs::JsonValue(x));
  return a;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

// --- seeded model instances ------------------------------------------------

/// Sphere centers of the seed's sinker instance: the reference layout of
/// SinkerParams (its default seed) with each center shifted by up to 1% of
/// an element per axis, which moves a few quadrature points and material
/// points across sphere surfaces. The Krylov and Newton counts are very
/// sensitive to where the surfaces cut those points: a fresh random layout
/// per seed moves the solve's Krylov count by up to half (191 to 295 at
/// m=8), a 5% shift the step's by up to 40%; either would swamp a code
/// change. At 1% the counts stay within about 2% of each other.
std::vector<Vec3> sinker_centers(const SinkerParams& p, std::uint64_t seed) {
  SinkerParams ref = p;
  ref.seed = SinkerParams{}.seed;
  std::vector<Vec3> centers = sinker_sphere_centers(ref);
  Rng rng(seed);
  const Real shift = Real(0.01) / Real(p.mx);
  const Real margin = p.radius * Real(1.05);
  const Real min_d2 = 4 * p.radius * p.radius * Real(1.1);
  for (std::size_t s = 0; s < centers.size(); ++s) {
    Vec3 c = centers[s];
    for (int attempt = 0; attempt < 100; ++attempt) {
      Vec3 t = c;
      bool ok = true;
      for (int d = 0; d < 3; ++d) {
        t[d] += rng.uniform(-shift, shift);
        ok = ok && t[d] >= margin && t[d] <= 1 - margin;
      }
      for (std::size_t o = 0; o < s && ok; ++o) {
        Real d2 = 0;
        for (int d = 0; d < 3; ++d)
          d2 += (t[d] - centers[o][d]) * (t[d] - centers[o][d]);
        ok = d2 >= min_d2;
      }
      if (ok) {
        c = t;
        break;
      }
    }
    centers[s] = c;
  }
  return centers;
}

std::function<int(const Vec3&)> sphere_lithology(std::vector<Vec3> centers,
                                                 Real radius) {
  const Real r2 = radius * radius;
  return [centers = std::move(centers), r2](const Vec3& x) {
    for (const Vec3& c : centers) {
      const Real d2 = (x[0] - c[0]) * (x[0] - c[0]) +
                      (x[1] - c[1]) * (x[1] - c[1]) +
                      (x[2] - c[2]) * (x[2] - c[2]);
      if (d2 < r2) return 1;
    }
    return 0;
  };
}

/// The analytic sinker_coefficients of the seed's instance (spheres sampled
/// at the quadrature points, no material points).
QuadCoefficients sinker_instance_coefficients(const StructuredMesh& mesh,
                                              const SinkerParams& p,
                                              std::uint64_t seed) {
  const auto inside = sphere_lithology(sinker_centers(p, seed), p.radius);
  QuadCoefficients c(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const bool in = inside({g.xq[q][0], g.xq[q][1], g.xq[q][2]}) == 1;
      c.eta(e, q) = in ? 1.0 : Real(1) / p.contrast;
      c.rho(e, q) = in ? p.sphere_density : 1.0;
    }
  }
  return c;
}

SinkerParams sinker_params(Index m) {
  SinkerParams p; // 8 spheres, radius 0.1
  p.mx = p.my = p.mz = m;
  p.contrast = 1e3; // Table II / driver default
  return p;
}

RiftingParams rifting_params(const Args& a) {
  RiftingParams p;
  if (a.smoke) {
    p.mx = 8, p.my = 4, p.mz = 4;
  } else {
    p.mx = 32, p.my = 8, p.mz = 16;
  }
  return p;
}

/// The seed's rifting instance: the reference initial topography
/// (RiftingParams' default seed) with the damage-zone plastic strain drawn
/// from the seed. Redrawing the random topography as well moves the Krylov
/// count of the timed steps by up to a sixth between seeds, because the
/// first solves relax exactly that topography (models_rifting.hpp).
ModelSetup rifting_instance(const RiftingParams& p, std::uint64_t seed) {
  ModelSetup m = make_rifting_model(p);
  auto rng = std::make_shared<Rng>(seed);
  m.initial_damage = [zone = m.initial_damage, rng,
                      amp = p.damage_amplitude](const Vec3& x) {
    return zone(x) > 0 ? amp * rng->uniform(0.0, 1.0) : Real(0);
  };
  return m;
}

/// The workload's model, generated from the seed.
ModelSetup build_model(const Args& a) {
  if (std::string(a.workload->model) == "rifting")
    return rifting_instance(rifting_params(a), a.seed);
  const SinkerParams p = sinker_params(a.smoke ? 4 : 12);
  ModelSetup m = make_sinker_model(p);
  m.lithology_of = sphere_lithology(sinker_centers(p, a.seed), p.radius);
  return m;
}

/// The production (driver) configuration for the workload, through the
/// same options path ptatin_driver uses.
SolverConfig workload_config(const Args& a) {
  Options o;
  if (std::string(a.workload->model) == "rifting") {
    const RiftingParams p = rifting_params(a);
    o.set("mx", std::to_string(p.mx));
  } else {
    o.set("m", a.smoke ? "4" : "12");
  }
  SolverConfig cfg = SolverConfig::from_options(o);
  cfg.ptatin().ale.vertical_axis =
      std::string(a.workload->model) == "rifting" ? 1 : 2;
  return cfg;
}

/// Setup repetitions per run, all after the timed operations; setup_s is
/// their median. One setup takes 0.02-0.15 s, so a single slow second on a
/// shared host spoils several of them: 31 keep the median steady. Setup is
/// mostly allocation and first touch, and in a fresh process, before the
/// timed operations have grown the heap, the same setup runs 20-50% slower
/// by an amount that varies from run to run.
constexpr int kSetups = 31;
/// A median over timed solves must be able to drop one slow sample.
constexpr int kMinSolves = 3;
/// Distinct timed steps: the early steps of a run differ in Krylov count
/// (the rifting solves first relax the initial topography), so one step
/// does not represent the run.
constexpr int kMinSteps = 3;
/// Executions of each timed step from the same state (see timed_step).
constexpr int kReplays = 2;

int solve_count(const Args& a) {
  if (a.smoke) return 1;
  return std::max(kMinSolves,
                  int(std::lround(a.seconds / a.workload->nominal_op_s)));
}

int step_count(const Args& a) {
  if (a.smoke) return 1;
  return std::max(kMinSteps,
                  int(std::lround(a.seconds / (kReplays *
                                               a.workload->nominal_op_s))));
}

// --- per-layer ledger from the PerfRegistry --------------------------------

/// PerfRegistry totals divided by the number of timed operations.
struct Events {
  double per = 1.0;

  double operator()(const std::string& name) const {
    return PerfRegistry::instance().event(name).seconds() / per;
  }
  /// Sum over every event whose name starts with `prefix`.
  double sum(const std::string& prefix) const {
    double s = 0.0;
    for (const auto& [name, ev] : PerfRegistry::instance().events())
      if (name.rfind(prefix, 0) == 0) s += ev.seconds();
    return s / per;
  }
};

long long counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

void reset_registries() {
  PerfRegistry::instance().reset_all();
  obs::MetricsRegistry::instance().reset_all();
}

/// The Krylov / saddle / multigrid leaves every workload shares (seconds per
/// op). Each "self" and "other" leaf is its span minus its child spans, so
/// together they cover KSPSolve(GCR) exactly; that time is returned.
double solver_layers(const Events& ev, int levels, Result& r) {
  const double ksp = ev("KSPSolve(GCR)");
  const double pc = ev("PCApply(Stokes)");
  const double mm = ev("MatMult(Stokes)");
  const double gmg = ev("PCApply(GMG)");
  // Level 0 is the coarsest (src/mg/gmg.cpp).
  const double smooth_fine =
      ev("MGSmooth(L" + std::to_string(levels - 1) + ")");
  const double smooth_coarse = ev.sum("MGSmooth(") - smooth_fine;
  const double transfer = ev.sum("MGTransfer(");
  const double coarse = ev("MGCoarseSolve");

  r.layer.set("ksp.its", double(counter("ksp.gcr.iterations")) / ev.per,
              "count");
  r.layer.set("ksp.self_s", ksp - pc - mm, "s");
  r.layer.set("saddle.matmult_s", mm, "s");
  r.layer.set("saddle.pc_s", pc, "s");
  r.layer.set("saddle.schur_s", pc - gmg, "s");
  r.layer.set("mg.vcycles", double(counter("mg.vcycles")) / ev.per, "count");
  r.layer.set("mg.smooth_fine_s", smooth_fine, "s");
  r.layer.set("mg.smooth_coarse_s", smooth_coarse, "s");
  r.layer.set("mg.transfer_s", transfer, "s");
  r.layer.set("mg.coarse_solve_s", coarse, "s");
  r.layer.set("mg.other_s",
              gmg - smooth_fine - smooth_coarse - transfer - coarse, "s");
  const double setups = double(counter("mg.rap.setups"));
  const double refreshes = double(counter("mg.rap.refreshes"));
  r.layer.set("mg.rap_refresh_ratio",
              setups + refreshes > 0 ? refreshes / (setups + refreshes) : 0.0,
              "ratio");
  return ksp;
}

/// The step-only stages on a workload that bypasses them. They are stated
/// as shares of the operation, so a bypassed stage reads 0 rather than a
/// constant time.
void zero_step_layers(Result& r) {
  for (const char* name :
       {"nonlin.self_frac", "nonlin.ls_cut_frac", "ptatin.coeff_update_frac",
        "ptatin.pre_solve_frac", "ptatin.plastic_frac",
        "ptatin.safeguard_frac", "ptatin.other_frac", "ptatin.retry_frac",
        "mpm.advect_frac", "mpm.population_frac", "energy.frac", "ale.frac"})
    r.layer.set(name, 0.0, "frac");
  r.layer.set("nonlin.newton_its", 0.0, "count");
}

// --- probes (traced run only) ----------------------------------------------

struct HostPeaks {
  double triad_gbs = 0.0;
  double fma_gflops = 0.0;
};

/// The roofline denominators at the workload's thread count: STREAM triad
/// a = b + s*c with each array four times the last-level cache, and a
/// register-resident FMA loop built with the repository's flags.
HostPeaks host_peaks(bool smoke, Result& r) {
  obs::Span span("bench.probe.host");
  HostPeaks h;
  const double llc = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
  const double array_bytes =
      smoke ? 32.0 * 1048576 : std::max(4.0 * llc, 256.0 * 1048576);
  const auto n = static_cast<long long>(array_bytes / sizeof(double));
  {
    // Left uninitialised so that the parallel loop below is the first touch.
    std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
        c(new double[n]);
#pragma omp parallel for schedule(static)
    for (long long i = 0; i < n; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
    const double s = 3.0;
    for (int rep = 0; rep < 5; ++rep) {
      Timer t;
#pragma omp parallel for schedule(static)
      for (long long i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
      h.triad_gbs =
          std::max(h.triad_gbs, 3.0 * 8.0 * double(n) / t.seconds() * 1e-9);
    }
    if (a[n / 2] != 7.0) r.op("host triad produced a wrong value");
  }
  r.info["host_llc_mib"] = obs::JsonValue(llc / 1048576);
  r.info["host_triad_array_mib"] = obs::JsonValue(double(n) * 8 / 1048576);

  constexpr int kLanes = 64; // 8 AVX-512 registers of independent chains
  const long iters = smoke ? 2000000 : 20000000;
  for (int rep = 0; rep < 3; ++rep) {
    double sink = 0.0;
    Timer t;
#pragma omp parallel reduction(+ : sink)
    {
      alignas(64) double x[kLanes];
      for (int l = 0; l < kLanes; ++l) x[l] = 1.0 + 1e-3 * l;
      for (long it = 0; it < iters; ++it) {
#pragma omp simd
        for (int l = 0; l < kLanes; ++l)
          x[l] = std::fma(x[l], 0.9999999, 1e-7);
      }
      for (int l = 0; l < kLanes; ++l) sink += x[l];
    }
    const double sec = t.seconds();
    if (!std::isfinite(sink)) r.op("host fma loop produced a non-finite value");
    h.fma_gflops = std::max(h.fma_gflops, 2.0 * kLanes * double(iters) *
                                              num_threads() / sec * 1e-9);
  }
  r.layer.set("host.triad_gbs", h.triad_gbs, "GB/s");
  r.layer.set("host.fma_gflops", h.fma_gflops, "GF/s");
  return h;
}

/// Table I on the workload's own mesh and coefficients: every back-end's
/// apply, the production kernel against the host roofline, and its
/// single-thread baseline.
void kernel_probe(const StructuredMesh& mesh, const QuadCoefficients& coeff,
                  const DirichletBc& bc, const SubdomainEngine* engine,
                  const HostPeaks& host, bool smoke, Result& r) {
  obs::Span span("bench.probe.kernel");
  const int reps = smoke ? 3 : 30;
  struct Row {
    const char* key;
    KernelSpec spec;
  };
  const Row rows[] = {
      {"asmb", {.type = FineOperatorType::kAssembled}},
      {"mf", {.type = FineOperatorType::kMatrixFree}},
      {"tens", {.type = FineOperatorType::kTensor}},
      {"tensc", {.type = FineOperatorType::kTensorC}},
      {"tens_b8", {.type = FineOperatorType::kTensor, .batch_width = 8}},
  };
  Rng rng(1);
  Vector x(num_velocity_dofs(mesh)), y;
  for (Index i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1, 1);
  double t_asmb = 0.0, t_tens = 0.0;
  for (const Row& row : rows) {
    const auto op = make_viscous_backend(row.spec, mesh, coeff, &bc);
    const double t = time_apply(*op, x, y, reps).median;
    r.layer.set(std::string("stokes.apply_s.") + row.key, t, "s");
    if (std::string(row.key) == "asmb") t_asmb = t;
    if (std::string(row.key) == "tens") t_tens = t;
  }
  r.layer.set("stokes.tens_vs_asmb", t_asmb / t_tens, "ratio");

  // The production kernel as the workload runs it (through its engine, if
  // any), against the analytic cost model.
  const auto op = make_viscous_backend(
      KernelSpec{.type = FineOperatorType::kTensor, .engine = engine}, mesh,
      coeff, &bc);
  const double t = time_apply(*op, x, y, reps).median;
  const OperatorCostModel cm = op->cost_model();
  const double nel = double(mesh.num_elements());
  const double gflops = cm.flops_per_element * nel / t * 1e-9;
  const double ai = cm.flops_per_element / cm.bytes_perfect;
  r.layer.set("stokes.apply_s", t, "s");
  r.layer.set("stokes.gflops", gflops, "GF/s");
  r.layer.set("stokes.gbs_computed", cm.bytes_perfect * nel / t * 1e-9,
              "GB/s");
  r.layer.set("stokes.flop_per_byte", ai, "flop/B");
  r.layer.set("stokes.roofline_frac",
              gflops / std::min(host.fma_gflops, host.triad_gbs * ai), "frac");

  const int threads = num_threads();
  set_num_threads(1);
  const double t1 = time_apply(*op, x, y, smoke ? 2 : 10).median;
  set_num_threads(threads);
  r.layer.set("stokes.apply_s_1t", t1, "s");
  r.layer.set("stokes.thread_speedup", t1 / t, "ratio");
}

/// Halo traffic per fine-level apply: the workload's own engine over its
/// traced solves when it has one, else a 2x2x1 SubdomainEngine probe on its
/// mesh and coefficients.
void fem_probe(const StructuredMesh& mesh, const QuadCoefficients& coeff,
               const DirichletBc& bc, const DecompStats* solves, bool smoke,
               Result& r) {
  obs::Span span("bench.probe.fem");
  DecompStats st;
  if (solves != nullptr) {
    st = *solves;
  } else {
    SubdomainEngine engine(mesh, 2, 2, 1);
    const auto op = make_viscous_backend(
        KernelSpec{.type = FineOperatorType::kTensor, .engine = &engine}, mesh,
        coeff, &bc);
    Vector x(op->rows(), 1.0), y;
    op->apply(x, y);
    engine.reset_stats();
    for (int i = 0; i < (smoke ? 2 : 20); ++i) op->apply(x, y);
    st = engine.stats();
  }
  const double applies = double(std::max<long long>(1, st.applies));
  r.layer.set("fem.halo_mb_per_apply",
              double(st.halo_bytes_sent) / applies / 1048576, "MiB");
  r.layer.set("fem.exchange_s", st.exchange_seconds / applies, "s");
  r.layer.set("fem.boundary_frac",
              double(st.boundary_elements) /
                  double(st.interior_elements + st.boundary_elements),
              "frac");
}

/// Preconditioner setup on the workload's coefficients, twice with one
/// shared RAP cache: the first build pays the full Galerkin setup, the
/// second the numeric-only refresh every Newton step pays.
void setup_probe(const StokesSolverOptions& base, const StructuredMesh& mesh,
                 const QuadCoefficients& coeff, const DirichletBc& bc,
                 Result& r) {
  obs::Span span("bench.probe.setup");
  GmgSetupCache cache;
  StokesSolverOptions so = base;
  so.gmg.setup_cache = &cache;
  const StokesSolver first(mesh, coeff, bc, so);
  const StokesSolver second(mesh, coeff, bc, so);
  r.layer.set("mg.rap_setup_s", first.gmg()->rap_setup_seconds(), "s");
  r.layer.set("mg.rap_refresh_s", second.gmg()->rap_refresh_seconds(), "s");
  r.layer.set("amg.setup_s", second.coarse_setup_seconds(), "s");
}

/// `ledger_s` is the traced mean time per executed op, `leaves_s` what the
/// ledger's leaves cover of it.
void finish_trace(const Args& a, double untraced_op_s, double traced_op_s,
                  double ledger_s, double leaves_s, Result& r) {
  r.layer.set("trace.overhead_frac", traced_op_s / untraced_op_s - 1.0,
              "frac");
  r.layer.set("ledger.unattributed_frac", (ledger_s - leaves_s) / ledger_s,
              "frac");
  if (!obs::write_telemetry(a.trace_dir))
    r.op("could not write telemetry to " + a.trace_dir);
}

// --- linear Stokes solve workloads -----------------------------------------

std::uint32_t solution_digest(const StokesSolveResult& res) {
  return crc32(res.p.data(), res.p.size() * sizeof(Real),
               crc32(res.u.data(), res.u.size() * sizeof(Real)));
}

void run_stokes(const Args& a, Result& r) {
  const Index m = a.smoke ? 4 : 12;
  const SinkerParams p = sinker_params(m);
  const SolverConfig cfg = workload_config(a);
  const Real rtol = cfg.stokes().krylov.rtol;
  const StructuredMesh mesh =
      StructuredMesh::box(m, m, m, {0, 0, 0}, {1, 1, 1});
  const DirichletBc bc = sinker_boundary_conditions(mesh);
  const QuadCoefficients coeff = sinker_instance_coefficients(mesh, p, a.seed);
  const Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  std::unique_ptr<SubdomainEngine> engine;
  if (a.workload->decomp)
    engine = std::make_unique<SubdomainEngine>(mesh, 2, 2, 1);

  // The first construction only warms up: capped at one restart cycle, its
  // solve touches all of GCR's stored directions, the OpenMP team and the
  // lazy kernel tables, which the first timed solve would otherwise pay for.
  SolverConfig capped = cfg;
  capped.stokes().krylov.max_it = capped.stokes().krylov.restart;
  capped.make_stokes_solver(mesh, coeff, bc, engine.get())->solve(f);
  const std::unique_ptr<StokesSolver> solver =
      cfg.make_stokes_solver(mesh, coeff, bc, engine.get());

  // The engine changes only the summation order at subdomain interfaces
  // (docs/PARALLELISM.md): its apply must match the global one to rounding,
  // which keeps the Krylov count equal to stokes_sinker12's.
  if (engine) {
    const auto global = make_viscous_backend(KernelSpec{}, mesh, coeff, &bc);
    const auto split = make_viscous_backend(
        KernelSpec{.engine = engine.get()}, mesh, coeff, &bc);
    Vector x(global->rows()), yg, ys;
    for (Index i = 0; i < x.size(); ++i) x[i] = std::sin(Real(0.37) * Real(i));
    global->apply(x, yg);
    split->apply(x, ys);
    Real diff = 0, scale = 0;
    for (Index i = 0; i < yg.size(); ++i) {
      diff = std::max(diff, std::abs(yg[i] - ys[i]));
      scale = std::max(scale, std::abs(yg[i]));
    }
    r.op(diff <= 1e-12 * scale
             ? ""
             : "decomposed apply differs from the global apply beyond 1e-12");
  }

  const int n = solve_count(a);
  const StokesOperator& op = solver->op();
  const Vector rhs = op.build_rhs(f);
  const Real rhs_norm = rhs.norm2();
  std::uint32_t digest = 0;
  std::vector<double> times;
  int its = 0;
  Real u_rms = 0;
  for (int k = 0; k < n; ++k) {
    Timer t;
    StokesSolveResult res = solver->solve(f);
    times.push_back(t.seconds());

    Vector x, kx;
    op.combine(res.u, res.p, x);
    op.apply(x, kx);
    kx.axpy(-1.0, rhs);
    const Real true_rel = kx.norm2() / rhs_norm;
    std::string why;
    if (!res.stats.converged)
      why = std::string("solve did not converge: ") + res.stats.reason_str();
    else if (!(true_rel <= rtol))
      why = "true residual " + std::to_string(true_rel) + " exceeds rtol";
    else if (k > 0 && solution_digest(res) != digest)
      why = "repeated solve differs from the first";
    r.op(why);
    its = res.stats.iterations;
    digest = solution_digest(res);
    u_rms = rms_velocity(mesh, res.u);
  }
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    obs::Span span("bench.setup");
    Timer t;
    const auto built = cfg.make_stokes_solver(mesh, coeff, bc, engine.get());
    setup.push_back(t.seconds());
  }
  const double op_s = median(times);
  r.e2e.set("setup_s", median(setup), "s");
  r.e2e.set("op_s", op_s, "s");
  r.e2e.set("peak_rss_mb", peak_rss_mib(), "MiB");
  r.info["iterations"] = obs::JsonValue(its);
  r.info["digest"] = obs::JsonValue(hex32(digest));
  r.info["u_rms"] = obs::JsonValue(u_rms);
  r.info["timed_ops"] = obs::JsonValue(n);
  r.info["op_samples"] = json_array(times);
  r.info["setup_samples"] = json_array(setup);
  if (a.trace_dir.empty()) return;

  // Traced pass: the same solves with telemetry on. The bench applies no
  // operator here (the ledger must hold the solver's work only); each
  // solution is checked against the untraced one by digest.
  obs::enable_telemetry();
  reset_registries();
  if (engine) engine->reset_stats();
  std::vector<double> traced;
  for (int k = 0; k < n; ++k) {
    obs::Span span("bench.solve");
    Timer t;
    StokesSolveResult res = solver->solve(f);
    traced.push_back(t.seconds());
    r.op(solution_digest(res) == digest
             ? ""
             : "traced solve differs from the untraced solve");
  }
  const Events ev{double(n)};
  const double leaves = solver_layers(ev, cfg.stokes().gmg.levels, r);
  r.layer.set("saddle.setup_s", median(setup), "s");
  zero_step_layers(r);
  const DecompStats solve_stats = engine ? engine->stats() : DecompStats{};

  const HostPeaks host = host_peaks(a.smoke, r);
  kernel_probe(mesh, coeff, bc, engine.get(), host, a.smoke, r);
  fem_probe(mesh, coeff, bc, engine ? &solve_stats : nullptr, a.smoke, r);
  setup_probe(cfg.stokes(), mesh, coeff, bc, r);
  finish_trace(a, op_s, median(traced), mean(traced), leaves, r);
}

// --- time-stepping workloads -----------------------------------------------

struct Stepping {
  std::unique_ptr<PtatinContext> ctx;
  std::unique_ptr<SafeguardedStepper> stepper; ///< borrows *ctx
  int steps = 0;                               ///< distinct steps taken

  /// Drop the current instance, stepper first.
  void clear() {
    stepper.reset();
    ctx.reset();
    steps = 0;
  }
  /// Build the seed's model, its context and its stepper.
  void start(const Args& a, const SolverConfig& cfg) {
    ctx = cfg.make_context(build_model(a));
    stepper = cfg.make_stepper(*ctx);
  }
};

/// ptatin_driver's dt protocol: 0.002 for the first step, then the CFL
/// suggestion of the current velocity.
Real driver_dt(const Stepping& s, Real cfl) {
  const Real dt = s.ctx->suggest_dt(cfl);
  return s.steps == 0 || dt <= 0 ? Real(0.002) : dt;
}

std::uint32_t state_digest(const PtatinContext& ctx) {
  const StateDigest d = digest_state(ctx);
  const std::uint32_t parts[] = {d.coords_crc, d.velocity_crc, d.pressure_crc,
                                 d.temperature_crc, d.points_crc};
  return crc32(parts, sizeof parts);
}

/// Why a step failed ("" = it did not): unrecovered, or the state after it
/// fails the health check (run read-only, so it cannot perturb the next
/// step).
std::string step_failure(const SolverConfig& cfg, const Stepping& s,
                         const SafeguardedStepResult& res) {
  const std::string step = "step " + std::to_string(s.steps + 1);
  if (!res.ok)
    return step + " unrecovered: " +
           (res.failures.empty() ? std::string("?") : res.failures.back());
  HealthOptions ho = cfg.safeguard().health;
  ho.repair_population = false;
  const HealthReport hr = check_health(*s.ctx, ho);
  return hr.ok ? "" : step + " failed health: " + hr.summary();
}

/// What the ledger needs from the executed steps, summed over executions.
struct StepCounts {
  double executions = 0, newton_its = 0, ls_steps = 0, ls_cuts = 0;
  double retries = 0, picard_calls = 0, newton_calls = 0;
  long long krylov_its = 0;
  std::vector<double> step_krylov_its; ///< per distinct step, first execution

  void add(const SafeguardedStepResult& res, int line_search_max) {
    const NonlinearResult& nl = res.report.nonlinear;
    executions += 1;
    retries += res.retries;
    newton_its += nl.iterations;
    krylov_its += nl.total_krylov_iterations;
    // Coefficient updater calls: the pre-solve refresh and the initial
    // residual, then per Newton step one refresh (with Newton terms after
    // the first, Picard, step) and one per line-search trial.
    picard_calls += 2;
    for (std::size_t i = 0; i < nl.step_lengths.size(); ++i) {
      const Real lambda = nl.step_lengths[i];
      ls_steps += 1;
      ls_cuts += lambda < 1 ? 1 : 0;
      const int trials = std::min(
          line_search_max + 1, int(std::lround(std::log2(1 / lambda))) + 1);
      picard_calls += trials + (i == 0 ? 1 : 0);
      newton_calls += i == 0 ? 0 : 1;
    }
  }
};

/// The untimed first step of an instance.
void warm_up(const Args& a, const SolverConfig& cfg, Stepping& s, Result& r) {
  const SafeguardedStepResult res =
      s.stepper->advance(driver_dt(s, a.workload->cfl));
  r.op(step_failure(cfg, s, res));
  ++s.steps;
}

/// One timed operation: the next step, executed kReplays times from a
/// MemoryCheckpoint of the state before it; its time is the fastest
/// execution. Neighbour load on a shared host comes in bursts of a few
/// seconds, which the minimum drops. Every execution must be recovered, pass
/// the health check and reproduce the first bit for bit.
double timed_step(const Args& a, const SolverConfig& cfg, Stepping& s,
                  StepCounts& counts, std::vector<double>& executions,
                  Result& r) {
  const Real dt = driver_dt(s, a.workload->cfl);
  MemoryCheckpoint before;
  before.capture(*s.ctx);
  std::vector<double> times;
  std::uint32_t first = 0;
  for (int rep = 0; rep < (a.smoke ? 2 : kReplays); ++rep) {
    if (rep > 0) before.restore(*s.ctx);
    SafeguardedStepResult res;
    {
      obs::Span span("bench.step");
      Timer t;
      res = s.stepper->advance(dt);
      times.push_back(t.seconds());
    }
    std::string why = step_failure(cfg, s, res);
    const std::uint32_t d = state_digest(*s.ctx);
    if (rep == 0) {
      first = d;
      counts.step_krylov_its.push_back(
          double(res.report.nonlinear.total_krylov_iterations));
    }
    if (why.empty() && d != first) why = "replayed step differs from the first";
    r.op(why);
    counts.add(res, cfg.ptatin().nonlinear.line_search_max);
  }
  ++s.steps;
  executions.insert(executions.end(), times.begin(), times.end());
  return *std::min_element(times.begin(), times.end());
}

void run_steps(const Args& a, Result& r) {
  const SolverConfig cfg = workload_config(a);
  Stepping s;
  s.start(a, cfg);

  const int n = step_count(a);
  warm_up(a, cfg, s, r);
  StepCounts counts;
  std::vector<double> times, executions;
  for (int k = 0; k < n; ++k)
    times.push_back(timed_step(a, cfg, s, counts, executions, r));
  const std::uint32_t digest = state_digest(*s.ctx);
  r.info["digest"] = obs::JsonValue(hex32(digest));
  r.info["u_rms"] =
      obs::JsonValue(rms_velocity(s.ctx->mesh(), s.ctx->velocity()));
  // Setup: model build + context + stepper.
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    s.clear();
    obs::Span span("bench.setup");
    Timer t;
    s.start(a, cfg);
    setup.push_back(t.seconds());
  }
  const double op_s = mean(times);
  r.e2e.set("setup_s", median(setup), "s");
  r.e2e.set("op_s", op_s, "s");
  r.e2e.set("peak_rss_mb", peak_rss_mib(), "MiB");
  r.info["iterations"] = obs::JsonValue(counts.krylov_its);
  r.info["step_krylov_its"] = json_array(counts.step_krylov_its);
  r.info["timed_ops"] = obs::JsonValue(n);
  r.info["op_samples"] = json_array(executions);
  r.info["setup_samples"] = json_array(setup);
  if (a.trace_dir.empty()) return;

  // Traced pass: the last setup's fresh instance replays the warm-up
  // untraced, then the same timed steps with telemetry on.
  warm_up(a, cfg, s, r);
  obs::enable_telemetry();
  reset_registries();
  StepCounts tc;
  std::vector<double> traced, traced_exec;
  for (int k = 0; k < n; ++k)
    traced.push_back(timed_step(a, cfg, s, tc, traced_exec, r));
  r.op(state_digest(*s.ctx) == digest
           ? ""
           : "traced steps differ from the untraced steps");
  const double per_exec = mean(traced_exec);
  const Events ev{tc.executions};
  const double solver_leaves = solver_layers(ev, cfg.stokes().gmg.levels, r);

  // Stage tree of one step: advance = safeguard + TimeStep; TimeStep =
  // StokesSolve stage + plastic + energy + advection (with population
  // control) + ALE + other; the StokesSolve stage = pre-solve +
  // NonlinearSolve = pre-solve + nonlin self + the NewtonSteps, each a PC
  // setup (plus one residual) and a StokesSolve around KSPSolve.
  const double time_step = ev("TimeStep");
  const double stage_stokes = ev("Stage(StokesSolve)");
  const double nonlinear = ev("NonlinearSolve");
  const double newton_steps = ev("NewtonStep");
  const double stokes_solves = ev("StokesSolve");
  const double plastic = ev("Stage(PlasticStrain)");
  const double energy = ev("Stage(Energy)");
  const double advection = ev("Stage(Advection)");
  const double population = ev("MPMPopulationControl");
  const double ale = ev("Stage(ALE)");
  const double pc_setup = newton_steps - stokes_solves;
  const double nonlin_self = nonlinear - newton_steps;
  const double pre_solve = stage_stokes - nonlinear;
  const double safeguard = ev("bench.step") - time_step;
  const double stage_other =
      time_step - stage_stokes - plastic - energy - advection - ale;
  const auto share = [&](double v) { return v / per_exec; };
  r.layer.set("saddle.setup_s", pc_setup, "s");
  r.layer.set("nonlin.newton_its", tc.newton_its / tc.executions, "count");
  r.layer.set("nonlin.self_frac", share(nonlin_self), "frac");
  r.layer.set("nonlin.ls_cut_frac",
              tc.ls_steps > 0 ? tc.ls_cuts / tc.ls_steps : 0.0, "frac");
  r.layer.set("ptatin.pre_solve_frac", share(pre_solve), "frac");
  r.layer.set("ptatin.plastic_frac", share(plastic), "frac");
  r.layer.set("ptatin.safeguard_frac", share(safeguard), "frac");
  r.layer.set("ptatin.other_frac", share(stage_other), "frac");
  r.layer.set("ptatin.retry_frac", tc.retries / tc.executions, "frac");
  r.layer.set("mpm.advect_frac", share(advection - population), "frac");
  r.layer.set("mpm.population_frac", share(population), "frac");
  r.layer.set("energy.frac", share(energy), "frac");
  r.layer.set("ale.frac", share(ale), "frac");
  // Leaves below the StokesSolve spans (KSPSolve) and the self times above.
  const double leaves = solver_leaves + pc_setup + nonlin_self + pre_solve +
                        plastic + energy + advection + ale + stage_other +
                        safeguard;

  const PtatinContext& ctx = *s.ctx;
  const StructuredMesh& mesh = ctx.mesh();
  const QuadCoefficients& coeff = ctx.coefficients();
  r.info["mpm_points"] = obs::JsonValue((long long)ctx.points().size());
  {
    // One updater call of each kind into scratch coefficients, scaled by
    // the calls the timed steps made (an estimate: the calls themselves
    // have no span).
    obs::Span span("bench.probe.coefficients");
    const CoefficientUpdater update = s.ctx->coefficient_updater();
    QuadCoefficients scratch(mesh.num_elements());
    std::vector<double> tp, tn;
    for (int i = 0; i < (a.smoke ? 1 : 5); ++i) {
      Timer t;
      update(ctx.velocity(), ctx.pressure(), false, scratch);
      tp.push_back(t.seconds());
      t.reset();
      update(ctx.velocity(), ctx.pressure(), true, scratch);
      tn.push_back(t.seconds());
    }
    r.layer.set("ptatin.coeff_update_frac",
                share((tc.picard_calls * median(tp) +
                       tc.newton_calls * median(tn)) /
                      tc.executions),
                "frac");
  }
  const HostPeaks host = host_peaks(a.smoke, r);
  kernel_probe(mesh, coeff, ctx.setup().bc, nullptr, host, a.smoke, r);
  fem_probe(mesh, coeff, ctx.setup().bc, nullptr, a.smoke, r);
  StokesSolverOptions so = cfg.stokes();
  so.bc_factory = ctx.setup().bc_factory;
  setup_probe(so, mesh, coeff, ctx.setup().bc, r);
  finish_trace(a, op_s, mean(traced), per_exec, leaves, r);
}

// --- driver ----------------------------------------------------------------

obs::JsonValue build_info() {
  obs::JsonValue b = obs::JsonValue::object();
  b["compiler"] = obs::JsonValue(PTB_COMPILER);
  b["build_type"] = obs::JsonValue(PTB_BUILD_TYPE);
  b["flags"] = obs::JsonValue(PTB_FLAGS);
  b["threads"] = obs::JsonValue(num_threads());
  return b;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ptatin_bench --workload NAME --seed N "
               "--seconds S --out FILE [--trace_dir DIR] [--smoke true]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  const Options o = Options::from_args(argc, argv);
  Args a;
  const std::string name = o.get_string("workload", "");
  for (const Workload& w : kWorkloads)
    if (name == w.name) a.workload = &w;
  if (a.workload == nullptr) return usage("unknown or missing --workload");
  a.seed = std::uint64_t(o.get_index("seed", 1));
  a.seconds = o.get_real("seconds", 10.0);
  a.trace_dir = o.get_string("trace_dir", "");
  a.smoke = o.get_bool("smoke", false);
  a.out = o.get_string("out", "");
  if (a.out.empty()) return usage("missing --out");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  Result r;
  try {
    if (a.workload->kind == Kind::kStokes)
      run_stokes(a, r);
    else
      run_steps(a, r);
  } catch (const std::exception& e) {
    r.op(std::string("exception: ") + e.what());
  }

  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = obs::JsonValue("ptbench.result/1");
  doc["workload"] = obs::JsonValue(a.workload->name);
  doc["seed"] = obs::JsonValue((long long)a.seed);
  doc["seconds"] = obs::JsonValue(a.seconds);
  doc["traced"] = obs::JsonValue(!a.trace_dir.empty());
  doc["smoke"] = obs::JsonValue(a.smoke);
  doc["build"] = build_info();
  doc["ops"] = obs::JsonValue(r.ops);
  doc["ops_failed"] = obs::JsonValue(r.ops_failed);
  obs::JsonValue failures = obs::JsonValue::array();
  for (const std::string& f : r.failures) failures.push_back(obs::JsonValue(f));
  doc["failures"] = std::move(failures);
  doc["e2e"] = std::move(r.e2e.json());
  doc["layer"] = std::move(r.layer.json());
  doc["info"] = std::move(r.info);
  std::ofstream out(a.out);
  out << doc.dump(1) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}
