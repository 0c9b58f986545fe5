// Robustness tests: fault injection, divergence guards in every Krylov
// method, checkpoint rollback, nonlinear escalation, and the safeguarded
// stepper (docs/ROBUSTNESS.md). Every recovery path is driven by a
// deterministic injected fault, so the paths are proven to fire.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/options.hpp"
#include "ksp/cg.hpp"
#include "ksp/gcr.hpp"
#include "ksp/gmres.hpp"
#include "la/coo.hpp"
#include "nonlin/newton.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "ptatin/checkpoint.hpp"
#include "ptatin/config.hpp"
#include "ptatin/context.hpp"
#include "ptatin/exit_codes.hpp"
#include "ptatin/health.hpp"
#include "ptatin/models_sinker.hpp"
#include "ptatin/stepper.hpp"
#include "rheology/flow_law.hpp"
#include "stokes/fields.hpp"

namespace ptatin {
namespace {

/// Every test starts and ends with no armed faults; a failing test must not
/// leak its faults into the next one.
class Robustness : public ::testing::Test {
protected:
  void SetUp() override { fault::FaultInjector::instance().disarm_all(); }
  void TearDown() override { fault::FaultInjector::instance().disarm_all(); }
};

/// A member of a written solver report, read back with the strict JSON
/// parser; a missing key throws, which fails the test.
const obs::JsonValue& member(const obs::JsonValue& obj,
                             const std::string& key) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("missing JSON member " + key);
  return *v;
}

CsrMatrix spd_diag(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) coo.add(i, i, Real(i + 1));
  return coo.to_csr();
}

// --- fault injector ----------------------------------------------------------

TEST_F(Robustness, SpecParsingAcceptsValidRejectsMalformed) {
  auto& fi = fault::FaultInjector::instance();
  EXPECT_TRUE(fi.arm_from_spec("ksp.rnorm:3"));
  fi.disarm_all();
  EXPECT_TRUE(fi.arm_from_spec("a:2:inf:5,b:1:zero:*"));
  fi.disarm_all();
  EXPECT_FALSE(fi.arm_from_spec(""));
  EXPECT_FALSE(fi.arm_from_spec("a"));
  EXPECT_FALSE(fi.arm_from_spec("a:x"));
  EXPECT_FALSE(fi.arm_from_spec("a:0"));
  EXPECT_FALSE(fi.arm_from_spec("a:1:bogus"));
  EXPECT_FALSE(fi.arm_from_spec("a:1:nan:0"));
  EXPECT_FALSE(fi.enabled());
}

TEST_F(Robustness, NthCallWindowIsDeterministic) {
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("t.site:3:nan:2"));
  EXPECT_EQ(fault::corrupt("t.site", 7.0), 7.0); // call 1
  EXPECT_EQ(fault::corrupt("t.site", 7.0), 7.0); // call 2
  EXPECT_TRUE(std::isnan(fault::corrupt("t.site", 7.0))); // call 3 fires
  EXPECT_TRUE(std::isnan(fault::corrupt("t.site", 7.0))); // call 4 fires
  EXPECT_EQ(fault::corrupt("t.site", 7.0), 7.0); // call 5: window over
  EXPECT_EQ(fault::corrupt("t.other", 7.0), 7.0); // other sites untouched
  EXPECT_EQ(fi.injected(), 2);
}

TEST_F(Robustness, ErrorKindThrowsOnNthCall) {
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("t.io:2:error"));
  EXPECT_NO_THROW(fault::maybe_fail("t.io"));
  EXPECT_THROW(fault::maybe_fail("t.io"), Error);
}

// --- KSP NaN guards: no solver throws or spins on a poisoned residual -------

/// Arm a NaN on the second residual norm and expect the solver to return
/// kDivergedNanOrInf promptly instead of iterating on garbage.
template <class Solve>
void expect_nan_exit(Solve&& solve) {
  auto& fi = fault::FaultInjector::instance();
  fi.disarm_all();
  ASSERT_TRUE(fi.arm_from_spec("ksp.rnorm:2:nan:*"));
  SolveStats st;
  ASSERT_NO_THROW(st = solve());
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.reason, ConvergedReason::kDivergedNanOrInf);
  EXPECT_LE(st.iterations, 2); // detected at once, not after max_it
  fi.disarm_all();
}

TEST_F(Robustness, AllSolversExitOnNanResidual) {
  const Index n = 16;
  CsrMatrix a = spd_diag(n);
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(n, 1.0);
  KrylovSettings s;
  s.max_it = 50;

  expect_nan_exit([&] { Vector x; return cg_solve(op, pc, b, x, s); });
  expect_nan_exit([&] { Vector x; return gmres_solve(op, pc, b, x, s); });
  expect_nan_exit([&] { Vector x; return fgmres_solve(op, pc, b, x, s); });
  expect_nan_exit([&] { Vector x; return gcr_solve(op, pc, b, x, s); });
}

TEST_F(Robustness, DtolGuardStopsADivergingResidual) {
  // The shared guard every Krylov method runs: a residual above
  // dtol * ||r0|| is a fatal divergence, reported before max_it is reached.
  KrylovSettings s;
  s.dtol = 100.0;
  s.max_it = 10000;
  const ConvergenceTest conv(s, 2.0);
  EXPECT_EQ(conv.test(150.0, 5), ConvergedReason::kIterating);
  EXPECT_EQ(conv.test(250.0, 5), ConvergedReason::kDivergedDtol);
  EXPECT_EQ(conv.test(250.0, s.max_it), ConvergedReason::kDivergedDtol);
  EXPECT_TRUE(is_fatal(ConvergedReason::kDivergedDtol));
}

TEST_F(Robustness, CgReportsBreakdownOnIndefiniteOperator) {
  // diag(1, -1): the first pAp vanishes — formerly a PT_ASSERT abort.
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, -1.0);
  CsrMatrix a = coo.to_csr();
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(2, 1.0), x;
  KrylovSettings s;
  SolveStats st;
  ASSERT_NO_THROW(st = cg_solve(op, pc, b, x, s));
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.reason, ConvergedReason::kDivergedBreakdown);
}

TEST_F(Robustness, GmresSurvivesForcedHessenbergBreakdown) {
  const Index n = 12;
  CsrMatrix a = spd_diag(n);
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(n, 1.0);
  for (const char* which : {"gmres", "fgmres"}) {
    auto& fi = fault::FaultInjector::instance();
    fi.disarm_all();
    ASSERT_TRUE(fi.arm_from_spec("ksp.breakdown:1:zero"));
    Vector x;
    KrylovSettings s;
    SolveStats st;
    if (std::string(which) == "gmres") {
      ASSERT_NO_THROW(st = gmres_solve(op, pc, b, x, s));
    } else {
      ASSERT_NO_THROW(st = fgmres_solve(op, pc, b, x, s));
    }
    EXPECT_FALSE(st.converged) << which;
    EXPECT_EQ(st.reason, ConvergedReason::kDivergedBreakdown) << which;
  }
}

TEST_F(Robustness, CleanSolvesStillConvergeWithGuardsArmedElsewhere) {
  // Guards must not change behaviour when the armed site never fires.
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("unused.site:1:nan:*"));
  const Index n = 16;
  CsrMatrix a = spd_diag(n);
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(n, 1.0), x;
  KrylovSettings s;
  s.rtol = 1e-10;
  SolveStats st = cg_solve(op, pc, b, x, s);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.reason, ConvergedReason::kConvergedRtol);
}

// --- nonlinear tier ----------------------------------------------------------

CoefficientUpdater power_law_updater(const StructuredMesh& mesh, Real n_exp) {
  ArrheniusParams ap;
  ap.eta0 = 1.0;
  ap.n = n_exp;
  ap.eps0 = 1.0;
  ap.eta_min = 1e-4;
  ap.eta_max = 1e4;
  auto law = std::make_shared<ArrheniusLaw>(ap);
  return [&mesh, law](const Vector& u, const Vector&, bool newton,
                      QuadCoefficients& coeff) {
    std::vector<StrainRateSample> s;
    evaluate_strain_rates(mesh, u, s);
    if (newton && !coeff.has_newton()) coeff.allocate_newton();
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        const auto& sq = s[e * kQuadPerEl + q];
        RheologyState st;
        st.j2 = sq.j2;
        const ViscosityEval ve = law->viscosity(st);
        coeff.eta(e, q) = ve.eta;
        coeff.rho(e, q) = 1.0;
        if (newton) {
          coeff.deta(e, q) = ve.deta_dj2;
          for (int t = 0; t < kSymSize; ++t) coeff.d0(e, q)[t] = sq.d[t];
        }
      }
  };
}

DirichletBc lid_bc(const StructuredMesh& mesh, Real lid_speed) {
  DirichletBc bc(num_velocity_dofs(mesh));
  for (auto f : {MeshFace::kXMin, MeshFace::kXMax, MeshFace::kYMin,
                 MeshFace::kYMax, MeshFace::kZMin})
    constrain_no_slip(mesh, f, bc);
  constrain_face_component(mesh, MeshFace::kZMax, 0, lid_speed, bc);
  constrain_face_component(mesh, MeshFace::kZMax, 1, 0.0, bc);
  constrain_face_component(mesh, MeshFace::kZMax, 2, 0.0, bc);
  return bc;
}

NonlinearOptions shear_options() {
  NonlinearOptions o;
  o.linear.gmg.levels = 2;
  o.linear.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  o.linear.coarse_bjacobi_blocks = 1;
  o.linear.bc_factory = [](const StructuredMesh& m) { return lid_bc(m, 0.0); };
  // Loose enough that the Picard fallback can finish the job: Picard
  // stagnates on shear-thinning problems near tight tolerances (§III-A),
  // which is exactly why Newton exists.
  o.rtol = 1e-2;
  return o;
}

TEST_F(Robustness, NewtonFallsBackToPicardOnLinearFailure) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = shear_options();
  NonlinearStokesSolver solver(mesh, bc, opts);

  // Fail the second inner linear solve once: the Newton attempt aborts,
  // the Picard restart (fault consumed) carries the solve to convergence.
  // Mild shear thinning (n = 1.5) keeps Picard convergent on its own.
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("nonlin.linsolve:2:error:1"));

  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  NonlinearResult res = solver.solve(power_law_updater(mesh, 1.5), f, u, p);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.failure, NonlinearFailure::kNone);
  EXPECT_EQ(res.picard_fallbacks, 1);
  EXPECT_EQ(fi.injected(), 1);
}

TEST_F(Robustness, NanResidualIsNotRetriedAtNonlinearTier) {
  // A poisoned state cannot be salvaged by changing linearization; the
  // failure must surface (for the timestep tier) instead of a Picard retry.
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  DirichletBc bc = lid_bc(mesh, 1.0);
  NonlinearOptions opts = shear_options();
  NonlinearStokesSolver solver(mesh, bc, opts);

  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("nonlin.rnorm:2:nan:1"));

  Vector u(num_velocity_dofs(mesh), 0.0), p;
  bc.set_values(u);
  Vector f(num_velocity_dofs(mesh), 0.0);
  NonlinearResult res = solver.solve(power_law_updater(mesh, 3.0), f, u, p);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.failure, NonlinearFailure::kNanResidual);
  EXPECT_EQ(res.picard_fallbacks, 0);
}

// --- checkpoint / rollback ---------------------------------------------------

PtatinOptions tiny_options() {
  PtatinOptions o;
  o.points_per_dim = 2;
  o.nonlinear.max_it = 3;
  o.nonlinear.rtol = 1e-2;
  o.nonlinear.linear.gmg.levels = 2;
  o.nonlinear.linear.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  o.nonlinear.linear.coarse_bjacobi_blocks = 1;
  o.nonlinear.linear.krylov.max_it = 300;
  return o;
}

SinkerParams tiny_sinker() {
  SinkerParams p;
  p.mx = p.my = p.mz = 4;
  p.num_spheres = 1;
  p.radius = 0.2;
  p.contrast = 1e2;
  return p;
}

TEST_F(Robustness, MemoryCheckpointRestoresStateBitwise) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  ctx.step(0.005); // non-trivial state

  Vector u0, p0;
  u0.copy_from(ctx.velocity());
  p0.copy_from(ctx.pressure());
  std::vector<Vec3> x0(ctx.points().size());
  for (Index i = 0; i < ctx.points().size(); ++i)
    x0[std::size_t(i)] = ctx.points().position(i);

  MemoryCheckpoint snap;
  snap.capture(ctx);
  ASSERT_TRUE(snap.valid());
  EXPECT_GT(snap.size_bytes(), 0u);

  ctx.step(0.005); // mutate everything
  snap.restore(ctx);

  ASSERT_EQ(ctx.velocity().size(), u0.size());
  for (Index i = 0; i < u0.size(); ++i) EXPECT_EQ(ctx.velocity()[i], u0[i]);
  for (Index i = 0; i < p0.size(); ++i) EXPECT_EQ(ctx.pressure()[i], p0[i]);
  ASSERT_EQ(ctx.points().size(), Index(x0.size()));
  for (Index i = 0; i < ctx.points().size(); ++i)
    for (int d = 0; d < 3; ++d)
      EXPECT_EQ(ctx.points().position(i)[d], x0[std::size_t(i)][d]);
}

TEST_F(Robustness, CheckpointWriteFaultThrowsAndRestoreWithoutCaptureFails) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  MemoryCheckpoint snap;
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.write:1:error:1"));
  EXPECT_THROW(snap.capture(ctx), Error);
  EXPECT_FALSE(snap.valid());
  EXPECT_THROW(snap.restore(ctx), Error);
  // Fault consumed: the next capture succeeds.
  EXPECT_NO_THROW(snap.capture(ctx));
  EXPECT_TRUE(snap.valid());
}

// --- timestep tier -----------------------------------------------------------

TEST_F(Robustness, StepperRollsBackAndRetriesWithSmallerDt) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper stepper(ctx);

  auto& report = obs::SolverReport::global();
  report.clear();
  report.set_enabled(true);

  // NaN in the first nonlinear iteration's residual of the first attempt;
  // one-shot, so the retry after rollback runs clean.
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("nonlin.rnorm:2:nan:1"));

  SafeguardedStepResult res = stepper.advance(0.01);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.retries, 1);
  EXPECT_NEAR(res.dt_used, 0.005, 1e-12);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_NE(res.failures[0].find("nan_residual"), std::string::npos);
  // The recovery cap holds the next step near the dt that worked.
  EXPECT_NEAR(stepper.clamp_dt(0.01), 0.005, 1e-12);

  ASSERT_EQ(report.safeguard_events().size(), 1u);
  const obs::SafeguardRecord& rec = report.safeguard_events()[0];
  EXPECT_EQ(rec.step, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.retries, 1);
  ASSERT_EQ(rec.dt_history.size(), 2u);
  EXPECT_NEAR(rec.dt_history[0], 0.01, 1e-12);
  EXPECT_NEAR(rec.dt_history[1], 0.005, 1e-12);
  report.set_enabled(false);
  report.clear();

  // State is finite and the step actually advanced.
  EXPECT_GT(res.report.nonlinear.total_krylov_iterations, 0);
}

TEST_F(Robustness, StepperGivesUpAfterMaxRetries) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardOptions sg;
  sg.max_retries = 1;
  SafeguardedStepper stepper(ctx, sg);

  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("nonlin.rnorm:1:nan:*")); // every residual

  SafeguardedStepResult res = stepper.advance(0.01);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.retries, 1);
  EXPECT_EQ(res.failures.size(), 2u);
  fi.disarm_all();

  // The rollback left a usable state behind: the next step runs clean.
  SafeguardedStepResult next = stepper.advance(0.01);
  EXPECT_TRUE(next.ok);
}

TEST_F(Robustness, StepperToleratesSnapshotFailure) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper stepper(ctx);
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.write:1:error:1"));
  // Snapshot fails, the step itself is clean: advance without protection.
  SafeguardedStepResult res = stepper.advance(0.005);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.retries, 0);
}

// --- durable checkpoints: format, integrity, rotation ------------------------

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((std::filesystem::temp_directory_path() /
              ("ptatin_test_" + tag)).string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

long long counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

TEST_F(Robustness, Crc32MatchesKnownVectorAndChains) {
  // IEEE 802.3 check value for the standard 9-byte test vector.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Chaining: crc of a buffer equals crc of its halves fed in sequence.
  const char buf[] = "durable checkpoint payload";
  const std::size_t n = sizeof(buf) - 1;
  EXPECT_EQ(crc32(buf, n), crc32(buf + 10, n - 10, crc32(buf, 10)));
}

TEST_F(Robustness, CheckpointFileRoundTripIsBitwiseWithMeta) {
  ScratchDir dir("ckpt_roundtrip");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  ctx.step(0.005);
  const StateDigest before = digest_state(ctx);

  CheckpointMeta meta;
  meta.step = 17;
  meta.sim_time = 0.085;
  meta.dt_cap = 0.0025;
  save_checkpoint(dir.file("a.bin"), ctx, meta);

  // No stray tmp file survives the atomic publication.
  EXPECT_FALSE(std::filesystem::exists(dir.file("a.bin.tmp")));

  PtatinContext fresh(make_sinker_model(tiny_sinker()), tiny_options());
  EXPECT_NE(digest_state(fresh), before);
  const CheckpointMeta back = load_checkpoint(dir.file("a.bin"), fresh);
  EXPECT_EQ(back.step, 17);
  EXPECT_DOUBLE_EQ(back.sim_time, 0.085);
  EXPECT_DOUBLE_EQ(back.dt_cap, 0.0025);
  EXPECT_EQ(digest_state(fresh), before);
}

TEST_F(Robustness, CheckpointReadFaultSurfacesBeforeCrcCheck) {
  ScratchDir dir("ckpt_readfault");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  save_checkpoint(dir.file("a.bin"), ctx);

  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.read:1:error:1"));
  EXPECT_THROW(load_checkpoint(dir.file("a.bin"), ctx), Error);
  EXPECT_EQ(fi.injected(), 1);
  // Fault consumed: the same (intact) file loads cleanly.
  EXPECT_NO_THROW(load_checkpoint(dir.file("a.bin"), ctx));
}

TEST_F(Robustness, BitflipFaultCorruptsPublishedFileAndCrcCatchesIt) {
  ScratchDir dir("ckpt_bitflip");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.bitflip:1:error:1"));
  save_checkpoint(dir.file("a.bin"), ctx);
  fi.disarm_all();

  PtatinContext fresh(make_sinker_model(tiny_sinker()), tiny_options());
  const StateDigest untouched = digest_state(fresh);
  EXPECT_THROW(load_checkpoint(dir.file("a.bin"), fresh), Error);
  // Verify-before-apply: the failed load left the context untouched.
  EXPECT_EQ(digest_state(fresh), untouched);
}

TEST_F(Robustness, TornWriteFaultTruncatesFileAndLoadFails) {
  ScratchDir dir("ckpt_torn");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.torn_write:1:error:1"));
  save_checkpoint(dir.file("a.bin"), ctx);
  fi.disarm_all();

  EXPECT_THROW(load_checkpoint(dir.file("a.bin"), ctx), Error);
}

TEST_F(Robustness, RotationKeepsLastKWithManifest) {
  ScratchDir dir("ckpt_rotation");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  CheckpointRotation rot(dir.path, /*keep=*/2);

  const long long pruned0 = counter_value("checkpoint.pruned");
  for (int s = 1; s <= 4; ++s) {
    CheckpointMeta meta;
    meta.step = s;
    rot.save(ctx, meta);
  }
  const std::vector<std::string> files = rot.list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("ckpt_000003.bin"), std::string::npos);
  EXPECT_NE(files[1].find("ckpt_000004.bin"), std::string::npos);
  EXPECT_EQ(counter_value("checkpoint.pruned") - pruned0, 2);

  // Newest wins on load.
  CheckpointRotation::LoadResult lr = rot.load_latest(ctx);
  EXPECT_EQ(lr.meta.step, 4);
  EXPECT_TRUE(lr.skipped.empty());
}

TEST_F(Robustness, RotationFallsBackPastCorruptNewestCheckpoint) {
  ScratchDir dir("ckpt_fallback");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  ctx.step(0.005);
  CheckpointRotation rot(dir.path, /*keep=*/3);

  CheckpointMeta meta;
  meta.step = 2;
  rot.save(ctx, meta);
  const StateDigest good = digest_state(ctx);

  ctx.step(0.005);
  meta.step = 4;
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.bitflip:1:error:1"));
  rot.save(ctx, meta); // published, then silently corrupted
  fi.disarm_all();

  auto& report = obs::SolverReport::global();
  report.state() = obs::StateRecord{};
  const long long skipped0 = counter_value("checkpoint.corrupt_skipped");
  const long long restarts0 = counter_value("checkpoint.restarts");

  PtatinContext fresh(make_sinker_model(tiny_sinker()), tiny_options());
  CheckpointRotation::LoadResult lr = rot.load_latest(fresh);
  EXPECT_EQ(lr.meta.step, 2);
  ASSERT_EQ(lr.skipped.size(), 1u);
  EXPECT_NE(lr.skipped[0].find("ckpt_000004.bin"), std::string::npos);
  EXPECT_EQ(digest_state(fresh), good);
  EXPECT_EQ(counter_value("checkpoint.corrupt_skipped") - skipped0, 1);
  EXPECT_EQ(counter_value("checkpoint.restarts") - restarts0, 1);

  // The solver report's state section records the restart and the skip.
  const obs::StateRecord& st = obs::SolverReport::global().state();
  EXPECT_EQ(st.restart_step, 2);
  EXPECT_EQ(st.restart_path, lr.path);
  ASSERT_EQ(st.corrupt_skipped.size(), 1u);
  report.state() = obs::StateRecord{};
}

TEST_F(Robustness, RotationRestoresCheckpointPublishedAfterItsLastSave) {
  // A run killed between publishing a checkpoint and finishing the rotation
  // leaves a complete ckpt_<step>.bin that no save() call returned: the
  // directory scan must still find it and restore it.
  ScratchDir dir("ckpt_unlisted");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  CheckpointRotation rot(dir.path, /*keep=*/3);
  CheckpointMeta meta;
  for (int s : {2, 4}) {
    ctx.step(0.005);
    meta.step = s;
    rot.save(ctx, meta);
  }
  ctx.step(0.005);
  meta.step = 6;
  save_checkpoint(dir.file("ckpt_000006.bin"), ctx, meta);
  const StateDigest newest = digest_state(ctx);

  PtatinContext fresh(make_sinker_model(tiny_sinker()), tiny_options());
  CheckpointRotation::LoadResult lr = rot.load_latest(fresh);
  EXPECT_EQ(lr.meta.step, 6);
  EXPECT_TRUE(lr.skipped.empty());
  EXPECT_EQ(digest_state(fresh), newest);
}

TEST_F(Robustness, RotationThrowsWhenEveryCheckpointIsCorrupt) {
  ScratchDir dir("ckpt_allbad");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  CheckpointRotation rot(dir.path, 3);
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("checkpoint.bitflip:1:error:*"));
  CheckpointMeta meta;
  meta.step = 1;
  rot.save(ctx, meta);
  meta.step = 2;
  rot.save(ctx, meta);
  fi.disarm_all();
  EXPECT_THROW(rot.load_latest(ctx), Error);
}

// --- run-health watchdog -----------------------------------------------------

TEST_F(Robustness, HealthCheckPassesOnCleanStateAndCountsChecks) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  const long long checks0 = counter_value("health.checks");
  const HealthReport hr = check_health(ctx);
  EXPECT_TRUE(hr.ok);
  EXPECT_EQ(hr.summary(), "ok");
  EXPECT_EQ(hr.nonfinite_values, 0);
  EXPECT_EQ(hr.inverted_elements, 0);
  EXPECT_EQ(counter_value("health.checks") - checks0, 1);
}

TEST_F(Robustness, HealthCheckDetectsInjectedFieldNan) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("health.field_nan:1:error:1"));
  const long long fails0 = counter_value("health.failures");
  const HealthReport hr = check_health(ctx);
  EXPECT_FALSE(hr.ok);
  EXPECT_GE(hr.nonfinite_values, 1);
  EXPECT_NE(hr.summary().find("non-finite"), std::string::npos);
  EXPECT_EQ(counter_value("health.failures") - fails0, 1);
}

TEST_F(Robustness, HealthCheckDetectsRealNanInVelocity) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  ctx.mutable_velocity()[0] = std::nan("");
  const HealthReport hr = check_health(ctx);
  EXPECT_FALSE(hr.ok);
  EXPECT_EQ(hr.nonfinite_values, 1);
}

TEST_F(Robustness, HealthCheckDetectsInvertedElement) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  // Collapse node 0 through the element: negative Jacobian at some
  // quadrature point of the incident elements.
  StructuredMesh& mesh = ctx.mutable_mesh();
  Vec3 x0 = mesh.node_coord(0);
  mesh.set_node_coord(0, Vec3{x0[0] + 0.9, x0[1] + 0.9, x0[2] + 0.9});
  HealthOptions ho;
  ho.check_population = false; // isolate the geometry check
  const long long inv0 = counter_value("health.inverted_elements");
  const HealthReport hr = check_health(ctx, ho);
  EXPECT_FALSE(hr.ok);
  EXPECT_GE(hr.inverted_elements, 1);
  EXPECT_NE(hr.summary().find("inverted"), std::string::npos);
  EXPECT_GE(counter_value("health.inverted_elements") - inv0, 1);
}

TEST_F(Robustness, StepperRecoversFromHealthTripByRollback) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardOptions sg;
  sg.health_every = 1;
  SafeguardedStepper stepper(ctx, sg);

  // The first attempt's health check trips; the retry (fault consumed)
  // passes, so the step recovers exactly like a solver failure would.
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("health.field_nan:1:error:1"));

  SafeguardedStepResult res = stepper.advance(0.01);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.retries, 1);
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_EQ(res.failures[0].rfind("health:", 0), 0u) << res.failures[0];
}

TEST_F(Robustness, StepperChecksHealthBeforeEveryDurableCheckpoint) {
  ScratchDir dir("ckpt_health_gate");
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardOptions sg;
  sg.checkpoint_dir = dir.path;
  sg.checkpoint_every = 1; // health is implied on every checkpointed step
  sg.max_retries = 0;      // a health trip must fail the step outright
  SafeguardedStepper stepper(ctx, sg);

  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("health.field_nan:1:error:1"));
  SafeguardedStepResult res = stepper.advance(0.005);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.checkpoint_path.empty());
  // The poisoned state was never published.
  EXPECT_TRUE(CheckpointRotation(dir.path, 3).list().empty());
  fi.disarm_all();

  // Next step is clean and durably checkpointed.
  res = stepper.advance(0.005);
  EXPECT_TRUE(res.ok);
  EXPECT_FALSE(res.checkpoint_path.empty());
  EXPECT_TRUE(std::filesystem::exists(res.checkpoint_path));
}

// --- restart round trip ------------------------------------------------------

TEST_F(Robustness, RestartReproducesUninterruptedRunBitwise) {
  // Reference: four safeguarded steps straight through.
  PtatinContext ref(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper ref_stepper(ref);
  for (int s = 0; s < 4; ++s)
    ASSERT_TRUE(ref_stepper.advance(0.004).ok);
  const StateDigest want = digest_state(ref);

  // Same run, but checkpointing every second step.
  ScratchDir dir("ckpt_restart");
  PtatinContext a(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardOptions sg;
  sg.checkpoint_dir = dir.path;
  sg.checkpoint_every = 2;
  {
    SafeguardedStepper stepper(a, sg);
    for (int s = 0; s < 4; ++s)
      ASSERT_TRUE(stepper.advance(0.004).ok);
  }
  // Checkpointing itself must not perturb the trajectory.
  EXPECT_EQ(digest_state(a), want);

  // "Kill" after step 2: drop the newest checkpoint, restart from disk, and
  // integrate the remaining steps. The digest must match bit for bit.
  std::filesystem::remove(dir.file("ckpt_000004.bin"));
  PtatinContext b(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper stepper(b, sg);
  CheckpointRotation::LoadResult lr = stepper.rotation()->load_latest(b);
  ASSERT_EQ(lr.meta.step, 2);
  stepper.resume(lr.meta);
  EXPECT_EQ(stepper.steps_taken(), 2);
  for (int s = 0; s < 2; ++s)
    ASSERT_TRUE(stepper.advance(0.004).ok);
  EXPECT_EQ(digest_state(b), want);
  obs::SolverReport::global().state() = obs::StateRecord{};
}

// --- silent data corruption (docs/ROBUSTNESS.md) -----------------------------

TEST_F(Robustness, SealDetectsBitFlipSizeChangeAndRegionLoss) {
  std::vector<Real> buf(64, 1.5);
  auto regions = [&buf] {
    return std::vector<sdc::Region>{
        {"test.buf", buf.data(), buf.size() * sizeof(Real)}};
  };
  sdc::Seal seal;
  EXPECT_FALSE(seal.armed());
  seal.arm(regions());
  EXPECT_TRUE(seal.armed());
  EXPECT_TRUE(seal.verify(regions()).empty());

  buf[17] = sdc::flip_low_mantissa_bit(buf[17]);
  std::vector<std::string> bad = seal.verify(regions());
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "test.buf");

  // Re-arming blesses the current bytes.
  seal.arm(regions());
  EXPECT_TRUE(seal.verify(regions()).empty());

  // A size change is corruption too, not just in-place flips.
  buf.resize(32);
  EXPECT_FALSE(seal.verify(regions()).empty());
  seal.disarm();
  EXPECT_FALSE(seal.armed());
}

TEST_F(Robustness, FlipLowMantissaBitIsFinitePlausibleAndInvertible) {
  const Real v = 1.2331e-01;
  const Real flipped = sdc::flip_low_mantissa_bit(v);
  EXPECT_NE(flipped, v);
  EXPECT_TRUE(std::isfinite(flipped));
  EXPECT_NEAR(flipped, v, 1e-12); // invisible to any range check
  EXPECT_EQ(sdc::flip_low_mantissa_bit(flipped), v);
}

TEST_F(Robustness, IsSdcFailureClassifiesPrefixAndSentinelReason) {
  EXPECT_TRUE(sdc::is_sdc_failure("sdc: state corrupted"));
  EXPECT_TRUE(sdc::is_sdc_failure(
      "nonlinear: linear_breakdown (u-solve diverged_sdc)"));
  EXPECT_FALSE(sdc::is_sdc_failure("nonlinear: nan_residual"));
  EXPECT_FALSE(sdc::is_sdc_failure("health: non-finite values"));
  EXPECT_FALSE(sdc::is_sdc_failure("exception: singular pressure mass block"));
}

TEST_F(Robustness, FieldBitflipInvisibleToHealthButHealedBySealBitwise) {
  // The ISSUE 8 acceptance regression: a low-mantissa velocity flip between
  // steps passes the NaN/Jacobian health pass, is caught by the state seal
  // on reentry, healed from the last good snapshot, and the healed
  // trajectory is bitwise identical to a fault-free run.
  PtatinContext ref(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper ref_stepper(ref);
  for (int s = 0; s < 3; ++s) ASSERT_TRUE(ref_stepper.advance(0.004).ok);
  const StateDigest want = digest_state(ref);

  const long long heals0 = counter_value("sdc.heals");
  const long long detections0 = counter_value("sdc.detections");
  const long long unrecovered0 = counter_value("sdc.unrecovered");
  const long long armed0 = counter_value("sdc.seals_armed");

  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper stepper(ctx);
  auto& fi = fault::FaultInjector::instance();
  // Fires right after step 1 seals its state: the corruption sits in the
  // "quiescent" field across the step boundary.
  ASSERT_TRUE(fi.arm_from_spec("sdc.field_bitflip:1:error:1"));
  ASSERT_TRUE(stepper.advance(0.004).ok);
  EXPECT_EQ(fi.injected(), 1);

  // The health pass alone does NOT see the flip — that is the threat model.
  EXPECT_TRUE(check_health(ctx).ok);

  SafeguardedStepResult res = stepper.advance(0.004);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.retries, 0); // healed at the boundary, not by retry
  ASSERT_TRUE(stepper.advance(0.004).ok);

  EXPECT_EQ(digest_state(ctx), want);
  EXPECT_EQ(counter_value("sdc.detections") - detections0, 1);
  EXPECT_EQ(counter_value("sdc.heals") - heals0, 1);
  EXPECT_EQ(counter_value("sdc.unrecovered") - unrecovered0, 0);
  EXPECT_GE(counter_value("sdc.seals_armed") - armed0, 3);
}

TEST_F(Robustness, ParticleBitflipIsHealedBitwiseToo) {
  PtatinContext ref(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper ref_stepper(ref);
  for (int s = 0; s < 2; ++s) ASSERT_TRUE(ref_stepper.advance(0.004).ok);
  const StateDigest want = digest_state(ref);

  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper stepper(ctx);
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("sdc.particle_bitflip:1:error:1"));
  ASSERT_TRUE(stepper.advance(0.004).ok);
  EXPECT_EQ(fi.injected(), 1);
  EXPECT_TRUE(check_health(ctx).ok);
  ASSERT_TRUE(stepper.advance(0.004).ok);
  EXPECT_EQ(digest_state(ctx), want);
}

TEST_F(Robustness, SanctionedMutationDisarmsSealInsteadOfTripping) {
  PtatinContext ctx(make_sinker_model(tiny_sinker()), tiny_options());
  SafeguardedStepper stepper(ctx);
  ASSERT_TRUE(stepper.advance(0.004).ok);
  // Out-of-band write through the mutable accessor: the epoch bump marks it
  // sanctioned, so the next step must NOT diagnose corruption.
  ctx.mutable_velocity()[0] += 1e-3;
  const long long detections0 = counter_value("sdc.detections");
  SafeguardedStepResult res = stepper.advance(0.004);
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(counter_value("sdc.detections") - detections0, 0);
}

TEST_F(Robustness, KrylovSentinelTripsOnInjectedDriftInCgAndGmres) {
  const Index n = 24;
  CsrMatrix a = spd_diag(n);
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(n, 1.0);
  KrylovSettings s;
  s.max_it = 200;
  s.sentinel_every = 2;

  auto& fi = fault::FaultInjector::instance();
  for (const char* which : {"cg", "gmres", "fgmres"}) {
    fi.disarm_all();
    ASSERT_TRUE(fi.arm_from_spec("sdc.krylov_drift:1:error:1"));
    Vector x;
    SolveStats st;
    if (std::string(which) == "cg") {
      st = cg_solve(op, pc, b, x, s);
    } else if (std::string(which) == "gmres") {
      st = gmres_solve(op, pc, b, x, s);
    } else {
      st = fgmres_solve(op, pc, b, x, s);
    }
    EXPECT_FALSE(st.converged) << which;
    EXPECT_EQ(st.reason, ConvergedReason::kDivergedSdc) << which;
    EXPECT_TRUE(is_fatal(st.reason)) << which;
    EXPECT_NE(st.detail.find("recurrence residual"), std::string::npos)
        << which << ": " << st.detail;
  }
  fi.disarm_all();
}

TEST_F(Robustness, SentinelOnCleanSolveIsBitwiseInvisible) {
  const Index n = 24;
  CsrMatrix a = spd_diag(n);
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(n, 1.0);

  KrylovSettings off;
  off.rtol = 1e-10;
  Vector x_off;
  const SolveStats st_off = cg_solve(op, pc, b, x_off, off);
  ASSERT_TRUE(st_off.converged);

  KrylovSettings on = off;
  on.sentinel_every = 1; // every iteration: the strictest cadence
  Vector x_on;
  const SolveStats st_on = cg_solve(op, pc, b, x_on, on);
  EXPECT_TRUE(st_on.converged);
  EXPECT_EQ(st_on.reason, st_off.reason);
  EXPECT_EQ(st_on.iterations, st_off.iterations);
  for (Index i = 0; i < n; ++i) EXPECT_EQ(x_on[i], x_off[i]) << i;
}

TEST_F(Robustness, SentinelTripHealsBySameDtReplayAtStepperTier) {
  // End to end through the stepper: the trip is classified SDC, replayed at
  // the SAME dt (no dt cut), and the healed digest matches fault-free.
  //
  // The Stokes outer Krylov is GCR (explicit residual — no recurrence to
  // drift), so the sentinel's in-solver path is the energy solve's GMRES:
  // give the sinker a temperature gradient so that solve does real work.
  const auto with_energy = [this] {
    ModelSetup ms = make_sinker_model(tiny_sinker());
    ms.use_energy = true;
    ms.initial_temperature = [](const Vec3& x) { return Real(1) - x[2]; };
    return ms;
  };
  PtatinOptions po = tiny_options();
  po.nonlinear.linear.krylov.sentinel_every = 2;
  PtatinContext ref(with_energy(), po);
  SafeguardedStepper ref_stepper(ref);
  for (int s = 0; s < 2; ++s) ASSERT_TRUE(ref_stepper.advance(0.004).ok);
  const StateDigest want = digest_state(ref);

  PtatinContext ctx(with_energy(), po);
  SafeguardedStepper stepper(ctx);
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("sdc.krylov_drift:1:error:1"));
  SafeguardedStepResult res = stepper.advance(0.004);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.retries, 1);
  EXPECT_NEAR(res.dt_used, 0.004, 0.0); // same-dt replay, not a dt cut
  ASSERT_GE(res.failures.size(), 1u);
  EXPECT_TRUE(sdc::is_sdc_failure(res.failures[0])) << res.failures[0];
  ASSERT_TRUE(stepper.advance(0.004).ok);
  EXPECT_EQ(digest_state(ctx), want);
}

TEST_F(Robustness, InjectorReportsArmedButUnfiredSpecs) {
  auto& fi = fault::FaultInjector::instance();
  ASSERT_TRUE(fi.arm_from_spec("sdc.fieldbitflip:1,t.real:1:nan:1"));
  EXPECT_TRUE(std::isnan(fault::corrupt("t.real", 1.0)));
  // The typo'd site never fires; unfired() names it for the teardown warning
  // (and the chaos campaign fails any faulted run that logs it).
  std::vector<fault::FaultSpec> unfired = fi.unfired();
  ASSERT_EQ(unfired.size(), 1u);
  EXPECT_EQ(unfired[0].site, "sdc.fieldbitflip");
  EXPECT_TRUE(fi.known_sites().size() >= 13u);
  for (const auto& info : fi.known_sites())
    EXPECT_NE(unfired[0].site, info.site); // the typo matches no real site
}

TEST_F(Robustness, SdcSectionRoundTripsThroughJson) {
  // The sdc section is the sdc.* counters at serialization time.
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset_all();
  const std::pair<const char*, long long> counts[] = {
      {"seals_armed", 42},     {"seal_verifies", 41}, {"detections", 3},
      {"heals", 2},            {"sentinel_checks", 500},
      {"sentinel_trips", 1},   {"unrecovered", 1}};
  for (const auto& [key, n] : counts)
    metrics.counter(std::string("sdc.") + key).inc(n);

  const obs::SolverReport rep;
  const obs::JsonValue doc = obs::JsonValue::parse(rep.to_json_string());
  const obs::JsonValue& s = member(doc, "sdc");
  for (const auto& [key, n] : counts)
    EXPECT_EQ(member(s, key).as_number(), n) << key;
  metrics.reset_all();
}

TEST_F(Robustness, SteppedRunReportCountsSealVerifiesLikeTheCounter) {
  // -seal_operators true seals the multigrid operators, which every Stokes
  // solve verifies: the written report's sdc section must count those
  // verifications, as the counter does.
  const char* argv[] = {"test", "-seal_operators", "true"};
  const SolverConfig cfg =
      SolverConfig::from_options(Options::from_args(3, argv));
  const auto ctx = cfg.make_context(make_sinker_model(tiny_sinker()));
  const auto stepper = cfg.make_stepper(*ctx);
  for (int s = 0; s < 2; ++s) ASSERT_TRUE(stepper->advance(0.004).ok);

  ScratchDir dir("report_counts");
  const std::string path = dir.file("solver_report.json");
  ASSERT_TRUE(obs::SolverReport::global().write(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const obs::JsonValue doc = obs::JsonValue::parse(text.str());
  const double verifies =
      member(member(doc, "sdc"), "seal_verifies").as_number();
  EXPECT_GT(verifies, 0);
  EXPECT_EQ(verifies,
            member(member(member(doc, "metrics"), "counters"),
                   "sdc.seal_verifies")
                .as_number());
}

TEST_F(Robustness, SealedRunVerifiesEveryArmedOperatorSeal) {
  // Each Stokes solve arms GMG's seal and its coarse SA-AMG's, and must
  // verify both before the hierarchies die with the solver; the only other
  // seal is the stepper's state seal, armed once per clean step and not
  // counted as a verify.
  const char* argv[] = {"test", "-seal_operators", "true"};
  const SolverConfig cfg =
      SolverConfig::from_options(Options::from_args(3, argv));
  ASSERT_EQ(cfg.stokes().coarse_solve, GmgCoarseSolve::kAmg);
  ASSERT_GE(cfg.stokes().gmg.levels, 2);
  const auto ctx = cfg.make_context(make_sinker_model(tiny_sinker()));
  const auto stepper = cfg.make_stepper(*ctx);
  const long long armed0 = counter_value("sdc.seals_armed");
  const long long verifies0 = counter_value("sdc.seal_verifies");
  const long long mismatches0 = counter_value("sdc.seal_mismatches");
  const int steps = 3;
  for (int s = 0; s < steps; ++s) ASSERT_TRUE(stepper->advance(0.004).ok);
  const long long armed = counter_value("sdc.seals_armed") - armed0;
  const long long verifies = counter_value("sdc.seal_verifies") - verifies0;
  EXPECT_GT(verifies, 0);
  EXPECT_EQ(verifies, armed - steps);
  EXPECT_EQ(counter_value("sdc.seal_mismatches") - mismatches0, 0);
}

// --- driver exit taxonomy ----------------------------------------------------

TEST_F(Robustness, DriverExitCodesAreStableAndDescribed) {
  EXPECT_EQ(int(DriverExit::kSuccess), 0);
  EXPECT_EQ(int(DriverExit::kSolverFailure), 1);
  EXPECT_EQ(int(DriverExit::kUsageError), 2);
  EXPECT_EQ(int(DriverExit::kCheckpointFailure), 3);
  EXPECT_EQ(int(DriverExit::kHealthFailure), 4);
  EXPECT_EQ(int(DriverExit::kSdcFailure), 6);
  EXPECT_STREQ(describe(DriverExit::kSuccess), "success");
  EXPECT_NE(std::string(describe(DriverExit::kSolverFailure)).find("solver"),
            std::string::npos);
  EXPECT_NE(
      std::string(describe(DriverExit::kCheckpointFailure)).find("checkpoint"),
      std::string::npos);
  EXPECT_NE(std::string(describe(DriverExit::kHealthFailure)).find("health"),
            std::string::npos);
}

// --- telemetry round trip ----------------------------------------------------

TEST_F(Robustness, SafeguardSectionRoundTripsThroughJson) {
  obs::SolverReport rep;
  obs::SafeguardRecord rec;
  rec.step = 7;
  rec.recovered = true;
  rec.retries = 2;
  rec.dt_history = {0.02, 0.01, 0.005};
  rec.failures = {"nonlinear: nan_residual", "nonlinear: diverged"};
  rep.add_safeguard(rec);
  obs::NewtonRecord nr;
  nr.label = "newton";
  nr.failure = "stagnation (line search made no progress)";
  nr.fallbacks = 1;
  rep.add_newton(nr);

  const obs::JsonValue doc = obs::JsonValue::parse(rep.to_json_string());
  ASSERT_EQ(member(doc, "safeguards").size(), 1u);
  const obs::JsonValue& r = member(doc, "safeguards").at(0);
  EXPECT_EQ(member(r, "step").as_number(), 7);
  EXPECT_TRUE(member(r, "recovered").as_bool());
  EXPECT_EQ(member(r, "retries").as_number(), 2);
  ASSERT_EQ(member(r, "dt_history").size(), 3u);
  EXPECT_EQ(member(r, "dt_history").at(2).as_number(), 0.005);
  ASSERT_EQ(member(r, "failures").size(), 2u);
  EXPECT_EQ(member(r, "failures").at(1).as_string(), "nonlinear: diverged");
  ASSERT_EQ(member(doc, "newton").size(), 1u);
  const obs::JsonValue& n = member(doc, "newton").at(0);
  EXPECT_EQ(member(n, "failure").as_string(),
            "stagnation (line search made no progress)");
  EXPECT_EQ(member(n, "fallbacks").as_number(), 1);
}

TEST_F(Robustness, StateAndPopulationSectionsRoundTripThroughJson) {
  // The state section's counts are the checkpoint.* and health.* counters.
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset_all();
  metrics.counter("checkpoint.saves").inc(5);
  metrics.counter("checkpoint.save_failures").inc(1);
  metrics.counter("checkpoint.restarts").inc(1);
  metrics.counter("health.checks").inc(6);
  metrics.counter("health.failures").inc(2);
  metrics.counter("health.population_repairs").inc(1);
  obs::SolverReport rep;
  obs::StateRecord& st = rep.state();
  st.restart_step = 40;
  st.restart_path = "/ckpt/ckpt_000040.bin";
  st.corrupt_skipped = {"/ckpt/ckpt_000060.bin"};
  obs::PopulationRecord pr;
  pr.step = 3;
  pr.injected = 12;
  pr.removed = 4;
  pr.deficient = 2;
  pr.min_per_cell = 5;
  pr.max_per_cell = 61;
  rep.add_population(pr);

  const obs::JsonValue doc = obs::JsonValue::parse(rep.to_json_string());
  const obs::JsonValue& s = member(doc, "state");
  EXPECT_EQ(member(s, "checkpoint_saves").as_number(), 5);
  EXPECT_EQ(member(s, "checkpoint_save_failures").as_number(), 1);
  EXPECT_EQ(member(s, "restarts").as_number(), 1);
  EXPECT_EQ(member(s, "restart_step").as_number(), 40);
  EXPECT_EQ(member(s, "restart_path").as_string(), "/ckpt/ckpt_000040.bin");
  ASSERT_EQ(member(s, "corrupt_skipped").size(), 1u);
  EXPECT_EQ(member(s, "corrupt_skipped").at(0).as_string(),
            "/ckpt/ckpt_000060.bin");
  EXPECT_EQ(member(s, "health_checks").as_number(), 6);
  EXPECT_EQ(member(s, "health_failures").as_number(), 2);
  EXPECT_EQ(member(s, "health_repairs").as_number(), 1);
  ASSERT_EQ(member(doc, "population").size(), 1u);
  const obs::JsonValue& p = member(doc, "population").at(0);
  EXPECT_EQ(member(p, "step").as_number(), 3);
  EXPECT_EQ(member(p, "injected").as_number(), 12);
  EXPECT_EQ(member(p, "removed").as_number(), 4);
  EXPECT_EQ(member(p, "deficient").as_number(), 2);
  EXPECT_EQ(member(p, "min_per_cell").as_number(), 5);
  EXPECT_EQ(member(p, "max_per_cell").as_number(), 61);
  metrics.reset_all();
}

} // namespace
} // namespace ptatin
