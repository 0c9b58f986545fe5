// Serve subsystem tests (docs/SERVICE.md): canonical digest stability, job
// spec validation, queue ordering, result-cache accounting and durability,
// and the fleet itself — concurrent drains bitwise identical to standalone
// runs, duplicate coalescing, cooperative preemption with checkpoint resume,
// and watchdog / repeated-failure eviction under the driver exit taxonomy.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "ptatin/checkpoint.hpp"
#include "ptatin/config.hpp"
#include "ptatin/context.hpp"
#include "ptatin/exit_codes.hpp"
#include "ptatin/stepper.hpp"
#include "serve/digest.hpp"
#include "serve/fleet.hpp"
#include "serve/job_spec.hpp"
#include "serve/queue.hpp"
#include "serve/result_cache.hpp"

namespace ptatin::serve {
namespace {

namespace fs = std::filesystem;

class Serve : public ::testing::Test {
protected:
  void SetUp() override {
    fault::FaultInjector::instance().disarm_all();
    dir_ = fs::temp_directory_path() /
           (std::string("ptatin_serve_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::FaultInjector::instance().disarm_all();
    fs::remove_all(dir_);
  }
  std::string dir(const std::string& sub = "") const {
    return (dir_ / sub).string();
  }

private:
  fs::path dir_;
};

JobSpec spec_from(const std::string& json) {
  return JobSpec::from_json_text(json);
}

/// Solve a spec exactly as the CLI driver would (no fleet, no checkpoints):
/// the bitwise reference for fleet parity assertions.
StateDigest run_standalone(const JobSpec& spec) {
  int vaxis = 2;
  ModelSetup setup = spec.build_model(vaxis);
  SolverConfig cfg = spec.config;
  cfg.ptatin().ale.vertical_axis = vaxis;
  PtatinContext ctx(std::move(setup), cfg.ptatin());
  SafeguardedStepper stepper(ctx, cfg.safeguard());
  for (int s = 1; s <= spec.steps; ++s) {
    Real dt = ctx.suggest_dt(spec.cfl);
    if (s == 1 || dt <= 0) dt = spec.dt0;
    const SafeguardedStepResult r = stepper.advance(dt);
    EXPECT_TRUE(r.ok);
  }
  return digest_state(ctx);
}

// --- digest ------------------------------------------------------------------

TEST_F(Serve, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hex64(0xcbf29ce484222325ull), "cbf29ce484222325");
  EXPECT_EQ(hex64(0x1ull), "0000000000000001");
  EXPECT_EQ(digest_string("abc").size(), 16u);
}

TEST_F(Serve, DigestIsFieldOrderIndependent) {
  const JobSpec a =
      spec_from(R"({"model":"sinker","m":6,"steps":3,"backend":"mf"})");
  const JobSpec b =
      spec_from(R"({"backend":"mf","steps":3,"m":6,"model":"sinker"})");
  EXPECT_EQ(a.digest(), b.digest());
}

TEST_F(Serve, DigestTreatsExplicitDefaultsAsAbsent) {
  // Default-filled and explicitly-spelled defaults hash identically: the
  // canonical form serializes the *resolved* configuration.
  const JobSpec implicit = spec_from(R"({"model":"sinker"})");
  const JobSpec spelled = spec_from(
      R"({"model":"sinker","m":8,"steps":5,"dt":0.002,"cfl":0.25,
          "backend":"tens","coarse":"amg","newton":true,"ppd":3,
          "safeguard":true,"max_retries":3})");
  EXPECT_EQ(implicit.digest(), spelled.digest());
}

TEST_F(Serve, DigestDistinguishesDistinctConfigs) {
  const JobSpec ref = spec_from(R"({"model":"sinker","m":6,"steps":3})");
  const char* variants[] = {
      R"({"model":"sinker","m":8,"steps":3})",
      R"({"model":"sinker","m":6,"steps":4})",
      R"({"model":"sinker","m":6,"steps":3,"backend":"mf"})",
      R"({"model":"sinker","m":6,"steps":3,"ppd":4})",
      R"({"model":"sinker","m":6,"steps":3,"contrast":100})",
      R"({"model":"sinker","m":6,"steps":3,"dt":0.001})",
      R"({"model":"sinker","m":6,"steps":3,"max_retries":1})",
      R"({"model":"rifting","mx":6,"steps":3})",
  };
  for (const char* v : variants)
    EXPECT_NE(ref.digest(), spec_from(v).digest()) << v;
}

TEST_F(Serve, DigestExcludesSchedulingAndCheckpointKnobs) {
  // name/priority/cores and the checkpoint cadence are result-invariant and
  // must not fragment the cache.
  const JobSpec ref = spec_from(R"({"model":"sinker","m":6,"steps":3})");
  const JobSpec decorated = spec_from(
      R"({"model":"sinker","m":6,"steps":3,"name":"x","priority":9,
          "cores":4,"checkpoint_every":1,"checkpoint_keep":7})");
  EXPECT_EQ(ref.digest(), decorated.digest());
}

// --- job spec parsing --------------------------------------------------------

TEST_F(Serve, FromJsonParsesServeFields) {
  const JobSpec s = spec_from(
      R"({"name":"hot","priority":2,"cores":3,"model":"sinker","m":4,
          "steps":7,"dt":0.001,"cfl":0.3,"backend":"mf"})");
  EXPECT_EQ(s.name, "hot");
  EXPECT_EQ(s.priority, 2);
  EXPECT_EQ(s.cores, 3);
  EXPECT_EQ(s.steps, 7);
  EXPECT_DOUBLE_EQ(s.dt0, 0.001);
  EXPECT_DOUBLE_EQ(s.cfl, 0.3);
  EXPECT_EQ(s.config.stokes().kernel.type, FineOperatorType::kMatrixFree);
}

TEST_F(Serve, FromJsonRejectsUnknownKeysWithSuggestions) {
  try {
    spec_from(R"({"model":"sinker","backnd":"mf"})");
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option -backnd"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-backend"), std::string::npos) << msg;
  }
}

TEST_F(Serve, FromJsonRejectsNonScalarFieldsAndNonObjects) {
  EXPECT_THROW(spec_from(R"({"model":"sinker","m":[4,5]})"), Error);
  EXPECT_THROW(spec_from(R"({"model":"sinker","m":{"x":4}})"), Error);
  EXPECT_THROW(spec_from(R"([1,2,3])"), Error);
  EXPECT_THROW(spec_from(R"("just a string")"), Error);
}

TEST_F(Serve, FromJsonValidatesBudgetsAndModel) {
  EXPECT_THROW(spec_from(R"({"cores":0})"), Error);
  EXPECT_THROW(spec_from(R"({"steps":0})"), Error);
  EXPECT_THROW(spec_from(R"({"dt":-1})"), Error);
  EXPECT_THROW(spec_from(R"({"model":"volcano"})"), Error);
  EXPECT_THROW(spec_from(R"({"ppd":0})"), Error);
  EXPECT_THROW(spec_from(R"({"checkpoint_keep":0})"), Error);
}

TEST_F(Serve, SolverConfigFromJsonMatchesFromOptions) {
  const obs::JsonValue j =
      obs::JsonValue::parse(R"({"backend":"mf","levels":2,"newton":false})");
  const SolverConfig cfg = SolverConfig::from_json(j);
  EXPECT_EQ(cfg.stokes().kernel.type, FineOperatorType::kMatrixFree);
  EXPECT_EQ(cfg.stokes().gmg.levels, 2);
  EXPECT_FALSE(cfg.ptatin().nonlinear.use_newton);
  EXPECT_THROW(
      SolverConfig::from_json(obs::JsonValue::parse(R"({"levles":2})")),
      Error);
}

TEST_F(Serve, ParseJobBatchAcceptsBothShapesAndPrefixesErrors) {
  EXPECT_EQ(parse_job_batch(R"([{"m":4},{"m":5}])").size(), 2u);
  EXPECT_EQ(parse_job_batch(R"({"jobs":[{"m":4}]})").size(), 1u);
  EXPECT_THROW(parse_job_batch(R"({"not_jobs":[]})"), Error);
  try {
    parse_job_batch(R"([{"m":4},{"mq":4}])");
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("job 2:"), std::string::npos)
        << e.what();
  }
}

// --- queue -------------------------------------------------------------------

struct FakeJob {
  int priority = 0;
  std::uint64_t seq = 0;
  int cores = 1;
};

TEST_F(Serve, QueueOrdersByPriorityThenFifo) {
  JobQueue<FakeJob> q;
  auto push = [&q](int prio, std::uint64_t seq) {
    auto j = std::make_shared<FakeJob>();
    j->priority = prio;
    j->seq = seq;
    q.push(j);
  };
  push(0, 1);
  push(5, 2);
  push(5, 3);
  push(1, 4);
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.pop_fitting(8)->seq, 2u); // highest priority, earliest seq
  EXPECT_EQ(q.pop_fitting(8)->seq, 3u); // FIFO within the priority class
  EXPECT_EQ(q.pop_fitting(8)->seq, 4u);
  EXPECT_EQ(q.pop_fitting(8)->seq, 1u);
  EXPECT_EQ(q.pop_fitting(8), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST_F(Serve, QueueAdmissionSkipsJobsThatDoNotFit) {
  JobQueue<FakeJob> q;
  auto wide = std::make_shared<FakeJob>();
  wide->priority = 9;
  wide->seq = 1;
  wide->cores = 8;
  auto narrow = std::make_shared<FakeJob>();
  narrow->priority = 0;
  narrow->seq = 2;
  narrow->cores = 2;
  q.push(wide);
  q.push(narrow);
  // Only 4 cores free: the wide high-priority job cannot take them and must
  // not block the narrow one (no head-of-line blocking on width).
  EXPECT_EQ(q.pop_fitting(4), narrow);
  EXPECT_EQ(q.front(), wide);
  EXPECT_TRUE(q.remove(wide));
  EXPECT_FALSE(q.remove(wide));
  EXPECT_TRUE(q.empty());
}

// --- result cache ------------------------------------------------------------

obs::JsonValue record_for(const std::string& tag) {
  obs::JsonValue j = obs::JsonValue::object();
  j["tag"] = obs::JsonValue(tag);
  return j;
}

TEST_F(Serve, CacheCountsHitsAndMisses) {
  ResultCache cache("", 8);
  EXPECT_FALSE(cache.lookup("aaaa").has_value());
  cache.insert("aaaa", record_for("one"));
  const auto hit = cache.lookup("aaaa");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->find("tag")->as_string(), "one");
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.insertions, 1);
  EXPECT_EQ(st.evictions, 0);
}

TEST_F(Serve, CacheEvictsLeastRecentlyUsedAndItsFile) {
  ResultCache cache(dir("cache"), 2);
  cache.insert("aaaa", record_for("a"));
  cache.insert("bbbb", record_for("b"));
  EXPECT_TRUE(cache.lookup("aaaa").has_value()); // refresh a; b is now LRU
  cache.insert("cccc", record_for("c"));         // evicts b
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(fs::exists(dir("cache") + "/aaaa.json"));
  EXPECT_FALSE(fs::exists(dir("cache") + "/bbbb.json"));
  EXPECT_TRUE(fs::exists(dir("cache") + "/cccc.json"));
}

TEST_F(Serve, CacheSurvivesRestartViaDisk) {
  {
    ResultCache cache(dir("cache"), 8);
    cache.insert("dddd", record_for("durable"));
  }
  ResultCache reborn(dir("cache"), 8);
  const auto hit = reborn.lookup("dddd");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->find("tag")->as_string(), "durable");
  EXPECT_EQ(reborn.stats().disk_loads, 1);
  EXPECT_EQ(reborn.stats().hits, 1);
  // Promoted into memory: the second lookup is a pure memory hit.
  EXPECT_TRUE(reborn.lookup("dddd").has_value());
  EXPECT_EQ(reborn.stats().disk_loads, 1);
}

TEST_F(Serve, CacheTreatsCorruptDiskRecordAsMiss) {
  ResultCache cache(dir("cache"), 8);
  std::ofstream(dir("cache") + "/eeee.json") << "{torn";
  EXPECT_FALSE(cache.lookup("eeee").has_value());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

// --- fleet -------------------------------------------------------------------

TEST_F(Serve, FleetDrainsConcurrentJobsBitwiseIdenticalToStandalone) {
  FleetOptions fo;
  fo.max_concurrent = 4;
  fo.total_cores = 4; // explicit: the test host may expose a single core
  fo.workdir = dir("wd");
  Fleet fleet(fo);
  // Four distinct jobs with mixed core budgets and priorities: each result
  // must be bitwise identical to a standalone driver-style run.
  const char* specs[] = {
      R"({"name":"j1","model":"sinker","m":4,"steps":2,"cores":2})",
      R"({"name":"j2","model":"sinker","m":4,"steps":2,"contrast":100})",
      R"({"name":"j3","model":"sinker","m":5,"steps":2,"priority":1})",
      R"({"name":"j4","model":"sinker","m":4,"steps":3})",
  };
  std::vector<std::shared_ptr<Job>> jobs;
  for (const char* s : specs) jobs.push_back(fleet.submit(spec_from(s)));
  fleet.run_until_drained();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i]->state, JobState::kCompleted) << jobs[i]->failure;
    EXPECT_FALSE(jobs[i]->from_cache);
    EXPECT_EQ(jobs[i]->result_digest, run_standalone(spec_from(specs[i])))
        << specs[i];
  }
  const FleetReport r = fleet.report();
  EXPECT_EQ(r.submitted, 4);
  EXPECT_EQ(r.completed, 4);
  EXPECT_EQ(r.evicted, 0);
  EXPECT_GT(r.throughput_jobs_per_s, 0.0);
  EXPECT_GE(r.latency_p99, r.latency_p50);
  EXPECT_LE(r.peak_cores_in_use, 4);
}

TEST_F(Serve, FleetCoalescesDuplicateSpecsToOneSolve) {
  FleetOptions fo;
  fo.max_concurrent = 2;
  fo.total_cores = 2;
  fo.workdir = dir("wd");
  Fleet fleet(fo);
  const std::string spec = R"({"model":"sinker","m":4,"steps":2})";
  auto a = fleet.submit(spec_from(spec));
  auto b = fleet.submit(spec_from(spec));
  auto c = fleet.submit(spec_from(spec));
  fleet.run_until_drained();
  EXPECT_EQ(a->state, JobState::kCompleted);
  EXPECT_EQ(b->state, JobState::kCompleted);
  EXPECT_EQ(c->state, JobState::kCompleted);
  // Exactly one solve; the twins are cache-served with identical results.
  EXPECT_EQ(int(a->from_cache) + int(b->from_cache) + int(c->from_cache), 2);
  EXPECT_EQ(a->result_digest, b->result_digest);
  EXPECT_EQ(a->result_digest, c->result_digest);
  EXPECT_EQ(fleet.report().served_from_cache, 2);
}

TEST_F(Serve, ResubmittedSpecIsACacheHitAcrossFleets) {
  const std::string spec = R"({"model":"sinker","m":4,"steps":2})";
  StateDigest first;
  {
    FleetOptions fo;
    fo.workdir = dir("wd");
    Fleet fleet(fo);
    auto job = fleet.submit(spec_from(spec));
    fleet.run_until_drained();
    ASSERT_EQ(job->state, JobState::kCompleted) << job->failure;
    EXPECT_FALSE(job->from_cache);
    first = job->result_digest;
  }
  FleetOptions fo;
  fo.workdir = dir("wd"); // same workdir: the durable cache carries over
  Fleet fleet(fo);
  auto job = fleet.submit(spec_from(spec));
  EXPECT_EQ(job->state, JobState::kCompleted); // completed at submit time
  EXPECT_TRUE(job->from_cache);
  EXPECT_EQ(job->result_digest, first);
}

TEST_F(Serve, FleetRejectsJobsThatCanNeverBeAdmitted) {
  FleetOptions fo;
  fo.total_cores = 2;
  Fleet fleet(fo);
  EXPECT_THROW(fleet.submit(spec_from(R"({"model":"sinker","cores":4})")),
               Error);
}

TEST_F(Serve, PreemptionYieldsResumesAndStaysBitwiseIdentical) {
  FleetOptions fo;
  fo.max_concurrent = 1; // one slot: the hot job can only start via a yield
  fo.total_cores = 1;
  fo.workdir = dir("wd");
  Fleet fleet(fo);
  const std::string long_spec =
      R"({"name":"long","model":"sinker","m":4,"steps":8,"priority":0})";
  const std::string hot_spec =
      R"({"name":"hot","model":"sinker","m":4,"steps":1,"priority":5})";
  auto long_job = fleet.submit(spec_from(long_spec));
  std::thread drain([&fleet] { fleet.run_until_drained(); });
  // Let the low-priority job establish progress, then submit the hot job.
  while (long_job->steps_done.load() < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto hot_job = fleet.submit(spec_from(hot_spec));
  drain.join();

  ASSERT_EQ(long_job->state, JobState::kCompleted) << long_job->failure;
  ASSERT_EQ(hot_job->state, JobState::kCompleted) << hot_job->failure;
  EXPECT_GE(long_job->preemptions, 1);
  EXPECT_GE(long_job->resumed_from, 1);
  EXPECT_LT(hot_job->end_s, long_job->end_s); // the hot job finished first
  // Preempt/resume must not perturb a single state bit.
  EXPECT_EQ(long_job->result_digest, run_standalone(spec_from(long_spec)));
  const FleetReport r = fleet.report();
  EXPECT_GE(r.preemptions, 1);
  EXPECT_GE(r.resumed, 1);
}

TEST_F(Serve, RepeatedlyFailingJobIsEvictedWithSolverExitCode) {
  // Poison every nonlinear residual: the safeguard exhausts its retries, the
  // fleet restarts the job max_job_restarts times, then evicts it.
  ASSERT_TRUE(
      fault::FaultInjector::instance().arm_from_spec("nonlin.rnorm:1:nan:*"));
  FleetOptions fo;
  fo.workdir = dir("wd");
  fo.max_job_restarts = 1;
  Fleet fleet(fo);
  auto job = fleet.submit(
      spec_from(R"({"model":"sinker","m":4,"steps":2,"max_retries":1})"));
  fleet.run_until_drained();
  EXPECT_EQ(job->state, JobState::kEvicted);
  EXPECT_EQ(job->failures, 2); // the initial run plus one restart
  EXPECT_EQ(job->exit_code, DriverExit::kSolverFailure);
  EXPECT_NE(job->failure.find("repeatedly failing"), std::string::npos)
      << job->failure;
  EXPECT_EQ(fleet.report().evicted, 1);
}

TEST_F(Serve, JobDyingTwiceOfSdcIsQuarantinedAndNeverCached) {
  // Persistently corrupt the sealed operator hierarchy: every incarnation
  // dies with the SDC exit code. Two such deaths are a reproducible
  // corruption signature (docs/ROBUSTNESS.md) — the job goes terminal
  // sdc_quarantined without burning the remaining restart budget, and its
  // digest is never admitted to the result cache.
  ASSERT_TRUE(fault::FaultInjector::instance().arm_from_spec(
      "sdc.matrix_bitflip:1:error:*"));
  FleetOptions fo;
  fo.workdir = dir("wd");
  fo.max_job_restarts = 5; // quarantine must trigger before this is spent
  Fleet fleet(fo);
  auto job = fleet.submit(spec_from(
      // m=6: deep enough for an assembled (and therefore sealed) coarse
      // operator — suggest_gmg_levels collapses m<=5 to a single mat-free
      // level with nothing to corrupt.
      R"({"name":"poisoned","model":"sinker","m":6,"steps":2,)"
      R"("scrub_every":1,"max_retries":1})"));
  fleet.run_until_drained();
  EXPECT_EQ(job->state, JobState::kQuarantined);
  EXPECT_EQ(job->exit_code, DriverExit::kSdcFailure);
  EXPECT_EQ(job->sdc_failures, 2);
  EXPECT_NE(job->failure.find("sdc_quarantined"), std::string::npos)
      << job->failure;
  const FleetReport r = fleet.report();
  EXPECT_EQ(r.quarantined, 1);
  EXPECT_EQ(r.completed, 0);
  EXPECT_FALSE(
      fs::exists(fs::path(dir("wd")) / "cache" / (job->digest + ".json")))
      << "quarantined digest leaked into the result cache";
}

TEST_F(Serve, WatchdogEvictsJobsPastTheirDeadline) {
  FleetOptions fo;
  fo.workdir = dir("wd");
  fo.job_deadline_s = 0.001; // expires by the first step boundary
  Fleet fleet(fo);
  auto job = fleet.submit(spec_from(R"({"model":"sinker","m":4,"steps":50})"));
  fleet.run_until_drained();
  EXPECT_EQ(job->state, JobState::kEvicted);
  EXPECT_EQ(job->exit_code, DriverExit::kHealthFailure);
  EXPECT_NE(job->failure.find("watchdog"), std::string::npos) << job->failure;
}

TEST_F(Serve, FleetReportRoundTripsThroughJson) {
  FleetOptions fo;
  fo.max_concurrent = 2;
  fo.total_cores = 2;
  fo.workdir = dir("wd");
  Fleet fleet(fo);
  fleet.submit(spec_from(R"({"model":"sinker","m":4,"steps":2})"));
  fleet.submit(spec_from(R"({"model":"sinker","m":4,"steps":2,"dt":0.001})"));
  fleet.run_until_drained();
  ASSERT_TRUE(fleet.report().write(dir("fleet_report.json")));

  std::ifstream in(dir("fleet_report.json"));
  std::ostringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue j = obs::JsonValue::parse(ss.str());
  EXPECT_EQ(j.find("schema")->as_string(), obs::kFleetReportSchema);
  EXPECT_EQ((long long)j.find("jobs")->find("submitted")->as_number(), 2);
  EXPECT_EQ((long long)j.find("jobs")->find("completed")->as_number(), 2);
  ASSERT_NE(j.find("latency"), nullptr);
  EXPECT_GE(j.find("latency")->find("p99_s")->as_number(),
            j.find("latency")->find("p50_s")->as_number());
  ASSERT_NE(j.find("cache"), nullptr);
  ASSERT_NE(j.find("queue"), nullptr);
  ASSERT_NE(j.find("cores"), nullptr);
  EXPECT_GT(j.find("throughput_jobs_per_s")->as_number(), 0.0);
  ASSERT_NE(j.find("per_job"), nullptr);
  EXPECT_EQ(j.find("per_job")->size(), 2u);
  EXPECT_NE(j.find("per_job")->at(0).find("digest"), nullptr);
}

} // namespace
} // namespace ptatin::serve
