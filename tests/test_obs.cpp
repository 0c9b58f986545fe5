// Telemetry subsystem tests: JSON round-trips, trace span nesting and
// thread-merge, metric percentiles, perf accumulation under OpenMP, and
// solver-report capture on a real (small) Stokes solve.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/options.hpp"
#include "common/parallel.hpp"
#include "ksp/cg.hpp"
#include "la/coo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"

namespace ptatin {
namespace {

using obs::JsonValue;

// --- JSON ---------------------------------------------------------------------

TEST(Json, BuildDumpParseRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc["name"] = JsonValue("pTatin \"3D\"\n");
  doc["pi"] = JsonValue(3.141592653589793);
  doc["count"] = JsonValue(42);
  doc["big"] = JsonValue(1234567890123LL);
  doc["yes"] = JsonValue(true);
  doc["nothing"] = JsonValue();
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(1.5));
  arr.push_back(JsonValue(-2e-8));
  doc["arr"] = std::move(arr);

  for (int indent : {0, 1, 2}) {
    const JsonValue back = JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(back.find("name")->as_string(), "pTatin \"3D\"\n");
    EXPECT_DOUBLE_EQ(back.find("pi")->as_number(), 3.141592653589793);
    EXPECT_DOUBLE_EQ(back.find("count")->as_number(), 42.0);
    EXPECT_DOUBLE_EQ(back.find("big")->as_number(), 1234567890123.0);
    EXPECT_TRUE(back.find("yes")->as_bool());
    EXPECT_TRUE(back.find("nothing")->is_null());
    ASSERT_EQ(back.find("arr")->size(), 2u);
    EXPECT_DOUBLE_EQ(back.find("arr")->at(1).as_number(), -2e-8);
  }
}

TEST(Json, PreservesInsertionOrder) {
  JsonValue doc = JsonValue::object();
  doc["zulu"] = JsonValue(1);
  doc["alpha"] = JsonValue(2);
  const std::string s = doc.dump();
  EXPECT_LT(s.find("zulu"), s.find("alpha"));
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_THROW(JsonValue::parse("{"), Error);
  EXPECT_THROW(JsonValue::parse("[1,]"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse(""), Error);
}

TEST(Json, ParsesStandardEscapes) {
  const JsonValue v = JsonValue::parse(R"({"s": "a\tbA\\"})");
  EXPECT_EQ(v.find("s")->as_string(), "a\tbA\\");
}

TEST(Json, RoundTripsControlCharactersThroughEscapes) {
  // Raw control bytes in a value must dump as \uXXXX and parse back intact.
  // Adjacent literals keep \x01 from swallowing the 'b' as a hex digit.
  const std::string raw = "a" "\x01" "b" "\x1f" "c\nd\"e\\f";
  JsonValue doc = JsonValue::object();
  doc["s"] = JsonValue(raw);
  const std::string text = doc.dump();
  EXPECT_EQ(text.find('\x01'), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_EQ(JsonValue::parse(text).find("s")->as_string(), raw);
}

TEST(Json, ParsesUnicodeEscapesIncludingSurrogatePairs) {
  const JsonValue v = JsonValue::parse(
      R"({"bmp": "\u0041\u00e9\u20ac", "astral": "\ud83d\ude00"})");
  EXPECT_EQ(v.find("bmp")->as_string(), "A\xc3\xa9\xe2\x82\xac"); // A é €
  EXPECT_EQ(v.find("astral")->as_string(), "\xf0\x9f\x98\x80");   // U+1F600
  // And the decoded strings survive a dump/parse round trip.
  const JsonValue back = JsonValue::parse(v.dump());
  EXPECT_EQ(back.find("astral")->as_string(), v.find("astral")->as_string());
}

TEST(Json, RejectsBadUnicodeEscapes) {
  EXPECT_THROW(JsonValue::parse(R"(["\u12"])"), Error);      // truncated
  EXPECT_THROW(JsonValue::parse(R"(["\u12zz"])"), Error);    // bad hex digit
  EXPECT_THROW(JsonValue::parse(R"(["\ude00"])"), Error);    // lone low half
  EXPECT_THROW(JsonValue::parse(R"(["\ud83dx"])"), Error);   // unpaired high
  EXPECT_THROW(JsonValue::parse(R"(["\ud83dA"])"), Error); // wrong pair
}

TEST(Json, RejectsUnescapedControlCharactersInStrings) {
  EXPECT_THROW(JsonValue::parse("[\"a\x01typo\"]"), Error);
  EXPECT_THROW(JsonValue::parse("[\"a\nb\"]"), Error);
}

TEST(Json, RejectsTrailingGarbageWithPosition) {
  try {
    JsonValue::parse("{\"a\": 1}\nxx");
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trailing characters"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
}

TEST(Json, RejectsDuplicateKeysWithPosition) {
  try {
    JsonValue::parse(R"({"a": 1, "b": 2, "a": 3})");
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate object key \"a\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  }
}

// --- options ------------------------------------------------------------------

TEST(Options, DoubleDashIsSynonymForSingleDash) {
  const char* argv[] = {"prog", "--telemetry", "/tmp/out", "-m", "8",
                        "--verbose"};
  Options o = Options::from_args(6, argv);
  EXPECT_EQ(o.get_string("telemetry", ""), "/tmp/out");
  EXPECT_EQ(o.get_int("m", 0), 8);
  EXPECT_TRUE(o.get_bool("verbose", false));
}

// --- metrics ------------------------------------------------------------------

TEST(Metrics, HistogramNearestRankPercentiles) {
  obs::Histogram h;
  for (int i = 100; i >= 1; --i) h.record(double(i));
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);

  const obs::Histogram::Summary s = h.summarize();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
}

TEST(Metrics, CountersAreThreadSafe) {
  auto& c = obs::MetricsRegistry::instance().counter("test.obs.counter");
  c.reset();
  parallel_for(10000, [&](Index) { c.inc(); });
  EXPECT_EQ(c.value(), 10000);
  c.reset();
}

TEST(Metrics, RegistryJsonOmitsEmpty) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("test.obs.zero").reset();
  reg.counter("test.obs.nonzero").reset();
  reg.counter("test.obs.nonzero").inc(7);
  const JsonValue j = reg.to_json();
  const JsonValue* counters = j.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("test.obs.zero"), nullptr);
  ASSERT_NE(counters->find("test.obs.nonzero"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("test.obs.nonzero")->as_number(), 7.0);
  reg.counter("test.obs.nonzero").reset();
}

// --- tracing ------------------------------------------------------------------

TEST(Trace, NestedSpansRecordDepthAndContainment) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    PerfScope outer("obs-test-outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      PerfScope inner("obs-test-inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  tracer.set_enabled(false);

  const auto events = tracer.collect();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (e.name == "obs-test-outer") outer = &e;
    if (e.name == "obs-test-inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  // Containment: inner lies within [outer.start, outer.end].
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
  tracer.clear();
}

TEST(Trace, MergesEventsFromWorkerThreads) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  constexpr Index kN = 64;
  parallel_for(kN, [&](Index) { PerfScope s("obs-test-mt"); });
  tracer.set_enabled(false);

  const auto events = tracer.collect();
  Index count = 0;
  std::set<int> tids;
  for (const auto& e : events) {
    if (e.name != "obs-test-mt") continue;
    ++count;
    tids.insert(e.tid);
  }
  EXPECT_EQ(count, kN);
  if (num_threads() > 1) {
    EXPECT_GT(tids.size(), 1u);
  }
  // collect() returns events sorted by start time.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  tracer.clear();
}

TEST(Trace, ChromeTraceJsonIsValidAndComplete) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  { PerfScope s("obs-test-chrome", 123.0, 456.0, 789.0); }
  tracer.set_enabled(false);

  const JsonValue doc = JsonValue::parse(tracer.chrome_trace_json());
  const JsonValue* evs = doc.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_EQ(evs->size(), 1u);
  const JsonValue& e = evs->at(0);
  EXPECT_EQ(e.find("name")->as_string(), "obs-test-chrome");
  EXPECT_EQ(e.find("ph")->as_string(), "X");
  EXPECT_GE(e.find("dur")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(e.find("args")->find("flops")->as_number(), 123.0);
  tracer.clear();
}

// --- perf registry ------------------------------------------------------------

TEST(Perf, AccumulatesFromOpenMpRegionsWithoutRaces) {
  auto& reg = PerfRegistry::instance();
  reg.event("obs-test-omp").reset();
  constexpr Index kIters = 1000;
  parallel_for(kIters, [&](Index) { PerfScope p("obs-test-omp", 10.0); });
  const PerfEvent& ev = reg.event("obs-test-omp");
  EXPECT_EQ(ev.calls(), kIters);
  EXPECT_DOUBLE_EQ(ev.flops, 10.0 * kIters);
  EXPECT_GT(ev.seconds(), 0.0);
}

// --- solver report ------------------------------------------------------------

TEST(Report, CapturesStokesResidualHistoryAndRoundTrips) {
  auto& report = obs::SolverReport::global();
  report.clear();
  report.set_enabled(true);

  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  // Mild embedded blob (same as test_solver_configs): converges quickly on
  // the small 2-level configuration under test.
  QuadCoefficients coeff(mesh.num_elements());
  for (Index e = 0; e < mesh.num_elements(); ++e) {
    ElementGeometry g;
    element_geometry(mesh, e, g);
    for (int q = 0; q < kQuadPerEl; ++q) {
      const Real dx = g.xq[q][0] - 0.4, dz = g.xq[q][2] - 0.6;
      const bool in = dx * dx + dz * dz < 0.06;
      coeff.eta(e, q) = in ? 5.0 : 0.5;
      coeff.rho(e, q) = in ? 1.3 : 1.0;
    }
  }
  DirichletBc bc = sinker_boundary_conditions(mesh);
  StokesSolverOptions so;
  so.gmg.levels = 2;
  so.coarse_solve = GmgCoarseSolve::kBJacobiLu;
  so.coarse_bjacobi_blocks = 1;
  StokesSolver solver(mesh, coeff, bc, so);
  Vector f = assemble_body_force(mesh, coeff, {0, 0, -9.8});
  StokesSolveResult res = solver.solve(f);
  ASSERT_TRUE(res.stats.converged);
  report.set_enabled(false);

  ASSERT_EQ(report.krylov_solves().size(), 1u);
  const obs::KrylovRecord& rec = report.krylov_solves().front();
  EXPECT_EQ(rec.label, "stokes_outer");
  EXPECT_TRUE(rec.converged);
  EXPECT_EQ(rec.iterations, res.stats.iterations);
  // history[0] is the TRUE initial residual; one entry per iteration after.
  ASSERT_EQ(rec.history.size(), std::size_t(rec.iterations) + 1);
  EXPECT_DOUBLE_EQ(rec.history.front(), rec.initial_residual);
  EXPECT_DOUBLE_EQ(rec.history.back(), rec.final_residual);
  for (std::size_t i = 0; i < rec.history.size(); ++i)
    EXPECT_GT(rec.history[i], 0.0);

  // Serialize: per-iteration history and per-MG-level timings are present.
  report.set_meta("case", "unit-test");
  const std::string text = report.to_json_string();
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), obs::kSolverReportSchema);
  ASSERT_EQ(doc.find("krylov")->size(), 1u);
  EXPECT_EQ(doc.find("krylov")->at(0).find("history")->size(),
            rec.history.size());
  const JsonValue* mg = doc.find("mg_levels");
  ASSERT_NE(mg, nullptr);
  EXPECT_GE(mg->size(), 1u); // at least the fine level smoother was timed

  // Round-trip: the written values read back exactly.
  EXPECT_EQ(doc.find("meta")->find("case")->as_string(), "unit-test");
  const JsonValue& solve = doc.find("krylov")->at(0);
  EXPECT_EQ(solve.find("iterations")->as_number(), rec.iterations);
  EXPECT_EQ(solve.find("history")->at(0).as_number(), rec.initial_residual);
  report.clear();
}

TEST(Report, WriteTelemetryProducesBothFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ptatin_obs_test_telemetry";
  fs::remove_all(dir);

  obs::enable_telemetry(true);
  { PerfScope s("obs-test-file"); }
  ASSERT_TRUE(obs::write_telemetry(dir.string()));
  obs::enable_telemetry(false);

  for (const char* name : {"trace.json", "solver_report.json"}) {
    std::ifstream in(dir / name);
    ASSERT_TRUE(bool(in)) << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NO_THROW(JsonValue::parse(ss.str())) << name;
  }
  fs::remove_all(dir);
  obs::Tracer::instance().clear();
}

// --- KSP initial residual (monitor convention) --------------------------------

TEST(KspMonitor, FirstCallbackReportsTrueInitialResidual) {
  CooMatrix coo(16, 16);
  for (Index i = 0; i < 16; ++i) coo.add(i, i, Real(i + 2));
  CsrMatrix a = coo.to_csr();
  MatrixOperator op(&a);
  IdentityPc pc;
  Vector b(16, 1.0), x;

  std::vector<int> its;
  std::vector<Real> norms;
  KrylovSettings s;
  s.rtol = 1e-10;
  s.monitor = [&](int it, Real rnorm, const Vector*) {
    its.push_back(it);
    norms.push_back(rnorm);
  };
  SolveStats st = cg_solve(op, pc, b, x, s);
  ASSERT_TRUE(st.converged);
  ASSERT_GE(its.size(), 2u);
  EXPECT_EQ(its.front(), 0);
  EXPECT_DOUBLE_EQ(norms.front(), st.initial_residual);
  // Monitor trace matches the recorded history exactly.
  ASSERT_EQ(norms.size(), st.history.size());
  for (std::size_t i = 0; i < norms.size(); ++i)
    EXPECT_DOUBLE_EQ(norms[i], st.history[i]);
}

// --- bench trajectories -------------------------------------------------------

TEST(Bench, AppendBenchRunCreatesAndAppends) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "ptatin_obs_test_bench.json";
  fs::remove(path);

  JsonValue run1 = JsonValue::object();
  run1["value"] = JsonValue(1);
  ASSERT_TRUE(obs::append_bench_run(path.string(), "unit-bench", run1));
  JsonValue run2 = JsonValue::object();
  run2["value"] = JsonValue(2);
  ASSERT_TRUE(obs::append_bench_run(path.string(), "unit-bench", run2));

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = JsonValue::parse(ss.str());
  EXPECT_EQ(doc.find("schema")->as_string(), obs::kBenchSchema);
  EXPECT_EQ(doc.find("name")->as_string(), "unit-bench");
  ASSERT_EQ(doc.find("runs")->size(), 2u);
  EXPECT_DOUBLE_EQ(doc.find("runs")->at(0).find("value")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.find("runs")->at(1).find("value")->as_number(), 2.0);
  // Runs are stamped so trajectories order across sessions.
  EXPECT_NE(doc.find("runs")->at(0).find("unix_time"), nullptr);
  fs::remove(path);
}

} // namespace
} // namespace ptatin
