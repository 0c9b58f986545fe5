// Unit tests for the common utilities module.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/parallel.hpp"
#include "obs/perf.hpp"
#include "common/rng.hpp"
#include "common/small_mat.hpp"
#include "common/timing.hpp"

namespace ptatin {
namespace {

TEST(Error, AssertThrowsWithLocation) {
  try {
    PT_ASSERT_MSG(false, "context message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, AssertPassesOnTrue) { EXPECT_NO_THROW(PT_ASSERT(1 + 1 == 2)); }

TEST(Aligned, VectorIsAligned) {
  AlignedVector<double> v(100, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kSimdAlign, 0u);
}

TEST(Aligned, EmptyAllocation) {
  AlignedVector<double> v;
  EXPECT_TRUE(v.empty());
  v.resize(3, 2.0);
  EXPECT_EQ(v[2], 2.0);
}

TEST(Parallel, ForCoversAllIndices) {
  std::vector<int> hit(1000, 0);
  parallel_for(1000, [&](Index i) { hit[i] += 1; });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(Parallel, ReduceSumMatchesSerial) {
  const Index n = 12345;
  Real s = parallel_reduce_sum(n, [](Index i) { return Real(i); });
  EXPECT_DOUBLE_EQ(s, Real(n) * Real(n - 1) / 2.0);
}

TEST(Parallel, ReduceMaxFindsMax) {
  Real m = parallel_reduce_max(100, [](Index i) { return i == 57 ? 9.5 : 1.0; });
  EXPECT_DOUBLE_EQ(m, 9.5);
}

TEST(Parallel, ReduceMaxAllNegative) {
  // Regression: the accumulator identity was 0.0, so an all-negative range
  // silently reported 0 (wrong max, and exactly the kind of bug that turns a
  // residual-norm divergence check into a no-op).
  Real m = parallel_reduce_max(64, [](Index i) { return -1.0 - Real(i); });
  EXPECT_DOUBLE_EQ(m, -1.0);
}

TEST(Parallel, ReduceMaxEmptyRangeIsIdentity) {
  EXPECT_EQ(parallel_reduce_max(0, [](Index) { return 1.0; }),
            std::numeric_limits<Real>::lowest());
}

TEST(Parallel, ReduceSumDeterministicAcrossThreadCounts) {
  // A sum whose terms vary wildly in magnitude: any change in association
  // order changes the rounded result, so bitwise equality across thread
  // counts proves the fixed-chunk reduction is thread-count independent.
  const Index n = 100000;
  auto term = [](Index i) {
    return std::pow(-1.0, Real(i % 2)) * std::pow(10.0, Real(i % 14) - 7.0);
  };
  const int saved = num_threads();
  set_num_threads(1);
  const Real s1 = parallel_reduce_sum(n, term);
  set_num_threads(2);
  const Real s2 = parallel_reduce_sum(n, term);
  set_num_threads(8);
  const Real s8 = parallel_reduce_sum(n, term);
  set_num_threads(saved);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s8);
}

/// The documented order of the deterministic reductions, written out
/// serially: 1024-entry chunks; within a chunk term i goes to lane
/// (i - lo) mod 8, each lane sums its terms in increasing i from 0, and the
/// lanes combine as ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)); the
/// chunk sums then add left to right from 0 (a single chunk is the sum).
Real reference_sum(const std::vector<Real>& t) {
  const Index n = static_cast<Index>(t.size());
  std::vector<Real> chunks;
  for (Index lo = 0; lo < n; lo += 1024) {
    Real lane[8] = {};
    for (Index i = lo; i < std::min(n, lo + 1024); ++i)
      lane[(i - lo) % 8] += t[i];
    chunks.push_back(((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                     ((lane[1] + lane[5]) + (lane[3] + lane[7])));
  }
  if (chunks.size() == 1) return chunks[0];
  Real sum = 0.0;
  for (Real c : chunks) sum += c;
  return sum;
}

TEST(Parallel, ReduceSumFollowsTheDocumentedLaneOrder) {
  // Terms spanning 14 decades with random signs: any other association
  // order rounds differently. The lengths cover a partial lane group, one
  // exact group, a chunk minus one, a chunk plus one (a one-term chunk) and
  // the stokes_sinker12 system size.
  const int saved = num_threads();
  for (Index n : {1, 7, 8, 1023, 1025, 53787}) {
    std::vector<Real> t(static_cast<std::size_t>(n));
    Rng rng(static_cast<std::uint64_t>(n));
    for (Real& v : t)
      v = rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-7, 7));
    const Real want = reference_sum(t);
    for (int nt : {1, 2, 8}) {
      set_num_threads(nt);
      const Real got = parallel_reduce_sum(n, [&](Index i) { return t[i]; });
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "n " << n << ", threads " << nt << ": " << got << " vs " << want;
    }
  }
  set_num_threads(saved);
}

TEST(Parallel, ForPhasedCoversAllPhasesInOrder) {
  // Each phase must complete before the next starts (barrier between
  // phases), and every (phase, index) pair must be visited exactly once.
  const int nphases = 5;
  const Index per_phase[nphases] = {100, 0, 57, 1, 64};
  std::vector<std::atomic<int>> hits(5 * 100);
  for (auto& h : hits) h = 0;
  std::atomic<int> done_before[nphases] = {};
  std::atomic<int> order_violations{0};
  parallel_for_phased(
      nphases, [&](int p) { return per_phase[p]; },
      [&](int p, Index i) {
        // Work of earlier phases is complete when a later phase runs.
        for (int q = 0; q < p; ++q)
          if (done_before[q].load() != int(per_phase[q])) ++order_violations;
        hits[p * 100 + i] += 1;
        done_before[p] += 1;
      });
  EXPECT_EQ(order_violations.load(), 0);
  for (int p = 0; p < nphases; ++p)
    for (Index i = 0; i < per_phase[p]; ++i) EXPECT_EQ(hits[p * 100 + i], 1);
}

TEST(Timing, TimerIsMonotonic) {
  Timer t;
  const double t0 = t.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(t.seconds(), t0);
}

TEST(Perf, EventAccumulatesFlops) {
  auto& reg = PerfRegistry::instance();
  reg.event("unit-test-ev").reset();
  {
    PerfScope p("unit-test-ev", 1000.0);
  }
  {
    PerfScope p("unit-test-ev", 500.0);
  }
  EXPECT_DOUBLE_EQ(reg.event("unit-test-ev").flops, 1500.0);
  EXPECT_EQ(reg.event("unit-test-ev").calls(), 2);
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "-mx", "16", "-contrast", "1e4", "-verbose"};
  Options o = Options::from_args(6, argv);
  EXPECT_EQ(o.get_index("mx", 0), 16);
  EXPECT_DOUBLE_EQ(o.get_real("contrast", 0.0), 1e4);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_EQ(o.get_index("absent", 7), 7);
}

TEST(Options, SetOverridesDefaults) {
  Options o;
  o.set("smoother_its", "3");
  EXPECT_EQ(o.get_int("smoother_its", 2), 3);
  EXPECT_TRUE(o.has("smoother_its"));
  EXPECT_FALSE(o.has("other"));
}

TEST(Options, UnknownKeysSuggestNearMisses) {
  Options::describe("backend", "NAME", "operator backend");
  Options::describe("batch_width", "N", "SIMD batch width");
  const char* argv[] = {"prog", "-bckend", "mf"};
  Options o = Options::from_args(3, argv);
  const auto unknown = o.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].key, "bckend");
  ASSERT_FALSE(unknown[0].suggestions.empty());
  // Smallest edit distance first: "backend" (distance 1) leads.
  EXPECT_EQ(unknown[0].suggestions[0], "backend");
  const std::string msg = Options::format_unknown(unknown);
  EXPECT_NE(msg.find("unknown option -bckend"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean -backend"), std::string::npos) << msg;
}

TEST(Options, UnknownKeysEmptyWhenEveryKeyIsDescribed) {
  Options::describe("backend", "NAME", "operator backend");
  const char* argv[] = {"prog", "-backend", "mf"};
  EXPECT_TRUE(Options::from_args(3, argv).unknown_keys().empty());
}

TEST(Options, BareValueFlagIsReportedAndBareSwitchesAreNot) {
  // The driver's hints: a bare -final_state would read the file name "true".
  Options::describe("final_state", "FILE", "state digest file");
  Options::describe("verbose", "", "per-iteration logging");
  Options::describe("help", "", "print this help and exit");
  Options::describe("newton", "true|false", "Newton linearization");
  const char* bare[] = {"prog", "-final_state"};
  const auto unknown = Options::from_args(2, bare).unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].key, "final_state");
  EXPECT_EQ(unknown[0].missing_value, "FILE");
  const std::string msg = Options::format_unknown(unknown);
  EXPECT_NE(msg.find("option -final_state needs a value FILE"),
            std::string::npos)
      << msg;

  const char* switches[] = {"prog", "-verbose", "--help", "-newton",
                            "-final_state", "out.json"};
  EXPECT_TRUE(Options::from_args(6, switches).unknown_keys().empty());
}

TEST(Options, MistypedBooleanIsReportedAndBooleanSpellingsAreNot) {
  // get_bool reads every value but true, 1 and yes as false: a mistyped
  // -newton flase would silently run Picard.
  Options::describe("newton", "true|false", "Newton linearization");
  const char* typo[] = {"prog", "-newton", "flase"};
  const auto unknown = Options::from_args(3, typo).unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].key, "newton");
  EXPECT_EQ(unknown[0].bad_value, "flase");
  const std::string msg = Options::format_unknown(unknown);
  EXPECT_NE(msg.find("option -newton takes true|false, not 'flase'"),
            std::string::npos)
      << msg;

  for (const char* value : {"true", "false", "1", "0", "yes", "no"}) {
    const char* argv[] = {"prog", "-newton", value};
    EXPECT_TRUE(Options::from_args(3, argv).unknown_keys().empty()) << value;
  }
}

TEST(Options, SuggestMatchesByContainmentBeyondEditBudget) {
  // "checkpoint" -> "checkpoint_every" is far beyond the edit budget, but
  // one string containing the other still qualifies as a near miss.
  Options::describe("checkpoint_every", "N", "steps between checkpoints");
  const auto s = Options::suggest("checkpoint");
  EXPECT_NE(std::find(s.begin(), s.end(), "checkpoint_every"), s.end());
  // A key nothing resembles yields no suggestions at all.
  EXPECT_TRUE(Options::suggest("zzzzqqqqzzzz").empty());
}

TEST(SmallMat, DetAndInverseOfIdentity) {
  Mat3 eye{1, 0, 0, 0, 1, 0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(det3(eye), 1.0);
  Mat3 inv = inv3(eye, 1.0);
  for (int i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(inv[i], eye[i]);
}

TEST(SmallMat, InverseTimesMatrixIsIdentity) {
  Mat3 m{2, 1, 0, 1, 3, 1, 0, 1, 4};
  const Real d = det3(m);
  ASSERT_NE(d, 0.0);
  Mat3 mi = inv3(m, d);
  // Check M * M^{-1} = I column by column.
  for (int c = 0; c < 3; ++c) {
    Vec3 col{mi[c], mi[3 + c], mi[6 + c]};
    Vec3 r = matvec3(m, col);
    for (int i = 0; i < 3; ++i)
      EXPECT_NEAR(r[i], i == c ? 1.0 : 0.0, 1e-14);
  }
}

TEST(SmallMat, DetOfScaledIdentity) {
  Mat3 m{2, 0, 0, 0, 3, 0, 0, 0, 4};
  EXPECT_DOUBLE_EQ(det3(m), 24.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    Real v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

} // namespace
} // namespace ptatin
