// Tests for the subdomain-parallel execution engine (docs/PARALLELISM.md):
// the decomposed pack -> exchange -> accumulate paths must agree with the
// global colored loops to rounding (<= 1e-12), be bitwise reproducible for a
// fixed decomposition shape, and leave the Krylov iteration counts of a full
// Stokes solve identical across shapes (the §II-D guarantee that the
// decomposition is a pure execution-strategy choice, not a discretization
// change).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "fem/bc.hpp"
#include "fem/subdomain_engine.hpp"
#include "mpm/points.hpp"
#include "mpm/projection.hpp"
#include "obs/report.hpp"
#include "ptatin/config.hpp"
#include "ptatin/models_sinker.hpp"
#include "saddle/stokes_solver.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {
namespace {

StructuredMesh make_deformed_mesh(Index mx, Index my, Index mz) {
  StructuredMesh mesh = StructuredMesh::box(mx, my, mz, {0, 0, 0}, {1, 1, 1});
  mesh.deform([](const Vec3& x) {
    return Vec3{x[0] + 0.04 * std::sin(3 * x[1]) * x[2],
                x[1] + 0.05 * std::cos(2 * x[0]),
                x[2] + 0.03 * x[0] * x[1]};
  });
  return mesh;
}

QuadCoefficients make_variable_coeff(const StructuredMesh& mesh,
                                     bool with_newton, unsigned seed = 3) {
  QuadCoefficients c(mesh.num_elements());
  Rng rng(seed);
  for (Index e = 0; e < mesh.num_elements(); ++e)
    for (int q = 0; q < kQuadPerEl; ++q) {
      c.eta(e, q) = std::pow(10.0, rng.uniform(-2, 2));
      c.rho(e, q) = rng.uniform(0.9, 1.3);
    }
  if (with_newton) {
    c.allocate_newton();
    for (Index e = 0; e < mesh.num_elements(); ++e)
      for (int q = 0; q < kQuadPerEl; ++q) {
        c.deta(e, q) = -rng.uniform(0, 0.5);
        for (int t = 0; t < kSymSize; ++t) c.d0(e, q)[t] = rng.uniform(-1, 1);
      }
  }
  return c;
}

Vector random_vector(Index n, unsigned seed) {
  Vector v(n);
  Rng rng(seed);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

Real max_rel_diff(const Vector& a, const Vector& b) {
  Real scale = 0, diff = 0;
  for (Index i = 0; i < a.size(); ++i) {
    scale = std::max(scale, std::abs(a[i]));
    diff = std::max(diff, std::abs(a[i] - b[i]));
  }
  return scale > 0 ? diff / scale : diff;
}

// --- engine partition invariants --------------------------------------------

TEST(SubdomainEngine, ElementClassesPartitionTheMesh) {
  StructuredMesh mesh = make_deformed_mesh(5, 4, 3);
  SubdomainEngine eng(mesh, 3, 2, 1);
  std::vector<int> hits(mesh.num_elements(), 0);
  for (Index s = 0; s < eng.num_subdomains(); ++s) {
    for (Index e : eng.interior_elements(s)) hits[e] += 1;
    for (Index e : eng.boundary_elements(s)) hits[e] += 1;
  }
  for (Index e = 0; e < mesh.num_elements(); ++e) EXPECT_EQ(hits[e], 1);
  EXPECT_EQ(eng.num_interior_elements() + eng.num_boundary_elements(),
            mesh.num_elements());
  EXPECT_GT(eng.num_boundary_elements(), 0);
}

TEST(SubdomainEngine, OwnedNodesPartitionTheLattice) {
  StructuredMesh mesh = make_deformed_mesh(5, 4, 3);
  SubdomainEngine eng(mesh, 2, 2, 2);
  std::vector<int> owner_count(mesh.num_nodes(), 0);
  for (Index s = 0; s < eng.num_subdomains(); ++s)
    for (Index id : eng.owned_nodes(s)) owner_count[id] += 1;
  for (Index n = 0; n < mesh.num_nodes(); ++n)
    EXPECT_EQ(owner_count[n], 1) << "node " << n;
}

TEST(SubdomainEngine, SingleSubdomainHasNoHalo) {
  StructuredMesh mesh = make_deformed_mesh(4, 4, 4);
  SubdomainEngine eng(mesh, 1, 1, 1);
  EXPECT_EQ(eng.halo_points_per_exchange(), 0);
  EXPECT_EQ(eng.num_boundary_elements(), 0);
  EXPECT_EQ(eng.num_interior_elements(), mesh.num_elements());

  // The degenerate engine must still run the protocol correctly.
  QuadCoefficients coeff = make_variable_coeff(mesh, false);
  DirichletBc bc(num_velocity_dofs(mesh));
  auto global = make_viscous_backend(
      KernelSpec{.type = FineOperatorType::kTensor}, mesh, coeff,
      &bc);
  auto decomp = make_viscous_backend(
      KernelSpec{.type = FineOperatorType::kTensor, .engine = &eng}, mesh, coeff,
      &bc);
  Vector x = random_vector(global->rows(), 11);
  Vector y0(x.size()), y1(x.size());
  global->apply(x, y0);
  decomp->apply(x, y1);
  // The engine sweeps elements lexicographically while the global path uses
  // the colored order, so agreement is to rounding (like any shape change).
  EXPECT_LE(max_rel_diff(y0, y1), 1e-12);
}

// --- operator apply equivalence ---------------------------------------------

TEST(SubdomainEngine, AllBackendsMatchGlobalApplyTo1e12) {
  // Uneven 3x2x1 split of a 5x4x3 deformed mesh: every direction has ragged
  // slabs, and the element kernels see non-constant Jacobians.
  StructuredMesh mesh = make_deformed_mesh(5, 4, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh, true);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  SubdomainEngine eng(mesh, 3, 2, 1);

  const FineOperatorType types[] = {FineOperatorType::kMatrixFree,
                                    FineOperatorType::kTensor,
                                    FineOperatorType::kTensorC};
  Vector x = random_vector(num_velocity_dofs(mesh), 7);
  for (FineOperatorType t : types) {
    auto global = make_viscous_backend(KernelSpec{.type = t},
                                       mesh, coeff, &bc);
    auto decomp =
        make_viscous_backend(KernelSpec{.type = t, .engine = &eng}, mesh, coeff, &bc);
    for (bool newton : {false, true}) {
      if (newton && t == FineOperatorType::kTensorC) continue; // Picard-only
      Vector y0(x.size()), y1(x.size());
      global->apply(x, y0, newton); // masked: BC rows pass through
      decomp->apply(x, y1, newton);
      EXPECT_LE(max_rel_diff(y0, y1), 1e-12)
          << global->name() << " newton=" << newton;
    }
  }
}

TEST(SubdomainEngine, FixedShapeApplyIsBitwiseReproducible) {
  StructuredMesh mesh = make_deformed_mesh(6, 5, 4);
  QuadCoefficients coeff = make_variable_coeff(mesh, false);
  DirichletBc bc = sinker_boundary_conditions(mesh);
  SubdomainEngine eng(mesh, 2, 2, 2);
  auto op = make_viscous_backend(
      KernelSpec{.type = FineOperatorType::kTensor, .engine = &eng}, mesh, coeff,
      &bc);
  Vector x = random_vector(op->rows(), 13);
  Vector y0(x.size()), y1(x.size());
  op->apply(x, y0);
  for (int rep = 0; rep < 3; ++rep) {
    op->apply(x, y1);
    for (Index i = 0; i < x.size(); ++i)
      EXPECT_EQ(y0[i], y1[i]) << "apply not bitwise-stable at dof " << i;
  }
}

// --- batched engine sweeps -------------------------------------------------

struct EngineBatchCase {
  FineOperatorType type;
  Index px, py, pz;
};

/// "Tens_2x2x1" (ctest appends it to the test name).
void PrintTo(const EngineBatchCase& c, std::ostream* os) {
  *os << fine_operator_display(c.type) << "_" << c.px << "x" << c.py << "x"
      << c.pz;
}

class EngineBatched : public ::testing::TestWithParam<EngineBatchCase> {};

// A batch of the engine's sweep is W consecutive entries of one subdomain's
// element list, and consecutive entries share nodes. The batched engine
// apply is bitwise the scalar one only if each batch scatters its lanes in
// list order, so this catches a node-major scatter that the global loop's
// bitwise tests (whose same-colored lanes share no nodes) cannot.
TEST_P(EngineBatched, MatchesScalarEngineApplyBitwise) {
  const EngineBatchCase p = GetParam();
  StructuredMesh mesh = make_deformed_mesh(5, 3, 7);
  const bool newton = p.type != FineOperatorType::kTensorC; // Picard-only
  QuadCoefficients coeff = make_variable_coeff(mesh, newton);
  DirichletBc bc(num_velocity_dofs(mesh)); // unmasked: compare every row
  SubdomainEngine eng(mesh, p.px, p.py, p.pz);
  const Vector x = random_vector(num_velocity_dofs(mesh), 17);

  auto engine_apply = [&](int width) {
    auto op = make_viscous_backend(
        KernelSpec{.type = p.type, .batch_width = width, .engine = &eng}, mesh,
        coeff, &bc);
    Vector y;
    op->apply(x, y, newton);
    return y;
  };
  const Vector y0 = engine_apply(0);
  const int width = kSolverBatchWidth;
  bool full_batch = false, ragged_tail = false;
  for (Index s = 0; s < eng.num_subdomains(); ++s)
    for (const auto* list :
         {&eng.boundary_elements(s), &eng.interior_elements(s)}) {
      full_batch |= list->size() >= std::size_t(width);
      ragged_tail |= list->size() % width != 0;
    }
  ASSERT_TRUE(full_batch && ragged_tail)
      << "mesh chosen to give width " << width
      << " full batches and ragged tails";
  const Vector y = engine_apply(width);
  ASSERT_EQ(y.size(), y0.size());
  for (Index i = 0; i < y.size(); ++i)
    ASSERT_EQ(y[i], y0[i]) << "width " << width << " drifted at dof " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineBatched,
    ::testing::Values(EngineBatchCase{FineOperatorType::kMatrixFree, 2, 1, 1},
                      EngineBatchCase{FineOperatorType::kMatrixFree, 2, 2, 1},
                      EngineBatchCase{FineOperatorType::kMatrixFree, 2, 2, 2},
                      EngineBatchCase{FineOperatorType::kTensor, 2, 1, 1},
                      EngineBatchCase{FineOperatorType::kTensor, 2, 2, 1},
                      EngineBatchCase{FineOperatorType::kTensor, 2, 2, 2},
                      EngineBatchCase{FineOperatorType::kTensorC, 2, 1, 1},
                      EngineBatchCase{FineOperatorType::kTensorC, 2, 2, 1},
                      EngineBatchCase{FineOperatorType::kTensorC, 2, 2, 2}));

// --- assembly / sampling paths ----------------------------------------------

TEST(SubdomainEngine, BodyForceMatchesGlobalTo1e12) {
  StructuredMesh mesh = make_deformed_mesh(5, 4, 3);
  QuadCoefficients coeff = make_variable_coeff(mesh, false);
  SubdomainEngine eng(mesh, 2, 2, 1);
  const Vec3 g{0.3, -9.8, 0.1};
  Vector f0 = assemble_body_force(mesh, coeff, g);
  Vector f1 = assemble_body_force(mesh, coeff, g, &eng);
  EXPECT_LE(max_rel_diff(f0, f1), 1e-12);
}

// --- MPM paths ---------------------------------------------------------------

TEST(SubdomainEngine, ProjectionMatchesSerialTo1e12) {
  StructuredMesh mesh = make_deformed_mesh(4, 4, 3);
  SubdomainEngine eng(mesh, 2, 1, 3);
  MaterialPoints points;
  layout_points(mesh, 2, [](const Vec3&) { return 0; }, points, 0.4);
  std::vector<Real> values(points.size());
  Rng rng(5);
  for (Index i = 0; i < points.size(); ++i) values[i] = rng.uniform(-2, 2);

  ProjectionResult serial = project_to_vertices(mesh, points, values, 0.5);
  ProjectionResult decomp =
      project_to_vertices(mesh, points, values, 0.5, &eng);
  ASSERT_EQ(serial.vertex_values.size(), decomp.vertex_values.size());
  EXPECT_EQ(serial.empty_vertices, decomp.empty_vertices);
  EXPECT_LE(max_rel_diff(serial.vertex_values, decomp.vertex_values), 1e-12);
}

TEST(SubdomainEngine, ProjectionFallbackForEmptyVertices) {
  StructuredMesh mesh = StructuredMesh::box(4, 4, 4, {0, 0, 0}, {1, 1, 1});
  SubdomainEngine eng(mesh, 2, 2, 1);
  // One point in one corner element: almost every vertex has empty support
  // and must take the fallback on both paths.
  MaterialPoints points;
  points.add(Vec3{0.05, 0.05, 0.05}, 0);
  locate_all(mesh, points);
  std::vector<Real> values = {3.0};
  ProjectionResult serial = project_to_vertices(mesh, points, values, -7.0);
  ProjectionResult decomp =
      project_to_vertices(mesh, points, values, -7.0, &eng);
  EXPECT_GT(serial.empty_vertices, 0);
  EXPECT_EQ(serial.empty_vertices, decomp.empty_vertices);
  for (Index v = 0; v < mesh.num_vertices(); ++v)
    EXPECT_EQ(serial.vertex_values[v], decomp.vertex_values[v]);
}

// --- full solve across shapes (the acceptance criterion) ---------------------

TEST(SubdomainEngine, StokesSolveIterationsIdenticalAcrossShapes) {
  StructuredMesh mesh = StructuredMesh::box(8, 8, 8, {0, 0, 0}, {1, 1, 1});
  SinkerParams sp;
  sp.mx = sp.my = sp.mz = 8;
  ModelSetup setup = make_sinker_model(sp);
  QuadCoefficients coeff = make_variable_coeff(setup.mesh, false, 9);
  DirichletBc bc = sinker_boundary_conditions(setup.mesh);
  Vector f = assemble_body_force(setup.mesh, coeff, {0, 0, -9.8});

  SolverConfig cfg;
  cfg.stokes().gmg.levels = 2;
  cfg.stokes().krylov.max_it = 300;

  auto run = [&](Index px, Index py, Index pz) {
    std::unique_ptr<SubdomainEngine> eng;
    if (px * py * pz > 1)
      eng = std::make_unique<SubdomainEngine>(setup.mesh, px, py, pz);
    auto solver = cfg.make_stokes_solver(setup.mesh, coeff, bc, eng.get());
    StokesSolveResult res = solver->solve(f);
    EXPECT_TRUE(res.stats.converged)
        << px << "x" << py << "x" << pz << " failed to converge";
    return res;
  };

  StokesSolveResult base = run(1, 1, 1); // null engine: global paths
  StokesSolveResult d222 = run(2, 2, 2);
  StokesSolveResult d221 = run(2, 2, 1);

  EXPECT_EQ(base.stats.iterations, d222.stats.iterations);
  EXPECT_EQ(base.stats.iterations, d221.stats.iterations);
  EXPECT_LE(max_rel_diff(base.u, d222.u), 1e-12);
  EXPECT_LE(max_rel_diff(base.p, d222.p), 1e-12);
  EXPECT_LE(max_rel_diff(base.u, d221.u), 1e-12);
  EXPECT_LE(max_rel_diff(base.p, d221.p), 1e-12);
}

// --- stats & reporting -------------------------------------------------------

TEST(SubdomainEngine, StatsCountAppliesAndHaloBytes) {
  StructuredMesh mesh = make_deformed_mesh(4, 4, 4);
  QuadCoefficients coeff = make_variable_coeff(mesh, false);
  DirichletBc bc(num_velocity_dofs(mesh));
  SubdomainEngine eng(mesh, 2, 2, 1);
  auto op = make_viscous_backend(
      KernelSpec{.type = FineOperatorType::kTensor, .engine = &eng}, mesh, coeff,
      &bc);
  eng.reset_stats();
  Vector x = random_vector(op->rows(), 3);
  Vector y(x.size());
  op->apply(x, y);
  op->apply(x, y);
  const DecompStats st = eng.stats();
  EXPECT_EQ(st.px, 2);
  EXPECT_EQ(st.py, 2);
  EXPECT_EQ(st.pz, 1);
  EXPECT_EQ(st.applies, 2);
  // Every apply exchanges all halo points, 3 components of one Real each;
  // sent and received bytes mirror each other by construction.
  const long long expect_bytes =
      2ll * eng.halo_points_per_exchange() * 3 * sizeof(Real);
  EXPECT_EQ(st.halo_bytes_sent, expect_bytes);
  EXPECT_EQ(st.halo_bytes_received, expect_bytes);
  EXPECT_EQ(st.interior_elements + st.boundary_elements,
            mesh.num_elements());
}

TEST(SubdomainEngine, ReportDecompositionSectionRoundTrips) {
  obs::SolverReport rep;
  obs::DecompRecord rec;
  rec.px = 2;
  rec.py = 2;
  rec.pz = 1;
  rec.applies = 42;
  rec.halo_bytes_sent = 1024;
  rec.halo_bytes_received = 1024;
  rec.exchange_seconds = 0.25;
  rec.interior_seconds = 1.5;
  rec.boundary_seconds = 0.75;
  rec.interior_elements = 40;
  rec.boundary_elements = 24;
  rep.set_decomposition(rec);

  const obs::JsonValue doc = obs::JsonValue::parse(rep.to_json_string());
  const obs::JsonValue* d = doc.find("decomposition");
  ASSERT_NE(d, nullptr);
  const auto number = [&](const char* key) {
    const obs::JsonValue* v = d->find(key);
    return v != nullptr ? v->as_number() : -1.0;
  };
  EXPECT_EQ(number("px"), 2);
  EXPECT_EQ(number("py"), 2);
  EXPECT_EQ(number("pz"), 1);
  EXPECT_EQ(number("applies"), 42);
  EXPECT_EQ(number("halo_bytes_sent"), 1024);
  EXPECT_EQ(number("halo_bytes_received"), 1024);
  EXPECT_EQ(number("exchange_seconds"), 0.25);
  EXPECT_EQ(number("interior_seconds"), 1.5);
  EXPECT_EQ(number("boundary_seconds"), 0.75);
  EXPECT_EQ(number("interior_elements"), 40);
  EXPECT_EQ(number("boundary_elements"), 24);
}

// --- options / config --------------------------------------------------------

TEST(SolverConfig, ParsesDecompShapes) {
  auto one = parse_decomp_shapes("2x2x2");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0][0], 2);
  EXPECT_EQ(one[0][1], 2);
  EXPECT_EQ(one[0][2], 2);

  auto commas = parse_decomp_shapes("3,2,1");
  ASSERT_EQ(commas.size(), 1u);
  EXPECT_EQ(commas[0][0], 3);
  EXPECT_EQ(commas[0][2], 1);

  auto sweep = parse_decomp_shapes("1x1x1,2x2x1,2x2x2");
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[1][0], 2);
  EXPECT_EQ(sweep[1][2], 1);
  EXPECT_EQ(sweep[2][2], 2);

  EXPECT_THROW(parse_decomp_shapes("2x2"), Error);
  EXPECT_THROW(parse_decomp_shapes("0x1x1"), Error);
}

TEST(SolverConfig, FromOptionsWiresDecompAndSolverKnobs) {
  const char* argv[] = {"prog", "-decomp", "2,2,1", "--backend", "mf",
                        "-levels", "2", "-safeguard", "false"};
  Options o = Options::from_args(9, argv);
  SolverConfig cfg = SolverConfig::from_options(o);
  EXPECT_EQ(cfg.decomp_shape()[0], 2);
  EXPECT_EQ(cfg.decomp_shape()[1], 2);
  EXPECT_EQ(cfg.decomp_shape()[2], 1);
  EXPECT_EQ(cfg.stokes().kernel.type, FineOperatorType::kMatrixFree);
  EXPECT_EQ(cfg.stokes().gmg.levels, 2);
  EXPECT_FALSE(cfg.use_safeguard());

  // The context builds the engine for the shape; 1x1x1 builds none.
  SinkerParams sp;
  sp.mx = sp.my = sp.mz = 4;
  const auto ctx = cfg.make_context(make_sinker_model(sp));
  ASSERT_NE(ctx->subdomain_engine(), nullptr);
  EXPECT_EQ(ctx->subdomain_engine()->num_subdomains(), 4);
  EXPECT_EQ(SolverConfig().make_context(make_sinker_model(sp))
                ->subdomain_engine(),
            nullptr);
}

TEST(SolverConfig, FromOptionsRejectsZeroPointsAndCheckpointKeep) {
  const char* ppd[] = {"prog", "-ppd", "0"};
  EXPECT_THROW(SolverConfig::from_options(Options::from_args(3, ppd)), Error);
  const char* keep[] = {"prog", "-checkpoint_keep", "0"};
  EXPECT_THROW(SolverConfig::from_options(Options::from_args(3, keep)), Error);
}

TEST(SolverConfig, FromOptionsRejectsPicardOnlyBackendsUnderNewton) {
  const char* newton[] = {"prog", "-backend", "asmb"};
  try {
    SolverConfig::from_options(Options::from_args(3, newton));
    FAIL() << "asmb with the default -newton was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("-newton false"), std::string::npos)
        << e.what();
  }
  const char* picard[] = {"prog", "-backend", "asmb", "-newton", "false"};
  const SolverConfig cfg =
      SolverConfig::from_options(Options::from_args(5, picard));
  EXPECT_FALSE(cfg.ptatin().nonlinear.use_newton);
  // TensC is a standalone Table I operator, not a -backend.
  const char* tensc[] = {"prog", "-backend", "tensc", "-newton", "false"};
  EXPECT_THROW(SolverConfig::from_options(Options::from_args(5, tensc)), Error);
  const char* mf[] = {"prog", "-backend", "mf"};
  EXPECT_TRUE(SolverConfig::from_options(Options::from_args(3, mf))
                  .ptatin()
                  .nonlinear.use_newton);
}

TEST(SolverConfig, RunsTheSolverBatchWidthWithoutAKnob) {
  EXPECT_EQ(SolverConfig::from_options(Options()).stokes().kernel.batch_width,
            kSolverBatchWidth);
  EXPECT_EQ(StokesSolverOptions().kernel.batch_width, kSolverBatchWidth);
  // The width is no longer an option: not described, so the driver and the
  // job-spec parser reject it as unknown.
  const char* argv[] = {"prog", "-op_batch_width", "0"};
  const Options o = Options::from_args(3, argv);
  SolverConfig::describe_options();
  const auto unknown = o.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].key, "op_batch_width");
  EXPECT_EQ(Options::help_text().find("op_batch_width"), std::string::npos);
}

TEST(OptionsUnified, DashAndDoubleDashResolveIdentically) {
  const char* argv[] = {"prog", "-alpha", "1", "--beta", "2.5", "--flag"};
  Options o = Options::from_args(6, argv);
  EXPECT_EQ(o.get_int("alpha", 0), 1);
  EXPECT_EQ(o.get_int("-alpha", 0), 1);
  EXPECT_EQ(o.get_int("--alpha", 0), 1);
  EXPECT_DOUBLE_EQ(o.get_real("beta", 0), 2.5);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_TRUE(o.has("--flag"));

  Options set_test;
  set_test.set("--gamma", "7");
  EXPECT_EQ(set_test.get_int("gamma", 0), 7);
}

TEST(OptionsUnified, TypedListGetters) {
  Options o;
  o.set("grids", "4,8,16");
  o.set("shape", "2x2x1");
  o.set("names", "mx_sweep,tensc");
  const std::vector<Index> grids = o.get_index_list("grids");
  ASSERT_EQ(grids.size(), 3u);
  EXPECT_EQ(grids[2], 16);
  const std::vector<Index> shape = o.get_index_list("shape");
  ASSERT_EQ(shape.size(), 3u);
  EXPECT_EQ(shape[0], 2);
  EXPECT_EQ(shape[2], 1);
  // 'x' only separates pure shape strings; text lists keep their 'x'.
  const std::vector<std::string> names = o.get_list("names");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "mx_sweep");
  EXPECT_TRUE(o.get_list("absent").empty());
}

TEST(OptionsUnified, HelpTextContainsRegisteredDescriptions) {
  Options::describe("zz_test_flag", "N", "a test-only flag");
  const std::string help = Options::help_text();
  EXPECT_NE(help.find("-zz_test_flag N"), std::string::npos);
  EXPECT_NE(help.find("a test-only flag"), std::string::npos);
}

} // namespace
} // namespace ptatin
