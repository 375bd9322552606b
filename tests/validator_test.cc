// Tests for the correctness tooling added around the multi-GPU runtime:
//
//   * the static directive checker (translator/check.h) — proven-wrong
//     localaccess windows are CompileErrors, undecidable ones pass, and
//     reductiontoarray destinations cannot carry a localaccess spec;
//   * the runtime coherence validator (runtime/validator.h) — golden
//     shadow execution catches both residency faults (when the static
//     check is bypassed) and injected stale-replica corruption that the
//     coherence machinery cannot see;
//   * a one-ulp perturbation of a float reduction is a divergence: the
//     golden run replays the executor's launch geometry and fold order;
//   * all six applications run divergence-free under validation, and match
//     their native references, on 1, 2 and 4 GPUs under each of four option
//     sets: mid-end level 1, level 1 with the async pipeline, level 2, and
//     level 2 with the measured task mapper.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/heat2d/heat2d.h"
#include "apps/kmeans/kmeans.h"
#include "apps/lattice/lattice.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "common/error.h"
#include "runtime/executor.h"
#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg::runtime {
namespace {

// The deliberately wrong program of the negative tests: the stencil reads
// u[i + 1] but the localaccess declaration promises a halo-free window, so
// on >1 GPU each device's rightmost iteration reads an element its segment
// never loaded.
constexpr char kWrongHalo[] = R"(
void f(int n, float* u, float* out) {
  #pragma acc data copyin(u[0:n]) copyout(out[0:n])
  {
    #pragma acc localaccess(u: stride(1)) (out: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n - 1; i++) {
      out[i] = u[i + 1];
    }
  }
}
)";

constexpr char kRightHalo[] = R"(
void f(int n, float* u, float* out) {
  #pragma acc data copyin(u[0:n]) copyout(out[0:n])
  {
    #pragma acc localaccess(u: stride(1), right(1)) (out: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n - 1; i++) {
      out[i] = u[i + 1];
    }
  }
}
)";

// ---------------------------------------------------------------------------
// Static directive checker
// ---------------------------------------------------------------------------

TEST(DirectiveCheckerTest, RejectsProvenHaloViolation) {
  try {
    AccProgram::FromSource("wrong", kWrongHalo);
    FAIL() << "expected a CompileError for the missing right halo";
  } catch (const CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("localaccess"), std::string::npos) << what;
    EXPECT_NE(what.find("'u'"), std::string::npos) << what;
    EXPECT_NE(what.find("right"), std::string::npos) << what;
  }
}

TEST(DirectiveCheckerTest, AcceptsCorrectHalo) {
  EXPECT_NO_THROW(AccProgram::FromSource("right", kRightHalo));
}

TEST(DirectiveCheckerTest, RejectsLeftEdgeViolation) {
  constexpr char kSource[] = R"(
void f(int n, float* u, float* out) {
  #pragma acc localaccess(u: stride(1), left(1)) (out: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    out[i] = u[i - 2];
  }
}
)";
  EXPECT_THROW(AccProgram::FromSource("left", kSource), CompileError);
}

TEST(DirectiveCheckerTest, InnerLoopBoundsParticipateInTheProof) {
  // The subscript u[i * 4 + j] is covered only because j's inner loop stays
  // within [0, 4); the checker must substitute those bounds, not give up.
  constexpr char kCovered[] = R"(
void f(int n, float* u, float* out) {
  #pragma acc localaccess(u: stride(4)) (out: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float acc = 0.0f;
    for (int j = 0; j < 4; j++) {
      acc = acc + u[i * 4 + j];
    }
    out[i] = acc;
  }
}
)";
  EXPECT_NO_THROW(AccProgram::FromSource("covered", kCovered));

  // Same shape, but the inner loop overruns the declared stride window.
  constexpr char kOverrun[] = R"(
void f(int n, float* u, float* out) {
  #pragma acc localaccess(u: stride(4)) (out: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float acc = 0.0f;
    for (int j = 0; j < 5; j++) {
      acc = acc + u[i * 4 + j];
    }
    out[i] = acc;
  }
}
)";
  EXPECT_THROW(AccProgram::FromSource("overrun", kOverrun), CompileError);
}

TEST(DirectiveCheckerTest, UndecidableSubscriptsPass) {
  // Indirect read: the runtime's residency enforcement is the backstop.
  constexpr char kSource[] = R"(
void f(int n, int* idx, float* u, float* out) {
  #pragma acc localaccess(idx: stride(1)) (out: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    out[i] = u[idx[i]];
  }
}
)";
  EXPECT_NO_THROW(AccProgram::FromSource("indirect", kSource));
}

TEST(DirectiveCheckerTest, RejectsReductionDestWithLocalAccess) {
  constexpr char kSource[] = R"(
void f(int n, int* bins, float* hist) {
  #pragma acc localaccess(bins: stride(1)) (hist: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: hist[0:n])
    hist[bins[i]] += 1.0f;
  }
}
)";
  try {
    AccProgram::FromSource("red", kSource);
    FAIL() << "expected a CompileError for localaccess on a reduction dest";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("reductiontoarray"),
              std::string::npos)
        << e.what();
  }
}

TEST(DirectiveCheckerTest, RejectsConstantBadWindowParameters) {
  constexpr char kBadStride[] = R"(
void f(int n, float* a) {
  #pragma acc localaccess(a: stride(0))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 0.0f; }
}
)";
  EXPECT_THROW(AccProgram::FromSource("stride0", kBadStride), CompileError);
}

TEST(DirectiveCheckerTest, AppSourcesPassTheChecker) {
  EXPECT_NO_THROW(AccProgram::FromSource("md", apps::MdSource()));
  EXPECT_NO_THROW(AccProgram::FromSource("kmeans", apps::KmeansSource()));
  EXPECT_NO_THROW(AccProgram::FromSource("bfs", apps::BfsSource()));
  EXPECT_NO_THROW(AccProgram::FromSource("spmv", apps::SpmvSource()));
}

TEST(DirectiveCheckerTest, BypassFlagSkipsTheChecker) {
  translator::CompileOptions bypass;
  bypass.check_directives = false;
  EXPECT_NO_THROW(AccProgram::FromSource("wrong", kWrongHalo, bypass));
}

// ---------------------------------------------------------------------------
// Runtime validator
// ---------------------------------------------------------------------------

TEST(ValidatorTest, CatchesBypassedWrongHaloAtRuntime) {
  translator::CompileOptions bypass;
  bypass.check_directives = false;
  const AccProgram program = AccProgram::FromSource("wrong", kWrongHalo,
                                                    bypass);
  auto platform = sim::MakeSupercomputerNode(3);
  constexpr int n = 64;
  std::vector<float> u(n, 1.0f), out(n, 0.0f);

  RunConfig config;
  config.platform = platform.get();
  config.num_gpus = 2;
  config.options.validate = true;
  ProgramRunner runner(program, config);
  runner.BindArray("u", u.data(), ir::ValType::kF32, n);
  runner.BindArray("out", out.data(), ir::ValType::kF32, n);
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  try {
    runner.Run("f");
    FAIL() << "expected the validator to flag the residency fault";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("validate:"), std::string::npos) << what;
    EXPECT_NE(what.find("localaccess"), std::string::npos) << what;
  }
}

TEST(ValidatorTest, WrongHaloPassesOnOneGpu) {
  // The wrong declaration is only observable with a split iteration space —
  // the single-device golden configuration and a 1-GPU run agree.
  translator::CompileOptions bypass;
  bypass.check_directives = false;
  const AccProgram program = AccProgram::FromSource("wrong", kWrongHalo,
                                                    bypass);
  auto platform = sim::MakeSupercomputerNode(3);
  constexpr int n = 64;
  std::vector<float> u(n, 1.0f), out(n, 0.0f);
  RunConfig config;
  config.platform = platform.get();
  config.num_gpus = 1;
  config.options.validate = true;
  ProgramRunner runner(program, config);
  runner.BindArray("u", u.data(), ir::ValType::kF32, n);
  runner.BindArray("out", out.data(), ir::ValType::kF32, n);
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  const RunReport report = runner.Run("f");
  EXPECT_EQ(report.validator.kernels_checked, 1u);
  EXPECT_EQ(report.validator.divergences, 0u);
}

TEST(ValidatorTest, DetectsInjectedStaleReplica) {
  constexpr char kSource[] = R"(
void f(int n, int* a, int* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    b[i] = a[i] * 2;
  }
}
)";
  const AccProgram program = AccProgram::FromSource("inject", kSource);
  const translator::CompiledFunction& fn = program.compiled().functions[0];
  ASSERT_EQ(fn.offloads.size(), 1u);
  const translator::LoopOffload& offload = fn.offloads[0];

  auto platform = sim::MakeSupercomputerNode(3);
  constexpr int n = 64;
  std::vector<std::int32_t> a(n), b(n, 0);
  std::iota(a.begin(), a.end(), 0);
  ManagedArray ma("a", ir::ValType::kI32, n, a.data(), 3);
  ManagedArray mb("b", ir::ValType::kI32, n, b.data(), 3);

  ExecOptions options;
  options.validate = true;
  Executor exec(*platform, options, {0, 1});
  translator::HostEnv env;
  for (const auto& param : fn.function->params) {
    if (!param->type.is_pointer) {
      env.SetScalar(*param, translator::TypedValue::OfInt(n));
    }
  }
  auto resolve = [&](const frontend::VarDecl& decl) -> ManagedArray& {
    return decl.name == "a" ? ma : mb;
  };

  exec.RunOffload(offload, env, resolve);
  ASSERT_NE(exec.validator(), nullptr);
  EXPECT_EQ(exec.validator()->stats().kernels_checked, 1u);
  EXPECT_EQ(exec.validator()->stats().divergences, 0u);

  // Corrupt device 1's replica of the read-only input. The dirty-bit
  // machinery can never notice ('a' is not written, so nothing propagates);
  // only the shadow execution sees that device 1 computes from stale data.
  ma.shard(1).data->Typed<std::int32_t>()[48] = 999;
  try {
    exec.RunOffload(offload, env, resolve);
    FAIL() << "expected the validator to flag the divergence";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("validate:"), std::string::npos) << what;
    EXPECT_NE(what.find("element 48"), std::string::npos) << what;
  }
  EXPECT_EQ(exec.validator()->stats().divergences, 1u);
}

TEST(ValidatorTest, TwoDDivergenceReportsRowAndColumn) {
  // Same stale-replica injection, but on a 2-D row-block array: the
  // divergence message must decode the flat element index into (row, col)
  // so a wrong-halo bug in a cols() kernel points at the offending row.
  // `a` stays replicated (no localaccess) exactly like the 1-D injection
  // test — corrupting one replica is invisible to the dirty-bit machinery —
  // while `b` is a distributed 2-D row-block array.
  constexpr char kSource[] = R"(
void f(int n, int m, int* a, int* b) {
  #pragma acc localaccess(b: cols(m))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      b[i * m + j] = a[i * m + j] * 2;
    }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("f2d", kSource);
  const translator::CompiledFunction& fn = program.compiled().functions[0];
  ASSERT_EQ(fn.offloads.size(), 1u);

  auto platform = sim::MakeSupercomputerNode(3);
  constexpr int rows = 8;
  constexpr int cols = 8;
  constexpr int count = rows * cols;
  std::vector<std::int32_t> a(count), b(count, 0);
  std::iota(a.begin(), a.end(), 0);
  ManagedArray ma("a", ir::ValType::kI32, count, a.data(), 3);
  ManagedArray mb("b", ir::ValType::kI32, count, b.data(), 3);
  ma.SetShape(rows, cols);
  mb.SetShape(rows, cols);

  ExecOptions options;
  options.validate = true;
  Executor exec(*platform, options, {0, 1});
  translator::HostEnv env;
  for (const auto& param : fn.function->params) {
    if (!param->type.is_pointer) {
      env.SetScalar(*param, translator::TypedValue::OfInt(
                                param->name == "n" ? rows : cols));
    }
  }
  auto resolve = [&](const frontend::VarDecl& decl) -> ManagedArray& {
    return decl.name == "a" ? ma : mb;
  };

  exec.RunOffload(fn.offloads[0], env, resolve);
  EXPECT_EQ(exec.validator()->stats().divergences, 0u);

  // Element 42 lives in device 1's row block (rows 4..7): row 5, col 2.
  ma.shard(1).data->Typed<std::int32_t>()[42] = 999;
  try {
    exec.RunOffload(fn.offloads[0], env, resolve);
    FAIL() << "expected the validator to flag the divergence";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("element 42 (row 5, col 2)"), std::string::npos)
        << what;
  }
  EXPECT_EQ(exec.validator()->stats().divergences, 1u);
}

// ---------------------------------------------------------------------------
// Bit-exact reductions: the golden run replays the executor's launches and
// fold order, so a one-ulp difference in a float reduction is a divergence.
// ---------------------------------------------------------------------------

// The HostIndependenceTest.FloatScalarSum program and data: magnitudes far
// apart, so every change of summation order rounds differently.
constexpr char kFloatSum[] = R"(
void fsum(int n, float* a, float* out) {
  float s = 0.0f;
  #pragma acc data copyin(a[0:n]) copyout(out[0:1])
  {
    #pragma acc parallel loop reduction(+:s)
    for (int i = 0; i < n; i++) { s = s + a[i]; }
  }
  out[0] = s;
}
)";

constexpr char kFloatHistogram[] = R"(
void hist(int n, int* bins, float* w, float* h) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: h[0:8])
    h[bins[i]] += w[i];
  }
}
)";

std::vector<float> OrderSensitiveFloats(int n) {
  std::vector<float> a(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] =
        static_cast<float>(i * 7919 % 1000) * 0.37f + (i % 13 == 0 ? 1e4f : 0);
  }
  return a;
}

float NextUp(float x) {
  return std::nextafter(x, std::numeric_limits<float>::infinity());
}

/// Runs the one offload of `program` on GPUs {0, 1} between the capture and
/// the check of a directly driven Validator, and lets `nudge` perturb the
/// multi-GPU result in between. Returns the check's error message, or ""
/// when the check passes.
std::string CheckNudged(
    sim::Platform& platform, const AccProgram& program, std::int64_t n,
    const ArrayResolver& resolve,
    const std::function<void(const translator::LoopOffload&,
                             translator::HostEnv&)>& nudge) {
  const translator::CompiledFunction& fn = program.compiled().functions[0];
  const translator::LoopOffload& offload = fn.offloads.at(0);
  translator::HostEnv env;
  for (const auto& param : fn.function->params) {
    if (!param->type.is_pointer) {
      env.SetScalar(*param, translator::TypedValue::OfInt(n));
    }
  }
  for (const auto& red : offload.scalar_reds) {
    env.SetScalar(*red.decl,
                  translator::TypedValue::OfDouble(0.0, ir::ValType::kF32));
  }
  Executor executor(platform, ExecOptions{}, {0, 1});
  Validator validator(platform);
  validator.BeginOffload(offload, env, resolve);
  executor.RunOffload(offload, env, resolve);
  nudge(offload, env);
  // The executor's default schedule: the paper's equal split, no
  // interior/boundary split.
  const LaunchGeometry geometry{{Range{0, n / 2}, Range{n / 2, n}}, {{}, {}}};
  try {
    validator.CheckOffload(offload, env, resolve, geometry, {0, 1});
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ValidatorTest, OneUlpReductionDivergenceIsReported) {
  constexpr int kN = 4096;
  const std::vector<float> w = OrderSensitiveFloats(kN);
  std::vector<std::int32_t> bins(kN);
  for (int i = 0; i < kN; ++i) bins[static_cast<std::size_t>(i)] = i * 5 % 8;
  const AccProgram sum = AccProgram::FromSource("fsum", kFloatSum);
  const AccProgram hist = AccProgram::FromSource("hist", kFloatHistogram);

  for (const bool nudge : {false, true}) {
    SCOPED_TRACE(nudge ? "nudged by one ulp" : "as computed");
    auto platform = sim::MakeSupercomputerNode(3);
    {
      std::vector<float> a = w, out(1, 0.0f);
      ManagedArray ma("a", ir::ValType::kF32, kN, a.data(), 3);
      ManagedArray mout("out", ir::ValType::kF32, 1, out.data(), 3);
      const std::string error = CheckNudged(
          *platform, sum, kN,
          [&](const frontend::VarDecl& decl) -> ManagedArray& {
            return decl.name == "a" ? ma : mout;
          },
          [&](const translator::LoopOffload& offload,
              translator::HostEnv& env) {
            if (!nudge) return;
            const frontend::VarDecl& s = *offload.scalar_reds[0].decl;
            env.SetScalar(s, translator::TypedValue::OfDouble(
                                 NextUp(static_cast<float>(
                                     env.GetScalar(s).AsDouble())),
                                 ir::ValType::kF32));
          });
      if (nudge) {
        EXPECT_NE(error.find("scalar reduction 's' diverges"),
                  std::string::npos)
            << error;
      } else {
        EXPECT_EQ(error, "");
      }
    }
    {
      std::vector<std::int32_t> b = bins;
      std::vector<float> weights = w, h(8, 0.5f);
      ManagedArray mbins("bins", ir::ValType::kI32, kN, b.data(), 3);
      ManagedArray mw("w", ir::ValType::kF32, kN, weights.data(), 3);
      ManagedArray mh("h", ir::ValType::kF32, 8, h.data(), 3);
      const std::string error = CheckNudged(
          *platform, hist, kN,
          [&](const frontend::VarDecl& decl) -> ManagedArray& {
            return decl.name == "bins" ? mbins : decl.name == "w" ? mw : mh;
          },
          [&](const translator::LoopOffload&, translator::HostEnv&) {
            if (!nudge) return;
            float& element = mh.shard(0).data->Typed<float>()[3];
            element = NextUp(element);
          });
      if (nudge) {
        EXPECT_NE(error.find("array 'h' diverges at element 3 on device 0"),
                  std::string::npos)
            << error;
      } else {
        EXPECT_EQ(error, "");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// All applications, divergence-free under validation
// ---------------------------------------------------------------------------

// One validated run: a GPU count under one of the option sets the apps are
// swept with. Each instantiation below is one option set; the printed value
// (and so the ctest name's last component) is the GPU count.
struct ValidatedCase {
  int gpus;
  int opt_level;
  bool async_pipeline;
  TaskMapper mapper;
};

void PrintTo(const ValidatedCase& c, std::ostream* os) { *os << c.gpus; }

class ValidatedAppsTest : public ::testing::TestWithParam<ValidatedCase> {
 protected:
  ExecOptions Options() const {
    ExecOptions options;
    options.validate = true;
    options.async_pipeline = GetParam().async_pipeline;
    options.mapper = GetParam().mapper;
    return options;
  }
  translator::CompileOptions CompileOpts() const {
    translator::CompileOptions copts;
    copts.opt_level = GetParam().opt_level;
    return copts;
  }
  static void ExpectClean(const RunReport& report) {
    EXPECT_GT(report.validator.kernels_checked, 0u);
    EXPECT_EQ(report.validator.divergences, 0u);
  }
  std::unique_ptr<sim::Platform> platform_ = sim::MakeSupercomputerNode(4);
};

TEST_P(ValidatedAppsTest, MdRunsClean) {
  const apps::MdInput input = apps::MakeMdInput(512, 12);
  const std::vector<float> expected = apps::MdReference(input);
  std::vector<float> force;
  ExpectClean(apps::RunMdAcc(input, *platform_, GetParam().gpus, &force,
                             Options(), CompileOpts()));
  ASSERT_EQ(force.size(), expected.size());
  for (std::size_t i = 0; i < force.size(); ++i) {
    ASSERT_EQ(force[i], expected[i]) << "component " << i;
  }
}

// kmeans' float reductions are compared bit for bit by the validator, so the
// golden run must replay each schedule's launch geometry: BSP, the async
// pipeline and the measured mapper's proportional split. Against the
// sequential reference, chunked reductions reorder the float sums.
TEST_P(ValidatedAppsTest, KmeansRunsClean) {
  const apps::KmeansInput input = apps::MakeKmeansInput(800, 4, 4, 7);
  const apps::KmeansResult expected = apps::KmeansReference(input);
  apps::KmeansResult result;
  ExpectClean(apps::RunKmeansAcc(input, *platform_, GetParam().gpus, &result,
                                 Options(), CompileOpts()));
  EXPECT_EQ(result.membership, expected.membership);
  ASSERT_EQ(result.centroids.size(), expected.centroids.size());
  for (std::size_t i = 0; i < result.centroids.size(); ++i) {
    EXPECT_NEAR(result.centroids[i], expected.centroids[i],
                2e-3 * (1.0 + std::fabs(expected.centroids[i])))
        << "centroid component " << i;
  }
}

TEST_P(ValidatedAppsTest, BfsRunsClean) {
  const apps::BfsInput input = apps::MakeBfsInput(1000, 4);
  const std::vector<std::int32_t> expected = apps::BfsReference(input);
  std::vector<std::int32_t> cost;
  ExpectClean(apps::RunBfsAcc(input, *platform_, GetParam().gpus, &cost,
                              Options(), CompileOpts()));
  EXPECT_EQ(cost, expected);
}

TEST_P(ValidatedAppsTest, SpmvRunsClean) {
  const apps::SpmvInput input = apps::MakeSpmvInput(600, 8);
  const std::vector<float> expected = apps::SpmvReference(input);
  std::vector<float> y;
  ExpectClean(apps::RunSpmvAcc(input, *platform_, GetParam().gpus, &y,
                               Options(), CompileOpts()));
  ASSERT_EQ(y.size(), expected.size());
  for (std::size_t r = 0; r < y.size(); ++r) {
    ASSERT_EQ(y[r], expected[r]) << "row " << r;
  }
}

TEST_P(ValidatedAppsTest, Heat2dRunsClean) {
  const apps::Heat2dInput input = apps::MakeHeat2dInput(41, 14, 5);
  const std::vector<float> expected = apps::Heat2dReference(input);
  std::vector<float> u;
  ExpectClean(apps::RunHeat2dAcc(input, *platform_, GetParam().gpus, &u,
                                 Options(), CompileOpts()));
  EXPECT_EQ(u, expected);
}

TEST_P(ValidatedAppsTest, LatticeRunsClean) {
  const apps::LatticeInput input = apps::MakeLatticeInput(33, 11, 4);
  const std::vector<float> expected = apps::LatticeReference(input);
  std::vector<float> phi;
  ExpectClean(apps::RunLatticeAcc(input, *platform_, GetParam().gpus, &phi,
                                  Options(), CompileOpts()));
  EXPECT_EQ(phi, expected);
}

/// 1, 2 and 4 GPUs under one option set.
std::vector<ValidatedCase> GpuSweep(int opt_level, bool async_pipeline,
                                    TaskMapper mapper) {
  std::vector<ValidatedCase> cases;
  for (const int gpus : {1, 2, 4}) {
    cases.push_back({gpus, opt_level, async_pipeline, mapper});
  }
  return cases;
}

// The default options (mid-end level 1, bulk-synchronous, equal split) keep
// the suite's original instantiation name.
INSTANTIATE_TEST_SUITE_P(GpuCounts, ValidatedAppsTest,
                         ::testing::ValuesIn(GpuSweep(
                             1, false, TaskMapper::kEqual)));
INSTANTIATE_TEST_SUITE_P(Async, ValidatedAppsTest,
                         ::testing::ValuesIn(GpuSweep(
                             1, true, TaskMapper::kEqual)));
INSTANTIATE_TEST_SUITE_P(O2, ValidatedAppsTest,
                         ::testing::ValuesIn(GpuSweep(
                             2, false, TaskMapper::kEqual)));
INSTANTIATE_TEST_SUITE_P(O2Measured, ValidatedAppsTest,
                         ::testing::ValuesIn(GpuSweep(
                             2, false, TaskMapper::kMeasured)));

}  // namespace
}  // namespace accmg::runtime
