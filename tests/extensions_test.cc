// Tests for the extensions beyond the paper's prototype:
//  * spec-throughput task mapping (TaskMapper::kSpec) for heterogeneous
//    GPUs,
//  * 2-D stencils through the 1-D stride+halo form of localaccess — the
//    paper's Section VI "future work", realizable because a row-major
//    2-D row-block decomposition is exactly stride(C), left(C), right(C).
#include <gtest/gtest.h>

#include <numeric>

#include "runtime/executor.h"
#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg {
namespace {

using runtime::AccProgram;
using runtime::ProgramRunner;
using runtime::Range;
using runtime::RunConfig;
using runtime::TaskMapper;

constexpr char kScaleSource[] = R"(
void scale(int n, float* x) {
  #pragma acc localaccess(x: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    x[i] = x[i] * 2.0f;
  }
}
)";

std::unique_ptr<sim::Platform> MakeHeterogeneousPlatform() {
  // One full-speed C2075 and one at half throughput.
  sim::DeviceSpec fast = sim::TeslaC2075();
  sim::DeviceSpec slow = sim::TeslaC2075();
  slow.name = "Tesla C2075 (derated)";
  slow.instr_per_sec /= 2;
  slow.mem_bandwidth_bps /= 2;
  return std::make_unique<sim::Platform>(
      std::vector<sim::DeviceSpec>{fast, slow}, sim::DesktopTopology(2),
      sim::CoreI7Desktop());
}

double RunScale(sim::Platform& platform, bool weighted,
                std::vector<float>& x) {
  const AccProgram program = AccProgram::FromSource("scale", kScaleSource);
  runtime::RunConfig config{.platform = &platform, .num_gpus = 2};
  config.options.mapper =
      weighted ? runtime::TaskMapper::kSpec : runtime::TaskMapper::kEqual;
  ProgramRunner runner(program, config);
  runner.BindArray("x", x.data(), ir::ValType::kF32,
                   static_cast<std::int64_t>(x.size()));
  runner.BindScalar("n", static_cast<std::int64_t>(x.size()));
  return runner.Run("scale")
      .time[sim::TimeCategory::kKernel];
}

TEST(WeightedMappingTest, CorrectOnHeterogeneousGpus) {
  auto platform = MakeHeterogeneousPlatform();
  std::vector<float> x(10001, 3.0f);
  RunScale(*platform, /*weighted=*/true, x);
  for (float v : x) ASSERT_EQ(v, 6.0f);
}

TEST(WeightedMappingTest, FasterThanEqualSplitOnHeterogeneousGpus) {
  std::vector<float> a(1 << 20, 1.0f), b(1 << 20, 1.0f);
  auto p1 = MakeHeterogeneousPlatform();
  const double equal = RunScale(*p1, false, a);
  auto p2 = MakeHeterogeneousPlatform();
  const double weighted = RunScale(*p2, true, b);
  // Equal split is bounded by the slow GPU (half speed): kernel time ~2/3
  // longer than the weighted split.
  EXPECT_LT(weighted, equal * 0.85);
  EXPECT_EQ(a, b);
}

TEST(WeightedMappingTest, NoChangeOnHomogeneousGpus) {
  std::vector<float> a(4096, 1.0f), b(4096, 1.0f);
  auto p1 = sim::MakeDesktopMachine(2);
  const double equal = RunScale(*p1, false, a);
  auto p2 = sim::MakeDesktopMachine(2);
  const double weighted = RunScale(*p2, true, b);
  EXPECT_NEAR(weighted, equal, equal * 1e-9);
}

// ---------------------------------------------------------------------------
// Iteration split per task mapper, read back from the owned ranges of the
// localaccess array (stride 1, so owned element ranges == iteration ranges)
// ---------------------------------------------------------------------------

/// Runs the scale loop `runs` times over n elements on the first `gpus`
/// devices and returns each device's owned range of x after the last run.
std::vector<Range> OwnedSplit(sim::Platform& platform, int gpus,
                              TaskMapper mapper, std::int64_t n, int runs) {
  const AccProgram program = AccProgram::FromSource("scale", kScaleSource);
  const translator::CompiledFunction& fn = program.compiled().functions[0];
  std::vector<float> x(static_cast<std::size_t>(n), 1.0f);
  translator::HostEnv env;
  env.SetScalar(*fn.function->params[0],
                translator::TypedValue::OfInt(n, ir::ValType::kI32));
  runtime::ManagedArray array("x", ir::ValType::kF32, n, x.data(),
                              platform.num_devices());
  runtime::ExecOptions options;
  options.mapper = mapper;
  std::vector<int> devices(static_cast<std::size_t>(gpus));
  std::iota(devices.begin(), devices.end(), 0);
  runtime::Executor executor(platform, options, devices);
  for (int r = 0; r < runs; ++r) {
    executor.RunOffload(
        fn.offloads[0], env,
        [&](const frontend::VarDecl&) -> runtime::ManagedArray& {
          return array;
        });
  }
  std::vector<Range> owned;
  for (int d : devices) owned.push_back(array.shard(d).owned);
  return owned;
}

TEST(TaskMapperSplitTest, EqualSplitFloorsProportionalBoundaries) {
  auto platform = sim::MakeDesktopMachine(3);
  EXPECT_EQ(OwnedSplit(*platform, 3, TaskMapper::kEqual, 7, 1),
            (std::vector<Range>{{0, 2}, {2, 4}, {4, 7}}));
}

TEST(TaskMapperSplitTest, SpecSplitFollowsThroughputTable) {
  auto platform = MakeHeterogeneousPlatform();
  EXPECT_EQ(OwnedSplit(*platform, 2, TaskMapper::kSpec, 10001, 1),
            (std::vector<Range>{{0, 6667}, {6667, 10001}}));
}

TEST(TaskMapperSplitTest, MeasuredSplitOnceTheSpeedTableIsFrozen) {
  auto platform = MakeHeterogeneousPlatform();
  // The first run splits equally and measures; the second uses the table.
  EXPECT_EQ(OwnedSplit(*platform, 2, TaskMapper::kMeasured, 10001, 1),
            (std::vector<Range>{{0, 5000}, {5000, 10001}}));
  // Measured speeds include fixed per-launch costs, so at this size the
  // split is far milder than the 2:1 spec ratio.
  auto fresh = MakeHeterogeneousPlatform();
  EXPECT_EQ(OwnedSplit(*fresh, 2, TaskMapper::kMeasured, 10001, 2),
            (std::vector<Range>{{0, 5185}, {5185, 10001}}));
}

// ---------------------------------------------------------------------------
// 2-D stencil through stride+halo localaccess (paper future work, Section VI)
// ---------------------------------------------------------------------------

TEST(TwoDimensionalStencilTest, RowBlockDecompositionViaStrideHalo) {
  // 5-point 2-D Jacobi on a rows x cols grid stored row-major. The parallel
  // loop runs over rows; iteration r reads rows r-1..r+1, i.e. elements
  // [cols*r - cols, cols*(r+1) - 1 + cols] — exactly stride(cols),
  // left(cols), right(cols).
  constexpr char kSource[] = R"(
void jacobi2d(int rows, int cols, int steps, double* u, double* v) {
  #pragma acc data copy(u[0:rows*cols]) create(v[0:rows*cols])
  {
    for (int t = 0; t < steps; t++) {
      #pragma acc localaccess(u: stride(cols), left(cols), right(cols)) \
                  (v: stride(cols))
      #pragma acc parallel loop
      for (int r = 0; r < rows; r++) {
        for (int c = 0; c < cols; c++) {
          if (r == 0 || r == rows - 1 || c == 0 || c == cols - 1) {
            v[r * cols + c] = u[r * cols + c];
          } else {
            v[r * cols + c] = 0.2 * (u[r * cols + c]
                                     + u[(r - 1) * cols + c]
                                     + u[(r + 1) * cols + c]
                                     + u[r * cols + c - 1]
                                     + u[r * cols + c + 1]);
          }
        }
      }
      #pragma acc localaccess(u: stride(cols)) (v: stride(cols))
      #pragma acc parallel loop
      for (int r = 0; r < rows; r++) {
        for (int c = 0; c < cols; c++) {
          u[r * cols + c] = v[r * cols + c];
        }
      }
    }
  }
}
)";
  constexpr int rows = 64, cols = 48, steps = 5;
  auto reference = [&] {
    std::vector<double> u(static_cast<std::size_t>(rows) * cols);
    std::vector<double> v(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) u[i] = (i % 17) * 0.25;
    for (int t = 0; t < steps; ++t) {
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          const std::size_t idx = static_cast<std::size_t>(r) * cols + c;
          if (r == 0 || r == rows - 1 || c == 0 || c == cols - 1) {
            v[idx] = u[idx];
          } else {
            v[idx] = 0.2 * (u[idx] + u[idx - cols] + u[idx + cols] +
                            u[idx - 1] + u[idx + 1]);
          }
        }
      }
      u = v;
    }
    return u;
  }();

  const AccProgram program = AccProgram::FromSource("jacobi2d", kSource);
  for (int gpus : {1, 2, 3}) {
    auto platform = sim::MakeSupercomputerNode(3);
    std::vector<double> u(static_cast<std::size_t>(rows) * cols);
    std::vector<double> v(u.size(), 0.0);
    for (std::size_t i = 0; i < u.size(); ++i) u[i] = (i % 17) * 0.25;
    ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                            .num_gpus = gpus});
    runner.BindArray("u", u.data(), ir::ValType::kF64,
                     static_cast<std::int64_t>(u.size()));
    runner.BindArray("v", v.data(), ir::ValType::kF64,
                     static_cast<std::int64_t>(v.size()));
    runner.BindScalar("rows", static_cast<std::int64_t>(rows));
    runner.BindScalar("cols", static_cast<std::int64_t>(cols));
    runner.BindScalar("steps", static_cast<std::int64_t>(steps));
    const runtime::RunReport report = runner.Run("jacobi2d");
    for (std::size_t i = 0; i < u.size(); ++i) {
      ASSERT_EQ(u[i], reference[i]) << "gpus=" << gpus << " idx=" << i;
    }
    if (gpus > 1) {
      // The multi-GPU runs must exchange row halos, not whole replicas.
      EXPECT_GT(report.comm.halo_refreshes, 0u);
      EXPECT_LT(report.peak_user_bytes,
                2u * u.size() * sizeof(double) * static_cast<unsigned>(gpus));
    }
  }
}

TEST(TwoDimensionalStencilTest, DistributedMemoryStaysSubLinear) {
  // Memory check for the 2-D case: user bytes on 3 GPUs ~= one grid copy
  // (+ halos), not three.
  constexpr char kSource[] = R"(
void touch(int rows, int cols, double* u) {
  #pragma acc localaccess(u: stride(cols), left(cols), right(cols))
  #pragma acc parallel loop
  for (int r = 0; r < rows; r++) {
    for (int c = 0; c < cols; c++) {
      u[r * cols + c] = u[r * cols + c] + 1.0;
    }
  }
}
)";
  constexpr int rows = 300, cols = 100;
  const AccProgram program = AccProgram::FromSource("touch", kSource);
  auto platform = sim::MakeSupercomputerNode(3);
  std::vector<double> u(static_cast<std::size_t>(rows) * cols, 0.0);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 3});
  runner.BindArray("u", u.data(), ir::ValType::kF64,
                   static_cast<std::int64_t>(u.size()));
  runner.BindScalar("rows", static_cast<std::int64_t>(rows));
  runner.BindScalar("cols", static_cast<std::int64_t>(cols));
  const runtime::RunReport report = runner.Run("touch");
  EXPECT_EQ(u[0], 1.0);
  const std::size_t one_copy = u.size() * sizeof(double);
  EXPECT_LT(report.peak_user_bytes, one_copy + 8 * cols * sizeof(double));
}

}  // namespace
}  // namespace accmg
