// Application-level integration tests: the three paper workloads (MD,
// KMEANS, BFS) on every execution backend, checked against native references,
// plus golden kernel counts and output digests for every app.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/heat2d/heat2d.h"
#include "apps/kmeans/kmeans.h"
#include "apps/lattice/lattice.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "common/metrics.h"
#include "common/sha256.h"
#include "runtime/options.h"
#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg {
namespace {

// ---------------------------------------------------------------------------
// MD
// ---------------------------------------------------------------------------

class MdTest : public ::testing::TestWithParam<int> {};

TEST_P(MdTest, ForcesMatchReference) {
  const int gpus = GetParam();
  auto platform = sim::MakeSupercomputerNode(3);
  const apps::MdInput input = apps::MakeMdInput(2048, 16);
  const std::vector<float> expected = apps::MdReference(input);

  std::vector<float> force;
  const auto report = apps::RunMdAcc(input, *platform, gpus, &force);
  ASSERT_EQ(force.size(), expected.size());
  for (std::size_t i = 0; i < force.size(); ++i) {
    ASSERT_EQ(force[i], expected[i]) << "component " << i;
  }
  // MD needs no inter-GPU communication (paper Section V-A).
  EXPECT_EQ(report.comm.miss_records_replayed, 0u);
  EXPECT_EQ(report.comm.dirty_chunks_sent, 0u);
  EXPECT_EQ(report.time[sim::TimeCategory::kGpuGpu], 0.0);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, MdTest, ::testing::Values(1, 2, 3));

TEST(MdTest, OpenMpAndCudaBaselinesMatchReference) {
  auto platform = sim::MakeDesktopMachine(2);
  const apps::MdInput input = apps::MakeMdInput(1024, 12);
  const std::vector<float> expected = apps::MdReference(input);

  std::vector<float> force;
  apps::RunMdOpenMp(input, *platform, &force);
  for (std::size_t i = 0; i < force.size(); ++i) {
    ASSERT_EQ(force[i], expected[i]) << "openmp component " << i;
  }
  apps::RunMdCuda(input, *platform, &force);
  for (std::size_t i = 0; i < force.size(); ++i) {
    ASSERT_EQ(force[i], expected[i]) << "cuda component " << i;
  }
}

// ---------------------------------------------------------------------------
// KMEANS
// ---------------------------------------------------------------------------

class KmeansTest : public ::testing::TestWithParam<int> {};

TEST_P(KmeansTest, ConvergesToReferenceCentroids) {
  const int gpus = GetParam();
  auto platform = sim::MakeSupercomputerNode(3);
  const apps::KmeansInput input = apps::MakeKmeansInput(4000, 8, 4, 5);
  const apps::KmeansResult expected = apps::KmeansReference(input);

  apps::KmeansResult result;
  apps::RunKmeansAcc(input, *platform, gpus, &result);
  ASSERT_EQ(result.membership.size(), expected.membership.size());
  // Membership must match exactly (distances are computed in identical
  // float order per point).
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < result.membership.size(); ++i) {
    if (result.membership[i] != expected.membership[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  // Centroids accumulate in different orders; compare with tolerance.
  for (std::size_t i = 0; i < result.centroids.size(); ++i) {
    EXPECT_NEAR(result.centroids[i], expected.centroids[i],
                2e-3 * (1.0 + std::fabs(expected.centroids[i])))
        << "centroid component " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, KmeansTest, ::testing::Values(1, 2, 3));

TEST(KmeansTest, BaselinesMatchReference) {
  auto platform = sim::MakeDesktopMachine(2);
  const apps::KmeansInput input = apps::MakeKmeansInput(2000, 6, 3, 4);
  const apps::KmeansResult expected = apps::KmeansReference(input);

  apps::KmeansResult omp;
  apps::RunKmeansOpenMp(input, *platform, &omp);
  EXPECT_EQ(omp.membership, expected.membership);

  apps::KmeansResult cuda;
  apps::RunKmeansCuda(input, *platform, &cuda);
  EXPECT_EQ(cuda.membership, expected.membership);
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

class BfsTest : public ::testing::TestWithParam<int> {};

TEST_P(BfsTest, LevelsMatchReference) {
  const int gpus = GetParam();
  auto platform = sim::MakeSupercomputerNode(3);
  const apps::BfsInput input = apps::MakeBfsInput(20000, 12);
  const std::vector<std::int32_t> expected = apps::BfsReference(input);

  std::vector<std::int32_t> cost;
  const auto report = apps::RunBfsAcc(input, *platform, gpus, &cost);
  ASSERT_EQ(cost.size(), expected.size());
  for (std::size_t i = 0; i < cost.size(); ++i) {
    ASSERT_EQ(cost[i], expected[i]) << "node " << i;
  }
  if (gpus > 1) {
    // The replicated cost array must have exchanged dirty chunks.
    EXPECT_GT(report.comm.dirty_chunks_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, BfsTest, ::testing::Values(1, 2, 3));

TEST(BfsTest, BaselinesMatchReference) {
  auto platform = sim::MakeDesktopMachine(2);
  const apps::BfsInput input = apps::MakeBfsInput(10000, 10);
  const std::vector<std::int32_t> expected = apps::BfsReference(input);

  std::vector<std::int32_t> cost;
  apps::RunBfsOpenMp(input, *platform, &cost);
  EXPECT_EQ(cost, expected);

  apps::RunBfsCuda(input, *platform, &cost);
  EXPECT_EQ(cost, expected);
}

TEST(BfsTest, UsesRoughlyTenLevels) {
  // The generator should produce diameters near the paper's 10 kernel
  // launches for realistic sizes.
  const apps::BfsInput input = apps::MakeBfsInput(100000, 32);
  const std::vector<std::int32_t> levels = apps::BfsReference(input);
  const std::int32_t max_level =
      *std::max_element(levels.begin(), levels.end());
  EXPECT_GE(max_level, 3);
  EXPECT_LE(max_level, 24);
}

// ---------------------------------------------------------------------------
// HEAT2D / LATTICE (2-D row-block stencils)
// ---------------------------------------------------------------------------

class Heat2dTest : public ::testing::TestWithParam<int> {};

TEST_P(Heat2dTest, BitIdenticalToReferenceUnderValidatorInBothMapperModes) {
  const int gpus = GetParam();
  const apps::Heat2dInput input = apps::MakeHeat2dInput(37, 12, 4);
  const std::vector<float> expected = apps::Heat2dReference(input);

  for (const auto mapper :
       {runtime::TaskMapper::kEqual, runtime::TaskMapper::kMeasured}) {
    auto platform = sim::MakeSupercomputerNode(4);
    runtime::ExecOptions options;
    options.validate = true;
    options.mapper = mapper;
    std::vector<float> u;
    const auto report = apps::RunHeat2dAcc(input, *platform, gpus, &u, options);
    EXPECT_EQ(report.validator.divergences, 0u);
    ASSERT_EQ(u.size(), expected.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      ASSERT_EQ(u[i], expected[i])
          << "element " << i << " mapper "
          << (mapper == runtime::TaskMapper::kEqual ? "equal" : "measured");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, Heat2dTest, ::testing::Values(1, 2, 4));

TEST(Heat2dTest, BaselinesMatchReference) {
  auto platform = sim::MakeDesktopMachine(2);
  const apps::Heat2dInput input = apps::MakeHeat2dInput(24, 10, 3);
  const std::vector<float> expected = apps::Heat2dReference(input);

  std::vector<float> u;
  apps::RunHeat2dOpenMp(input, *platform, &u);
  EXPECT_EQ(u, expected);
  apps::RunHeat2dCuda(input, *platform, &u);
  EXPECT_EQ(u, expected);
}

class LatticeTest : public ::testing::TestWithParam<int> {};

TEST_P(LatticeTest, BitIdenticalToReferenceUnderValidatorInBothMapperModes) {
  const int gpus = GetParam();
  const apps::LatticeInput input = apps::MakeLatticeInput(29, 9, 5);
  const std::vector<float> expected = apps::LatticeReference(input);

  for (const auto mapper :
       {runtime::TaskMapper::kEqual, runtime::TaskMapper::kMeasured}) {
    auto platform = sim::MakeSupercomputerNode(4);
    runtime::ExecOptions options;
    options.validate = true;
    options.mapper = mapper;
    std::vector<float> phi;
    const auto report =
        apps::RunLatticeAcc(input, *platform, gpus, &phi, options);
    EXPECT_EQ(report.validator.divergences, 0u);
    ASSERT_EQ(phi.size(), expected.size());
    for (std::size_t i = 0; i < phi.size(); ++i) {
      ASSERT_EQ(phi[i], expected[i])
          << "element " << i << " mapper "
          << (mapper == runtime::TaskMapper::kEqual ? "equal" : "measured");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, LatticeTest, ::testing::Values(1, 2, 4));

TEST(LatticeTest, BaselinesMatchReference) {
  auto platform = sim::MakeDesktopMachine(2);
  const apps::LatticeInput input = apps::MakeLatticeInput(20, 8, 3);
  const std::vector<float> expected = apps::LatticeReference(input);

  std::vector<float> phi;
  apps::RunLatticeOpenMp(input, *platform, &phi);
  EXPECT_EQ(phi, expected);
  apps::RunLatticeCuda(input, *platform, &phi);
  EXPECT_EQ(phi, expected);
}

// The measured mapper actually adapts: on a node whose devices publish
// different throughputs, the second execution of each offload departs from
// equal division (mapper.rebalances fires) yet the result stays
// bit-identical to the equal split.
TEST(Heat2dTest, MeasuredMapperRebalancesWithoutChangingResults) {
  const apps::Heat2dInput input = apps::MakeHeat2dInput(40, 10, 6);
  metrics::Counter& rebalances =
      metrics::Registry::Global().counter("mapper.rebalances");
  metrics::Counter& measured_splits =
      metrics::Registry::Global().counter("mapper.measured_splits");

  std::vector<float> equal_u, measured_u;
  {
    auto platform = sim::MakeSupercomputerNode(3);
    runtime::ExecOptions options;
    apps::RunHeat2dAcc(input, *platform, 3, &equal_u, options);
  }
  const std::uint64_t rebalances_before = rebalances.value();
  const std::uint64_t measured_before = measured_splits.value();
  {
    auto platform = sim::MakeSupercomputerNode(3);
    runtime::ExecOptions options;
    options.mapper = runtime::TaskMapper::kMeasured;
    apps::RunHeat2dAcc(input, *platform, 3, &measured_u, options);
  }
  EXPECT_GT(rebalances.value(), rebalances_before);
  EXPECT_GT(measured_splits.value(), measured_before);
  EXPECT_EQ(measured_u, equal_u);
}

// ---------------------------------------------------------------------------
// Golden counts: the exact dynamic cost (instructions, bytes read, bytes
// written) of every kernel and a digest of the output bytes, pinned per app
// and GPU count, and for each app's OpenMP (CPU) baseline its simulated
// host-compute seconds and output digest. The kernel engine may change how
// it charges cost, never what it charges: a drift in the counts moves
// simulated time, and a drift in the digest is a wrong result. bfs pins its
// output only, because its racing reads of `visited` make its instruction
// count follow the race.
// ---------------------------------------------------------------------------

struct GoldenKernel {
  std::string name;
  std::uint64_t instructions = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  bool operator==(const GoldenKernel&) const = default;
};

struct GoldenCase {
  std::string app;
  int gpus = 0;  ///< 0: the app's OpenMP (CPU) baseline
  std::string output_sha256;
  std::vector<GoldenKernel> kernels;  ///< empty: counts are not pinned (bfs)
  /// CPU rows: simulated host-compute seconds (0: not pinned, bfs).
  double host_compute_s = 0;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.app << "/" << c.gpus;
}

std::string GoldenCaseName(const GoldenCase& c) {
  return c.app + (c.gpus == 0 ? "_cpu" : "_" + std::to_string(c.gpus) + "gpu");
}

template <typename T>
void HashBytes(Sha256& hash, const std::vector<T>& values) {
  hash.Update(values.data(), values.size() * sizeof(T));
}

/// Runs `app` on `platform` using `gpus` of its devices, or through its
/// OpenMP baseline on the platform's host when `gpus` is 0. Returns the
/// report and fills `sha256` with the digest of its outputs.
runtime::RunReport RunGoldenApp(sim::Platform* platform, const std::string& app,
                                int gpus, std::string* sha256) {
  Sha256 hash;
  runtime::RunReport report;
  if (app == "md") {
    std::vector<float> force;
    const apps::MdInput input = apps::MakeMdInput(1024, 12);
    report = gpus == 0 ? apps::RunMdOpenMp(input, *platform, &force)
                       : apps::RunMdAcc(input, *platform, gpus, &force);
    HashBytes(hash, force);
  } else if (app == "kmeans" || app == "kmeans_o0") {
    // At opt level 1 the mid-end fuses kmeans' two kernels into one;
    // kmeans_o0 pins each of them on its own.
    translator::CompileOptions copts;
    copts.opt_level = app == "kmeans" ? 1 : 0;
    apps::KmeansResult result;
    const apps::KmeansInput input = apps::MakeKmeansInput(1500, 6, 4, 3);
    report = gpus == 0 ? apps::RunKmeansOpenMp(input, *platform, &result)
                       : apps::RunKmeansAcc(input, *platform, gpus, &result,
                                            {}, copts);
    HashBytes(hash, result.centroids);
    HashBytes(hash, result.membership);
  } else if (app == "heat2d") {
    std::vector<float> u;
    const apps::Heat2dInput input = apps::MakeHeat2dInput(48, 20, 4);
    report = gpus == 0 ? apps::RunHeat2dOpenMp(input, *platform, &u)
                       : apps::RunHeat2dAcc(input, *platform, gpus, &u);
    HashBytes(hash, u);
  } else if (app == "lattice") {
    std::vector<float> phi;
    const apps::LatticeInput input = apps::MakeLatticeInput(48, 20, 4);
    report = gpus == 0 ? apps::RunLatticeOpenMp(input, *platform, &phi)
                       : apps::RunLatticeAcc(input, *platform, gpus, &phi);
    HashBytes(hash, phi);
  } else if (app == "spmv") {
    std::vector<float> y;
    const apps::SpmvInput input = apps::MakeSpmvInput(1200, 9);
    report = gpus == 0 ? apps::RunSpmvOpenMp(input, *platform, &y)
                       : apps::RunSpmvAcc(input, *platform, gpus, &y);
    HashBytes(hash, y);
  } else if (app == "bfs") {
    std::vector<std::int32_t> cost;
    const apps::BfsInput input = apps::MakeBfsInput(1500, 8);
    report = gpus == 0 ? apps::RunBfsOpenMp(input, *platform, &cost)
                       : apps::RunBfsAcc(input, *platform, gpus, &cost);
    HashBytes(hash, cost);
  } else if (app == "scatter") {
    // Not a paper app: a reversal scatter through an index vector, so every
    // cross-segment write is a write miss and each device reserves a miss
    // buffer for `dst`.
    static const runtime::AccProgram program =
        runtime::AccProgram::FromSource("scatter", R"(
void scatter(int n, int* perm, float* src, float* dst) {
  #pragma acc data copyin(perm[0:n], src[0:n]) copy(dst[0:n])
  {
    #pragma acc localaccess(src: stride(1)) (dst: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) { dst[perm[i]] = src[i]; }
  }
}
)");
    constexpr int n = 3000;
    std::vector<std::int32_t> perm(n);
    std::vector<float> src(n);
    std::vector<float> dst(n, -1.0f);
    for (int i = 0; i < n; ++i) {
      perm[static_cast<std::size_t>(i)] = n - 1 - i;
      src[static_cast<std::size_t>(i)] = static_cast<float>(i) * 0.5f;
    }
    runtime::ProgramRunner runner(
        program, runtime::RunConfig{.platform = platform, .num_gpus = gpus});
    runner.BindArray("perm", perm.data(), ir::ValType::kI32, n);
    runner.BindArray("src", src.data(), ir::ValType::kF32, n);
    runner.BindArray("dst", dst.data(), ir::ValType::kF32, n);
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    report = runner.Run("scatter");
    HashBytes(hash, dst);
  } else {
    ADD_FAILURE() << "unknown app " << app;
  }
  *sha256 = hash.HexDigest();
  return report;
}

/// RunGoldenApp on a 4-GPU supercomputer node.
runtime::RunReport RunGoldenApp(const std::string& app, int gpus,
                                std::string* sha256) {
  auto platform = sim::MakeSupercomputerNode(4);
  return RunGoldenApp(platform.get(), app, gpus, sha256);
}

class GoldenCountsTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCountsTest, KernelStatsAndOutputMatchPinnedValues) {
  const GoldenCase& expected = GetParam();
  std::string sha256;
  const runtime::RunReport report =
      RunGoldenApp(expected.app, expected.gpus, &sha256);
  std::vector<GoldenKernel> kernels;
  for (const auto& [name, stats] : report.kernel_stats) {
    kernels.push_back(GoldenKernel{name, stats.instructions, stats.bytes_read,
                                   stats.bytes_written});
  }
  // On a mismatch, print the observed values in table form.
  std::ostringstream observed;
  observed << "{\"" << expected.app << "\", " << expected.gpus << ", \""
           << sha256 << "\",\n {";
  for (const GoldenKernel& k : kernels) {
    observed << "{\"" << k.name << "\", " << k.instructions << ", "
             << k.bytes_read << ", " << k.bytes_written << "}, ";
  }
  const double host_compute_s = report.time[sim::TimeCategory::kHostCompute];
  observed << "}";
  if (expected.gpus == 0) {
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.17g", host_compute_s);
    observed << ", " << seconds;
  }
  observed << "},";
  EXPECT_EQ(sha256, expected.output_sha256) << observed.str();
  if (!expected.kernels.empty()) {
    EXPECT_EQ(kernels, expected.kernels) << observed.str();
  }
  if (expected.host_compute_s != 0) {
    EXPECT_EQ(host_compute_s, expected.host_compute_s) << observed.str();
  }
}

const std::vector<GoldenCase>& GoldenCases() {
  static const std::vector<GoldenCase> cases = {
      // Captured with the per-instruction switch interpreter, before the
      // pre-decoded engine replaced it.
      {"md", 1,
       "ffcd504728a42c2c794b047b93d54879fe25873a49a5fdc425b0901fd9018dcf",
       {{"md_kernel0", 698084, 208896, 12288}}},
      {"md", 2,
       "ffcd504728a42c2c794b047b93d54879fe25873a49a5fdc425b0901fd9018dcf",
       {{"md_kernel0", 698084, 208896, 12288}}},
      {"md", 4,
       "ffcd504728a42c2c794b047b93d54879fe25873a49a5fdc425b0901fd9018dcf",
       {{"md_kernel0", 698084, 208896, 12288}}},
      {"kmeans", 1,
       "0ff62bee333bce5f5fd00d245069462bcc137985710a08d705446248b0146219",
       {{"kmeans_kernel0_fused", 3415144, 990000, 18000}}},
      {"kmeans", 2,
       "64409bdf8fe61b879ee551cf5ef5555ecdb962e76e2402beec4a19cc7874cbe9",
       {{"kmeans_kernel0_fused", 3415144, 990000, 18000}}},
      {"kmeans", 4,
       "6934c9f6c9f610c69eeabfb996937cb97ab31f2c046d3743f1b957a8736f1438",
       {{"kmeans_kernel0_fused", 3415144, 990000, 18000}}},
      {"kmeans_o0", 1,
       "0ff62bee333bce5f5fd00d245069462bcc137985710a08d705446248b0146219",
       {{"kmeans_kernel0", 3032644, 864000, 18000},
        {"kmeans_kernel1", 499500, 126000, 0}}},
      {"kmeans_o0", 2,
       "64409bdf8fe61b879ee551cf5ef5555ecdb962e76e2402beec4a19cc7874cbe9",
       {{"kmeans_kernel0", 3032644, 864000, 18000},
        {"kmeans_kernel1", 499500, 126000, 0}}},
      {"kmeans_o0", 4,
       "6934c9f6c9f610c69eeabfb996937cb97ab31f2c046d3743f1b957a8736f1438",
       {{"kmeans_kernel0", 3032644, 864000, 18000},
        {"kmeans_kernel1", 499500, 126000, 0}}},
      {"heat2d", 1,
       "1f3a8f1163a08a6e8421e60509228f4c4cb210f79885c165d8609b4702032a74",
       {{"heat2d_kernel0", 271392, 76800, 15360},
        {"heat2d_kernel1", 50880, 15360, 15360}}},
      {"heat2d", 2,
       "1f3a8f1163a08a6e8421e60509228f4c4cb210f79885c165d8609b4702032a74",
       {{"heat2d_kernel0", 271392, 76800, 15360},
        {"heat2d_kernel1", 50880, 15360, 15360}}},
      {"heat2d", 4,
       "1f3a8f1163a08a6e8421e60509228f4c4cb210f79885c165d8609b4702032a74",
       {{"heat2d_kernel0", 271392, 76800, 15360},
        {"heat2d_kernel1", 50880, 15360, 15360}}},
      {"lattice", 1,
       "f1b2e1f48984fcbdd4a7e4f6e92841dd2802d6da3a1de3f4b598801f9a8963a3",
       {{"lattice_kernel0", 332832, 76800, 15360},
        {"lattice_kernel1", 50880, 15360, 15360}}},
      {"lattice", 2,
       "f1b2e1f48984fcbdd4a7e4f6e92841dd2802d6da3a1de3f4b598801f9a8963a3",
       {{"lattice_kernel0", 332832, 76800, 15360},
        {"lattice_kernel1", 50880, 15360, 15360}}},
      {"lattice", 4,
       "f1b2e1f48984fcbdd4a7e4f6e92841dd2802d6da3a1de3f4b598801f9a8963a3",
       {{"lattice_kernel0", 332832, 76800, 15360},
        {"lattice_kernel1", 50880, 15360, 15360}}},
      {"spmv", 1,
       "6f8e703ace360741229b6857858f98415322011d39e59803332c0ed292c4aa21",
       {{"spmv_kernel0", 214800, 129600, 4800}}},
      {"spmv", 2,
       "6f8e703ace360741229b6857858f98415322011d39e59803332c0ed292c4aa21",
       {{"spmv_kernel0", 214800, 129600, 4800}}},
      {"spmv", 4,
       "6f8e703ace360741229b6857858f98415322011d39e59803332c0ed292c4aa21",
       {{"spmv_kernel0", 214800, 129600, 4800}}},
      {"bfs", 1,
       "8945b7effe7b6398c369e042b2c6cf789e343505c9fa9bbecfa0262043c7738b",
       {}},
      {"bfs", 2,
       "8945b7effe7b6398c369e042b2c6cf789e343505c9fa9bbecfa0262043c7738b",
       {}},
      {"bfs", 4,
       "8945b7effe7b6398c369e042b2c6cf789e343505c9fa9bbecfa0262043c7738b",
       {}},
      // The OpenMP (CPU) baseline, captured before its launch and
      // reduction fold moved onto the shared host runner.
      {"md", 0,
       "ffcd504728a42c2c794b047b93d54879fe25873a49a5fdc425b0901fd9018dcf",
       {}, 2.6849384615384615e-05},
      {"kmeans", 0,
       "0ff62bee333bce5f5fd00d245069462bcc137985710a08d705446248b0146219",
       {}, 0.0001313516923076923},
      {"heat2d", 0,
       "1f3a8f1163a08a6e8421e60509228f4c4cb210f79885c165d8609b4702032a74",
       {}, 1.2395076923076923e-05},
      {"lattice", 0,
       "f1b2e1f48984fcbdd4a7e4f6e92841dd2802d6da3a1de3f4b598801f9a8963a3",
       {}, 1.4758153846153848e-05},
      {"spmv", 0,
       "6f8e703ace360741229b6857858f98415322011d39e59803332c0ed292c4aa21",
       {}, 8.3999999999999992e-06},
      {"bfs", 0,
       "8945b7effe7b6398c369e042b2c6cf789e343505c9fa9bbecfa0262043c7738b",
       {}},
  };
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, GoldenCountsTest, ::testing::ValuesIn(GoldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return GoldenCaseName(info.param);
    });

// ---------------------------------------------------------------------------
// Golden device-memory accounting: the raw bytes behind Fig. 9. Every
// device's high-water mark and the peak User/System split (the sum of every
// array's UserBytes()/SystemBytes() at the sampled peak) are pinned, so a
// change to how device memory is backed cannot move a figure the three
// printed decimals of Fig. 9 would hide.
// ---------------------------------------------------------------------------

struct MemoryGoldenCase {
  std::string app;
  bool desktop = false;  ///< 2-GPU desktop; otherwise the 3-GPU node
  int gpus = 0;
  std::vector<std::size_t> device_peak_bytes;  ///< one per machine device
  std::size_t peak_user_bytes = 0;
  std::size_t peak_system_bytes = 0;
};

void PrintTo(const MemoryGoldenCase& c, std::ostream* os) {
  *os << c.app << (c.desktop ? "/desktop/" : "/node/") << c.gpus;
}

class MemoryAccountingGoldenTest
    : public ::testing::TestWithParam<MemoryGoldenCase> {};

TEST_P(MemoryAccountingGoldenTest, DevicePeaksAndUserSystemSplitMatchPinned) {
  const MemoryGoldenCase& expected = GetParam();
  auto platform = expected.desktop ? sim::MakeDesktopMachine(2)
                                   : sim::MakeSupercomputerNode(3);
  std::string sha256;
  const runtime::RunReport report =
      RunGoldenApp(platform.get(), expected.app, expected.gpus, &sha256);
  std::vector<std::size_t> peaks;
  for (int d = 0; d < platform->num_devices(); ++d) {
    peaks.push_back(platform->device(d).peak_used_bytes());
    // Every allocation and reservation is given back when the run ends.
    EXPECT_EQ(platform->device(d).used_bytes(), 0u) << "device " << d;
  }
  // On a mismatch, print the observed values in table form.
  std::ostringstream observed;
  observed << "{\"" << expected.app << "\", "
           << (expected.desktop ? "true" : "false") << ", " << expected.gpus
           << ", {";
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    observed << (i == 0 ? "" : ", ") << peaks[i];
  }
  observed << "}, " << report.peak_user_bytes << ", "
           << report.peak_system_bytes << "},";
  EXPECT_EQ(peaks, expected.device_peak_bytes) << observed.str();
  EXPECT_EQ(report.peak_user_bytes, expected.peak_user_bytes)
      << observed.str();
  EXPECT_EQ(report.peak_system_bytes, expected.peak_system_bytes)
      << observed.str();
}

const std::vector<MemoryGoldenCase>& MemoryGoldenCases() {
  static const std::vector<MemoryGoldenCase> cases = {
      // Captured while every device buffer, the accounting-only staging and
      // write-miss buffers included, was a zero-filled host allocation.
      {"md", false, 1, {73728, 0, 0}, 73728, 0},
      {"md", false, 2, {43008, 43008, 0}, 86016, 0},
      {"md", false, 3, {32748, 32748, 32808}, 98304, 0},
      {"md", true, 1, {73728, 0}, 73728, 0},
      {"md", true, 2, {43008, 43008}, 86016, 0},
      {"kmeans", false, 1, {42208, 0, 0}, 42208, 0},
      {"kmeans", false, 2, {21208, 21208, 0}, 42416, 0},
      {"kmeans", false, 3, {14208, 14208, 14208}, 42624, 0},
      {"kmeans", true, 1, {42208, 0}, 42208, 0},
      {"kmeans", true, 2, {21208, 21208}, 42416, 0},
      {"heat2d", false, 1, {7680, 0, 0}, 7680, 0},
      {"heat2d", false, 2, {3920, 3920, 0}, 7840, 0},
      {"heat2d", false, 3, {2640, 2720, 2640}, 8000, 0},
      {"heat2d", true, 1, {7680, 0}, 7680, 0},
      {"heat2d", true, 2, {3920, 3920}, 7840, 0},
      {"lattice", false, 1, {7680, 0, 0}, 7680, 0},
      {"lattice", false, 2, {3920, 3920, 0}, 7840, 0},
      {"lattice", false, 3, {2640, 2720, 2640}, 8000, 0},
      {"lattice", true, 1, {7680, 0}, 7680, 0},
      {"lattice", true, 2, {3920, 3920}, 7840, 0},
      {"spmv", false, 1, {96000, 0, 0}, 96000, 0},
      {"spmv", false, 2, {50400, 50400, 0}, 100800, 0},
      {"spmv", false, 3, {35200, 35200, 35200}, 105600, 0},
      {"spmv", true, 1, {96000, 0}, 96000, 0},
      {"spmv", true, 2, {50400, 50400}, 100800, 0},
      {"bfs", false, 1, {61511, 0, 0}, 60008, 1503},
      {"bfs", false, 2, {42016, 42016, 0}, 66016, 18016},
      {"bfs", false, 3, {40521, 40521, 40521}, 72024, 49539},
      {"bfs", true, 1, {61511, 0}, 60008, 1503},
      {"bfs", true, 2, {42016, 42016}, 66016, 18016},
      {"scatter", false, 1, {4230304, 0, 0}, 36000, 4194304},
      {"scatter", false, 2, {4218304, 4218304, 0}, 48000, 8388608},
      {"scatter", false, 3, {4214304, 4214304, 4214304}, 60000, 12582912},
      {"scatter", true, 1, {4230304, 0}, 36000, 4194304},
      {"scatter", true, 2, {4218304, 4218304}, 48000, 8388608},
  };
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, MemoryAccountingGoldenTest, ::testing::ValuesIn(MemoryGoldenCases()),
    [](const ::testing::TestParamInfo<MemoryGoldenCase>& info) {
      return info.param.app + (info.param.desktop ? "_desktop_" : "_node_") +
             std::to_string(info.param.gpus) + "gpu";
    });

}  // namespace
}  // namespace accmg
