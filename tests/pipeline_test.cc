// End-to-end pipeline tests: OpenACC source -> translator -> multi-GPU
// execution, checked against native host references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg {
namespace {

using runtime::AccProgram;
using runtime::ProgramRunner;
using runtime::RunConfig;
using runtime::RunReport;

constexpr char kSaxpySource[] = R"(
void saxpy(int n, float a, float* x, float* y) {
  #pragma acc data copyin(x[0:n]) copy(y[0:n])
  {
    #pragma acc localaccess(x: stride(1)) (y: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      y[i] = a * x[i] + y[i];
    }
  }
}
)";

constexpr int kN = 4096;

class SaxpyTest : public ::testing::TestWithParam<int> {};

TEST_P(SaxpyTest, MatchesReferenceOnNGpus) {
  const int num_gpus = GetParam();
  auto platform = sim::MakeSupercomputerNode(3);
  AccProgram program = AccProgram::FromSource("saxpy", kSaxpySource);

  std::vector<float> x(kN), y(kN), expected(kN);
  for (int i = 0; i < kN; ++i) {
    x[i] = 0.5f * static_cast<float>(i);
    y[i] = 2.0f - 0.001f * static_cast<float>(i);
    expected[i] = 1.5f * x[i] + y[i];
  }

  ProgramRunner runner(program,
                       RunConfig{.platform = platform.get(),
                                 .num_gpus = num_gpus});
  runner.BindArray("x", x.data(), ir::ValType::kF32, kN);
  runner.BindArray("y", y.data(), ir::ValType::kF32, kN);
  runner.BindScalar("n", static_cast<std::int64_t>(kN));
  runner.BindScalarF32("a", 1.5f);
  const RunReport report = runner.Run("saxpy");

  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(y[i], expected[i]) << "at index " << i;
  }
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GT(report.counters.h2d_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, SaxpyTest, ::testing::Values(1, 2, 3));

TEST(PipelineTest, CpuBaselineMatchesReference) {
  auto platform = sim::MakeDesktopMachine(2);
  AccProgram program = AccProgram::FromSource("saxpy", kSaxpySource);

  std::vector<float> x(kN), y(kN), expected(kN);
  for (int i = 0; i < kN; ++i) {
    x[i] = 0.25f * static_cast<float>(i);
    y[i] = 1.0f;
    expected[i] = 3.0f * x[i] + y[i];
  }
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .use_cpu = true});
  runner.BindArray("x", x.data(), ir::ValType::kF32, kN);
  runner.BindArray("y", y.data(), ir::ValType::kF32, kN);
  runner.BindScalar("n", static_cast<std::int64_t>(kN));
  runner.BindScalarF32("a", 3.0f);
  const RunReport report = runner.Run("saxpy");
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(y[i], expected[i]) << "at index " << i;
  }
  EXPECT_GT(report.time[sim::TimeCategory::kHostCompute], 0.0);
}

TEST(PipelineTest, ScalarReduction) {
  constexpr char kSource[] = R"(
void dotprod(int n, double* x, double* y, double result) {
  double sum = 0.0;
  #pragma acc parallel loop reduction(+:sum) copyin(x[0:n], y[0:n])
  for (int i = 0; i < n; i++) {
    sum += x[i] * y[i];
  }
  result = sum;
}
)";
  auto platform = sim::MakeDesktopMachine(2);
  AccProgram program = AccProgram::FromSource("dotprod", kSource);

  std::vector<double> x(1000), y(1000);
  double expected = 0;
  for (int i = 0; i < 1000; ++i) {
    x[i] = i * 0.5;
    y[i] = 1.0 / (i + 1);
    expected += x[i] * y[i];
  }
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 2});
  runner.BindArray("x", x.data(), ir::ValType::kF64, 1000);
  runner.BindArray("y", y.data(), ir::ValType::kF64, 1000);
  runner.BindScalar("n", static_cast<std::int64_t>(1000));
  runner.BindScalar("result", 0.0);
  runner.Run("dotprod");
  EXPECT_NEAR(runner.ScalarAfterRun("result").AsDouble(), expected,
              1e-9 * std::fabs(expected));
}

TEST(PipelineTest, ReductionToArrayHistogram) {
  constexpr char kSource[] = R"(
void histogram(int n, int k, int* keys, int* hist) {
  #pragma acc data copyin(keys[0:n]) copy(hist[0:k])
  {
    #pragma acc localaccess(keys: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      int bucket = keys[i] % k;
      #pragma acc reductiontoarray(+: hist[0:k])
      hist[bucket] += 1;
    }
  }
}
)";
  auto platform = sim::MakeSupercomputerNode(3);
  AccProgram program = AccProgram::FromSource("histogram", kSource);

  constexpr int n = 10000, k = 17;
  std::vector<std::int32_t> keys(n), hist(k, 5), expected(k, 5);
  for (int i = 0; i < n; ++i) {
    keys[i] = (i * 2654435761u) % 1000003;
    expected[keys[i] % k] += 1;
  }
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 3});
  runner.BindArray("keys", keys.data(), ir::ValType::kI32, n);
  runner.BindArray("hist", hist.data(), ir::ValType::kI32, k);
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  runner.BindScalar("k", static_cast<std::int64_t>(k));
  runner.Run("histogram");
  for (int b = 0; b < k; ++b) {
    EXPECT_EQ(hist[b], expected[b]) << "bucket " << b;
  }
}

TEST(PipelineTest, ReductionToArraySectionOutsideArrayIsRejected) {
  // hist[0:m] reaches past the k elements bound to hist. The multi-GPU
  // executor, the validator and the CPU baseline resolve launch values
  // through one resolver, so each refuses the section before running.
  constexpr char kSource[] = R"(
void h(int n, int k, int m, int* keys, int* hist) {
  #pragma acc data copyin(keys[0:n]) copy(hist[0:k])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      int bucket = keys[i] % k;
      #pragma acc reductiontoarray(+: hist[0:m])
      hist[bucket] += 1;
    }
  }
}
)";
  AccProgram program = AccProgram::FromSource("h", kSource);
  constexpr int n = 64, k = 4;
  for (const char* mode : {"gpu", "validate", "cpu"}) {
    SCOPED_TRACE(mode);
    auto platform = sim::MakeDesktopMachine(2);
    RunConfig config{.platform = platform.get(), .num_gpus = 2};
    config.use_cpu = std::string(mode) == "cpu";
    config.options.validate = std::string(mode) == "validate";
    std::vector<std::int32_t> keys(n, 1), hist(k, 0);
    ProgramRunner runner(program, config);
    runner.BindArray("keys", keys.data(), ir::ValType::kI32, n);
    runner.BindArray("hist", hist.data(), ir::ValType::kI32, k);
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    runner.BindScalar("k", static_cast<std::int64_t>(k));
    runner.BindScalar("m", static_cast<std::int64_t>(k + 1));
    try {
      runner.Run("h");
      ADD_FAILURE() << "out-of-range reductiontoarray section was accepted";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("reductiontoarray section outside array 'hist'"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(hist, std::vector<std::int32_t>(k, 0));
  }
}

TEST(PipelineTest, IrregularScatterWritesThroughMissBuffer) {
  // Writes land at a permuted position: with localaccess on the destination
  // the translator cannot prove locality, so the write-miss machinery must
  // deliver remote elements.
  constexpr char kSource[] = R"(
void scatter(int n, int* perm, int* src, int* dst) {
  #pragma acc data copyin(perm[0:n], src[0:n]) copy(dst[0:n])
  {
    #pragma acc localaccess(src: stride(1)) (dst: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      dst[perm[i]] = src[i] * 3;
    }
  }
}
)";
  auto platform = sim::MakeDesktopMachine(2);
  AccProgram program = AccProgram::FromSource("scatter", kSource);

  constexpr int n = 5000;
  std::vector<std::int32_t> perm(n), src(n), dst(n, -1), expected(n);
  for (int i = 0; i < n; ++i) {
    perm[i] = (i * 7919) % n;  // 7919 coprime with 5000? gcd(7919,5000)=1
    src[i] = i;
  }
  // perm might not be a bijection if gcd != 1; compute reference faithfully.
  for (int i = 0; i < n; ++i) expected[static_cast<std::size_t>(perm[i])] = -1;
  for (int i = 0; i < n; ++i) {
    expected[static_cast<std::size_t>(perm[i])] = src[i] * 3;
  }
  for (int i = 0; i < n; ++i) {
    if (expected[i] == 0 && dst[i] == -1) continue;
  }
  std::vector<std::int32_t> reference(n, -1);
  for (int i = 0; i < n; ++i) {
    reference[static_cast<std::size_t>(perm[i])] = src[i] * 3;
  }

  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 2});
  runner.BindArray("perm", perm.data(), ir::ValType::kI32, n);
  runner.BindArray("src", src.data(), ir::ValType::kI32, n);
  runner.BindArray("dst", dst.data(), ir::ValType::kI32, n);
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  const RunReport report = runner.Run("scatter");
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(dst[i], reference[i]) << "at index " << i;
  }
  // With 2 GPUs, roughly half the writes miss.
  EXPECT_GT(report.comm.miss_records_replayed, 0u);
}

TEST(PipelineTest, ReplicatedWritePropagationAcrossKernels) {
  // Two-array Jacobi with both arrays replicated (no localaccess): after the
  // first kernel each GPU has written only its partition of `out`, and the
  // copy-back kernel plus the next iteration's neighbour reads only work if
  // the dirty-bit propagation made the replicas coherent between kernels.
  constexpr char kSource[] = R"(
void jacobi(int n, int iters, double* in, double* out) {
  #pragma acc data copy(in[0:n]) create(out[0:n])
  {
    for (int t = 0; t < iters; t++) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        int left = i - 1;
        int right = i + 1;
        if (left < 0) { left = 0; }
        if (right >= n) { right = n - 1; }
        out[i] = 0.25 * in[left] + 0.5 * in[i] + 0.25 * in[right];
      }
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        in[i] = out[i];
      }
    }
  }
}
)";
  constexpr int n = 512, iters = 4;
  auto reference = [&] {
    std::vector<double> v(n), tmp(n);
    for (int i = 0; i < n; ++i) v[i] = (i % 13) * 1.0;
    for (int t = 0; t < iters; ++t) {
      for (int i = 0; i < n; ++i) {
        const int l = std::max(0, i - 1);
        const int r = std::min(n - 1, i + 1);
        tmp[i] = 0.25 * v[l] + 0.5 * v[i] + 0.25 * v[r];
      }
      v = tmp;
    }
    return v;
  }();

  for (int gpus : {1, 2, 3}) {
    auto platform = sim::MakeSupercomputerNode(3);
    AccProgram program = AccProgram::FromSource("jacobi", kSource);
    std::vector<double> in(n), out(n, 0.0);
    for (int i = 0; i < n; ++i) in[i] = (i % 13) * 1.0;
    ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                            .num_gpus = gpus});
    runner.BindArray("in", in.data(), ir::ValType::kF64, n);
    runner.BindArray("out", out.data(), ir::ValType::kF64, n);
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    runner.BindScalar("iters", static_cast<std::int64_t>(iters));
    runner.Run("jacobi");
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(in[i], reference[i]) << "gpus=" << gpus << " index " << i;
    }
  }
}

}  // namespace
}  // namespace accmg
