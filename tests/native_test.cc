// Differential tests of the native kernel tier against the interpreter.
//
// Every app runs on 1/2/4 GPUs with the process tier forced off and forced
// on (kEager: each kernel is compiled before its first chunk), and the two
// runs must agree bit for bit in outputs, KernelStats, PlatformCounters and
// the simulated TimeBreakdown. A randomized IR sweep in the style of
// property_test does the same for kernels built op by op, every engine
// fault must give the same DeviceError text on both tiers, and the tier's
// fallback and shutdown paths are checked on their own instances.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/heat2d/heat2d.h"
#include "apps/kmeans/kmeans.h"
#include "apps/lattice/lattice.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "common/error.h"
#include "common/rng.h"
#include "ir/builder.h"
#include "ir/exec.h"
#include "ir/native_tier.h"
#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg {
namespace {

using ir::NativeTier;

/// Sets the process tier's mode for one scope.
class TierMode {
 public:
  explicit TierMode(NativeTier::Mode mode) {
    NativeTier::Process().SetModeForTesting(mode);
  }
  ~TierMode() {
    NativeTier::Process().SetModeForTesting(NativeTier::Mode::kTiered);
  }
};

template <typename T>
std::vector<std::uint8_t> Bytes(const std::vector<T>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(T));
  if (!values.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

struct AppRun {
  std::vector<std::uint8_t> output;
  runtime::RunReport report;
};

AppRun RunApp(const std::string& app, int gpus) {
  auto platform = sim::MakeSupercomputerNode(4);
  AppRun run;
  if (app == "md") {
    std::vector<float> force;
    run.report = apps::RunMdAcc(apps::MakeMdInput(1024, 12), *platform, gpus,
                                &force);
    run.output = Bytes(force);
  } else if (app == "kmeans") {
    apps::KmeansResult result;
    run.report = apps::RunKmeansAcc(apps::MakeKmeansInput(1500, 6, 4, 3),
                                    *platform, gpus, &result);
    run.output = Bytes(result.centroids);
    const auto membership = Bytes(result.membership);
    run.output.insert(run.output.end(), membership.begin(), membership.end());
  } else if (app == "heat2d") {
    std::vector<float> u;
    run.report = apps::RunHeat2dAcc(apps::MakeHeat2dInput(48, 20, 4),
                                    *platform, gpus, &u);
    run.output = Bytes(u);
  } else if (app == "lattice") {
    std::vector<float> phi;
    run.report = apps::RunLatticeAcc(apps::MakeLatticeInput(48, 20, 4),
                                     *platform, gpus, &phi);
    run.output = Bytes(phi);
  } else if (app == "spmv") {
    std::vector<float> y;
    run.report = apps::RunSpmvAcc(apps::MakeSpmvInput(1200, 9), *platform,
                                  gpus, &y);
    run.output = Bytes(y);
  } else if (app == "bfs") {
    std::vector<std::int32_t> cost;
    run.report = apps::RunBfsAcc(apps::MakeBfsInput(1500, 8), *platform, gpus,
                                 &cost);
    run.output = Bytes(cost);
  } else {
    ADD_FAILURE() << "unknown app " << app;
  }
  return run;
}

class NativeAppTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(NativeAppTest, BothTiersAgreeBitForBit) {
  const auto& [app, gpus] = GetParam();
  AppRun interpreted;
  {
    TierMode off(NativeTier::Mode::kOff);
    interpreted = RunApp(app, gpus);
  }
  AppRun native;
  {
    TierMode eager(NativeTier::Mode::kEager);
    native = RunApp(app, gpus);
  }
  EXPECT_EQ(native.output, interpreted.output);
  const runtime::RunReport& a = interpreted.report;
  const runtime::RunReport& b = native.report;
  EXPECT_EQ(b.counters, a.counters);
  EXPECT_EQ(b.kernel_executions, a.kernel_executions);
  // bfs reads what concurrent chunks write (benign races, as in SHOC's
  // BFS), so its instruction counts and sim time differ between two
  // interpreted runs too; only its output and transfers are pinned.
  if (app == "bfs") return;
  ASSERT_EQ(a.kernel_stats.size(), b.kernel_stats.size());
  for (const auto& [name, stats] : a.kernel_stats) {
    const sim::KernelStats& other = b.kernel_stats.at(name);
    EXPECT_EQ(other.instructions, stats.instructions) << name;
    EXPECT_EQ(other.bytes_read, stats.bytes_read) << name;
    EXPECT_EQ(other.bytes_written, stats.bytes_written) << name;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.total_seconds),
            std::bit_cast<std::uint64_t>(a.total_seconds));
  for (std::size_t c = 0; c < a.time.seconds.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.time.seconds[c]),
              std::bit_cast<std::uint64_t>(a.time.seconds[c]))
        << "time category " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, NativeAppTest,
    ::testing::Combine(::testing::Values("md", "kmeans", "heat2d", "lattice",
                                         "spmv", "bfs"),
                       ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "gpu";
    });

// ---------------------------------------------------------------------------
// Kernel-level harness
// ---------------------------------------------------------------------------

constexpr std::int64_t kArraySize = 64;

/// Everything one run of a kernel produces.
struct KernelResult {
  std::string error;  ///< DeviceError text, or "" on success
  sim::KernelStats stats;
  std::vector<float> f32;
  std::vector<std::int32_t> i32;
  std::vector<double> f64;
  std::vector<std::int64_t> i64;
  std::vector<float> f32_in;
  std::vector<std::int32_t> i32_out;
  std::vector<std::uint8_t> level1;
  std::vector<std::uint8_t> level2;
  std::vector<ir::WriteMissRecord> misses;
  std::vector<std::uint64_t> scalar_red;
  std::vector<std::vector<std::uint64_t>> array_red;
};

/// Float bits with every NaN alike: which NaN an op on two NaNs propagates
/// depends on the operand order the compiler picks, so neither tier pins it.
std::uint64_t Canonical(double v) {
  return std::isnan(v) ? 0x7ff8000000000000ull : std::bit_cast<std::uint64_t>(v);
}

void ExpectSameResult(const KernelResult& a, const KernelResult& b) {
  EXPECT_EQ(a.error, b.error);
  if (!a.error.empty() || !b.error.empty()) return;
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.bytes_read, b.stats.bytes_read);
  EXPECT_EQ(a.stats.bytes_written, b.stats.bytes_written);
  for (std::size_t i = 0; i < a.f32.size(); ++i) {
    EXPECT_EQ(Canonical(a.f32[i]), Canonical(b.f32[i])) << "f32[" << i << "]";
    EXPECT_EQ(Canonical(a.f64[i]), Canonical(b.f64[i])) << "f64[" << i << "]";
  }
  EXPECT_EQ(a.i32, b.i32);
  EXPECT_EQ(a.i64, b.i64);
  EXPECT_EQ(a.i32_out, b.i32_out);
  EXPECT_EQ(a.level1, b.level1);
  EXPECT_EQ(a.level2, b.level2);
  ASSERT_EQ(a.misses.size(), b.misses.size());
  for (std::size_t i = 0; i < a.misses.size(); ++i) {
    EXPECT_EQ(a.misses[i].index, b.misses[i].index);
    EXPECT_EQ(Canonical(std::bit_cast<float>(
                  static_cast<std::uint32_t>(a.misses[i].raw))),
              Canonical(std::bit_cast<float>(
                  static_cast<std::uint32_t>(b.misses[i].raw))));
  }
  ASSERT_EQ(a.scalar_red.size(), b.scalar_red.size());
  for (std::size_t i = 0; i < a.scalar_red.size(); ++i) {
    // Slot 0 is the f64 sum; the others are integer or exact.
    if (i == 0) {
      EXPECT_EQ(Canonical(std::bit_cast<double>(a.scalar_red[i])),
                Canonical(std::bit_cast<double>(b.scalar_red[i])));
    } else {
      EXPECT_EQ(a.scalar_red[i], b.scalar_red[i]) << "scalar reduction " << i;
    }
  }
  EXPECT_EQ(a.array_red, b.array_red);
}

/// Array 0 (f32) is resident on [8, 56) and owns [16, 48) with a miss
/// buffer; array 1 (i32) is resident and owned on [0, 64); array 2 (f64)
/// is dirty-tracked on [0, 48); array 3 (i64) owns [0, 32) without a miss
/// buffer; arrays 4 (f32) and 5 (i32) are resident and owned on [0, 64).
/// Threads [0, 23) and [23, 40) run as two chunks.
KernelResult RunKernel(const ir::DecodedKernel& decoded,
                       const ir::KernelIR& kernel) {
  KernelResult result;
  result.f32.assign(kArraySize, 0.0f);
  result.i32.assign(kArraySize, 0);
  result.f64.assign(kArraySize, 0.0);
  result.i64.assign(kArraySize, 0);
  result.f32_in.assign(kArraySize, 0.0f);
  result.i32_out.assign(kArraySize, 0);
  for (std::int64_t i = 0; i < kArraySize; ++i) {
    const auto u = static_cast<std::size_t>(i);
    result.f32[u] = static_cast<float>(i) * 0.75f - 3.0f;
    result.i32[u] = static_cast<std::int32_t>(i * 7 - 100);
    result.f64[u] = static_cast<double>(i) / 3.0;
    result.i64[u] = i * i - 9;
    result.f32_in[u] = 1.0f / static_cast<float>(i + 1);
    result.i32_out[u] = static_cast<std::int32_t>(-i);
  }
  result.level1.assign(48, 0);
  result.level2.assign(3, 0);
  ir::MissBuffer miss;

  ir::KernelExec exec(decoded);
  auto bind = [&](std::size_t a, void* data, std::int64_t lo, std::int64_t hi,
                  std::int64_t wlo, std::int64_t whi, std::size_t elem) {
    if (a >= exec.bindings.size()) return;
    ir::ArrayBinding& binding = exec.bindings[a];
    binding.data = static_cast<std::byte*>(data) + lo * static_cast<std::int64_t>(elem);
    binding.lo = lo;
    binding.hi = hi;
    binding.write_lo = wlo;
    binding.write_hi = whi;
    binding.logical_size = kArraySize;
  };
  bind(0, result.f32.data(), 8, 56, 16, 48, 4);
  bind(1, result.i32.data(), 0, 64, 0, 64, 4);
  bind(2, result.f64.data(), 0, 48, 0, 48, 8);
  bind(3, result.i64.data(), 0, 64, 0, 32, 8);
  bind(4, result.f32_in.data(), 0, 64, 0, 64, 4);
  bind(5, result.i32_out.data(), 0, 64, 0, 64, 4);
  if (exec.bindings.size() > 2) {
    exec.bindings[0].miss = &miss;
    exec.bindings[2].dirty.level1 = result.level1.data();
    exec.bindings[2].dirty.level2 = result.level2.data();
    exec.bindings[2].dirty.chunk_elems = 16;
  }
  for (std::size_t s = 0; s < kernel.scalars.size(); ++s) {
    exec.scalar_values[s] = ir::EncodeScalar(kernel.scalars[s].type, 2.5,
                                             static_cast<std::int64_t>(s) + 3);
  }
  for (std::size_t r = 0; r < kernel.array_reductions.size(); ++r) {
    exec.array_red_lower[r] = 4;
    exec.array_red_length[r] = 16;
  }
  exec.ResetOutputs();
  try {
    exec.Execute(0, 23, result.stats);
    exec.Execute(23, 40, result.stats);
  } catch (const DeviceError& error) {
    result.error = error.what();
  }
  result.misses = miss.records;
  result.scalar_red = exec.scalar_red_results();
  result.array_red = exec.array_red_partials();
  return result;
}

/// Runs `kernel` interpreted and native and expects the same result; the
/// native run must really be native.
void ExpectTiersAgree(const ir::KernelIR& kernel) {
  const ir::DecodedKernel decoded(kernel);
  KernelResult interpreted;
  {
    TierMode off(NativeTier::Mode::kOff);
    interpreted = RunKernel(decoded, kernel);
  }
  ASSERT_TRUE(NativeTier::Process().BuildNowForTesting(decoded))
      << ir::Print(kernel);
  KernelResult native;
  {
    TierMode eager(NativeTier::Mode::kEager);
    native = RunKernel(decoded, kernel);
  }
  SCOPED_TRACE(ir::Print(kernel));
  ExpectSameResult(interpreted, native);
}

// ---------------------------------------------------------------------------
// Randomized IR sweep
// ---------------------------------------------------------------------------

/// Random straight-line and looping kernels over every arithmetic op, the
/// fused pairs, every load/store element type, write misses, dirty marks
/// and both reduction kinds. Integer and float values live in separate
/// register pools, so float bits only reach integers through f2i. Loaded
/// and stored arrays are distinct: a kernel that reads what other threads
/// write stays interpreted.
ir::KernelIR RandomKernel(std::uint64_t seed) {
  Rng rng(seed * 6151 + 17);
  ir::KernelBuilder b("random" + std::to_string(seed));
  const int f32 = b.AddArray("f32", ir::ValType::kF32);
  const int i32 = b.AddArray("i32", ir::ValType::kI32);
  const int f64 = b.AddArray("f64", ir::ValType::kF64);
  const int i64 = b.AddArray("i64", ir::ValType::kI64);
  const int f32_in = b.AddArray("f32_in", ir::ValType::kF32);
  const int i32_out = b.AddArray("i32_out", ir::ValType::kI32);
  std::vector<int> ints{b.thread_id_reg(), b.AddScalar("k", ir::ValType::kI64)};
  std::vector<int> floats{b.AddScalar("s", ir::ValType::kF32)};
  const int sum = b.AddScalarReduction("sum", ir::RedOp::kAdd, ir::ValType::kF64);
  const int lo = b.AddScalarReduction("lo", ir::RedOp::kMin, ir::ValType::kI32);
  const int hi = b.AddScalarReduction("hi", ir::RedOp::kMax, ir::ValType::kF32);
  const int prod = b.AddScalarReduction("prod", ir::RedOp::kMul, ir::ValType::kI64);
  const int hist = b.AddArrayReduction(i32, ir::RedOp::kAdd, ir::ValType::kI32);

  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{7},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), std::int64_t{123456789}}) {
    if (rng.NextBounded(2) == 0) ints.push_back(b.ConstI(v));
  }
  ints.push_back(b.ConstI(rng.NextInt(-1000, 1000)));
  for (const double v : {0.0, -0.0, 0.1, 1.5, -2.75, 1e300, 3e9, -9.3e18,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    if (rng.NextBounded(2) == 0) floats.push_back(b.ConstF(v));
  }
  floats.push_back(b.ConstF(rng.NextDouble(-4, 4)));

  auto pick = [&](const std::vector<int>& pool) {
    return pool[static_cast<std::size_t>(rng.NextBounded(pool.size()))];
  };
  // An index in [base, base + 2^bits) from a random integer.
  auto index = [&](std::int64_t base, int bits) {
    const int masked =
        b.Binary(ir::Opcode::kAndI, pick(ints), b.ConstI((1 << bits) - 1));
    return b.Binary(ir::Opcode::kAddI, masked, b.ConstI(base));
  };
  using ir::Opcode;
  const Opcode int_ops[] = {
      Opcode::kAddI, Opcode::kSubI, Opcode::kMulI, Opcode::kDivI,
      Opcode::kModI, Opcode::kAndI, Opcode::kOrI,  Opcode::kXorI,
      Opcode::kShlI, Opcode::kShrI, Opcode::kMinI, Opcode::kMaxI,
      Opcode::kCmpLtI, Opcode::kCmpLeI, Opcode::kCmpEqI, Opcode::kCmpNeI};
  const Opcode int_unary[] = {Opcode::kNegI, Opcode::kNotI, Opcode::kAbsI,
                              Opcode::kTruncI32, Opcode::kMov};
  const Opcode float_ops[] = {Opcode::kAddF, Opcode::kSubF, Opcode::kMulF,
                              Opcode::kDivF, Opcode::kPowF, Opcode::kFminF,
                              Opcode::kFmaxF};
  const Opcode float_cmp[] = {Opcode::kCmpLtF, Opcode::kCmpLeF,
                              Opcode::kCmpEqF, Opcode::kCmpNeF};
  const Opcode float_unary[] = {Opcode::kNegF,   Opcode::kSqrtF,
                                Opcode::kFabsF,  Opcode::kExpF,
                                Opcode::kLogF,   Opcode::kFloorF,
                                Opcode::kCeilF,  Opcode::kRoundF32};

  auto emit_op = [&] {
    switch (rng.NextBounded(12)) {
      case 0:
      case 1: {
        const Opcode op = int_ops[rng.NextBounded(std::size(int_ops))];
        int rhs = pick(ints);
        if (op == Opcode::kDivI || op == Opcode::kModI) {
          rhs = b.Binary(Opcode::kOrI, rhs, b.ConstI(1));  // never zero
        }
        const int value = b.Binary(op, pick(ints), rhs);
        ints.push_back(rng.NextBounded(3) == 0
                           ? b.Unary(Opcode::kTruncI32, value)
                           : value);
        break;
      }
      case 2:
        ints.push_back(b.Unary(int_unary[rng.NextBounded(std::size(int_unary))],
                               pick(ints)));
        break;
      case 3:
      case 4: {
        const int value =
            b.Binary(float_ops[rng.NextBounded(std::size(float_ops))],
                     pick(floats), pick(floats));
        floats.push_back(rng.NextBounded(2) == 0
                             ? b.Unary(Opcode::kRoundF32, value)
                             : value);
        break;
      }
      case 5:
        floats.push_back(b.Unary(
            float_unary[rng.NextBounded(std::size(float_unary))],
            pick(floats)));
        break;
      case 6:
        ints.push_back(b.Binary(float_cmp[rng.NextBounded(std::size(float_cmp))],
                                pick(floats), pick(floats)));
        break;
      case 7:
        if (rng.NextBounded(2) == 0) {
          floats.push_back(b.Unary(Opcode::kI2F, pick(ints)));
        } else {
          ints.push_back(b.Unary(Opcode::kF2I, pick(floats)));
        }
        break;
      case 8:
        switch (rng.NextBounded(3)) {
          case 0: floats.push_back(b.Load(f32_in, index(0, 6))); break;
          case 1: ints.push_back(b.Load(i32, index(0, 6))); break;
          default: ints.push_back(b.Load(i64, index(0, 6))); break;
        }
        break;
      case 9:
        switch (rng.NextBounded(4)) {
          case 0: b.Store(f32, index(8, 5), pick(floats)); break;
          case 1: b.Store(i32_out, index(0, 6), pick(ints)); break;
          case 2: {
            const int at = index(0, 5);
            b.Store(f64, at, pick(floats));
            b.DirtyMark(f64, rng.NextBounded(2) == 0 ? at : index(40, 4));
            break;
          }
          default:
            b.Store(i32_out, b.thread_id_reg(), pick(ints));
            break;
        }
        break;
      case 10:
        switch (rng.NextBounded(5)) {
          case 0: b.RedScalar(sum, pick(floats)); break;
          case 1: b.RedScalar(lo, pick(ints)); break;
          case 2: b.RedScalar(hi, pick(floats)); break;
          case 3: b.RedScalar(prod, pick(ints)); break;
          default: b.RedArray(hist, index(4, 4), pick(ints)); break;
        }
        break;
      default: {
        // A forward branch over a few ops.
        const std::size_t br = rng.NextBounded(2) == 0
                                   ? b.BrIf(pick(ints))
                                   : b.BrIfNot(pick(ints));
        const std::size_t int_count = ints.size();
        const std::size_t float_count = floats.size();
        const int skipped = b.Binary(Opcode::kAddF, pick(floats), pick(floats));
        b.RedScalar(sum, b.Unary(Opcode::kRoundF32, skipped));
        b.PatchTarget(br, b.Here());
        // Registers written under the branch may be unset at the join.
        ints.resize(int_count);
        floats.resize(float_count);
        break;
      }
    }
  };

  // A counted loop with a data-dependent trip count around random ops.
  const int counter = b.NewReg();
  b.MovTo(counter, b.ConstI(0));
  const std::size_t head = b.Here();
  const int ops = 8 + static_cast<int>(rng.NextBounded(24));
  const std::size_t int_count = ints.size();
  const std::size_t float_count = floats.size();
  for (int i = 0; i < ops; ++i) emit_op();
  ints.resize(int_count);
  floats.resize(float_count);
  b.MovTo(counter, b.Binary(Opcode::kAddI, counter, b.ConstI(1)));
  const int trips = b.Binary(
      Opcode::kAddI, b.Binary(Opcode::kAndI, b.thread_id_reg(), b.ConstI(3)),
      b.ConstI(1));
  b.PatchTarget(b.BrIf(b.Binary(Opcode::kCmpLtI, counter, trips)), head);
  for (int i = 0; i < 6; ++i) emit_op();
  return b.Build();
}

class NativeRandomKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(NativeRandomKernelTest, BothTiersAgree) {
  ExpectTiersAgree(RandomKernel(static_cast<std::uint64_t>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeRandomKernelTest, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Faults: the same DeviceError text on both tiers
// ---------------------------------------------------------------------------

std::string FaultText(const ir::KernelIR& kernel, NativeTier::Mode mode) {
  const ir::DecodedKernel decoded(kernel);
  TierMode scope(mode);
  const KernelResult result = RunKernel(decoded, kernel);
  EXPECT_FALSE(result.error.empty()) << "no fault";
  return result.error;
}

void ExpectSameFault(const ir::KernelIR& kernel) {
  EXPECT_EQ(FaultText(kernel, NativeTier::Mode::kEager),
            FaultText(kernel, NativeTier::Mode::kOff));
}

/// RunKernel's six arrays.
ir::KernelBuilder FaultBuilder(const std::string& name) {
  ir::KernelBuilder b(name);
  b.AddArray("f32", ir::ValType::kF32);
  b.AddArray("i32", ir::ValType::kI32);
  b.AddArray("f64", ir::ValType::kF64);
  b.AddArray("i64", ir::ValType::kI64);
  b.AddArray("f32_in", ir::ValType::kF32);
  b.AddArray("i32_out", ir::ValType::kI32);
  return b;
}

TEST(NativeFaultTest, BudgetExceeded) {
  ir::KernelBuilder b = FaultBuilder("spin");
  b.PatchTarget(b.Br(), 0);
  ExpectSameFault(b.Build());
}

TEST(NativeFaultTest, DivisionAndModuloByZero) {
  for (const ir::Opcode op : {ir::Opcode::kDivI, ir::Opcode::kModI}) {
    ir::KernelBuilder b = FaultBuilder("div");
    // Thread 5 divides by zero, after earlier threads stored results.
    const int divisor = b.Binary(ir::Opcode::kSubI, b.thread_id_reg(), b.ConstI(5));
    b.Store(5, b.thread_id_reg(), b.Binary(op, b.ConstI(100), divisor));
    ExpectSameFault(b.Build());
  }
}

TEST(NativeFaultTest, NonResidentRead) {
  ir::KernelBuilder b = FaultBuilder("oob");
  b.Load(0, b.Binary(ir::Opcode::kAddI, b.thread_id_reg(), b.ConstI(30)));
  ExpectSameFault(b.Build());
}

TEST(NativeFaultTest, NonOwnedWriteWithoutMissBuffer) {
  ir::KernelBuilder b = FaultBuilder("wmiss");
  b.Store(3, b.thread_id_reg(), b.thread_id_reg());
  ExpectSameFault(b.Build());
}

TEST(NativeFaultTest, ReductionIndexOutsideSection) {
  ir::KernelBuilder b = FaultBuilder("hist");
  const int slot = b.AddArrayReduction(1, ir::RedOp::kAdd, ir::ValType::kI32);
  b.RedArray(slot, b.thread_id_reg(), b.ConstI(1));
  ExpectSameFault(b.Build());
}

// ---------------------------------------------------------------------------
// Fallback and lifecycle
// ---------------------------------------------------------------------------

ir::KernelIR SaxpyKernel() {
  ir::KernelBuilder b("saxpy");
  b.AddArray("f32", ir::ValType::kF32);
  b.AddArray("i32", ir::ValType::kI32);
  const int y = b.AddArray("f64", ir::ValType::kF64);
  b.AddArray("i64", ir::ValType::kI64);
  const int x = b.AddArray("f32_in", ir::ValType::kF32);
  const int a = b.AddScalar("a", ir::ValType::kF32);
  const int at = b.Binary(ir::Opcode::kAndI, b.thread_id_reg(), b.ConstI(31));
  const int xv = b.Load(x, b.Binary(ir::Opcode::kAddI, at, b.ConstI(16)));
  const int prod = b.Unary(ir::Opcode::kRoundF32,
                           b.Binary(ir::Opcode::kMulF, a, xv));
  b.Store(y, at, b.Binary(ir::Opcode::kAddF, prod, b.Load(x, at)));
  return b.Build();
}

TEST(NativeTierTest, MissingCompilerCountsOneFailureAndKeepsInterpreting) {
  const ir::KernelIR kernel = SaxpyKernel();
  KernelResult expected;
  {
    const ir::DecodedKernel decoded(kernel);
    TierMode off(NativeTier::Mode::kOff);
    expected = RunKernel(decoded, kernel);
  }
  NativeTier tier("/nonexistent/bin/c++", {});
  tier.SetModeForTesting(NativeTier::Mode::kEager);
  const ir::DecodedKernel decoded(kernel, tier);
  ExpectSameResult(expected, RunKernel(decoded, kernel));
  ExpectSameResult(expected, RunKernel(decoded, kernel));
  EXPECT_EQ(tier.build_failures(), 1u);  // never retried
  EXPECT_EQ(tier.builds(), 0u);
  EXPECT_EQ(decoded.native_slot()->fn.load(), nullptr);
}

TEST(NativeTierTest, HotKernelIsBuiltInTheBackground) {
  NativeTier tier(NativeTier::Process().compiler_for_testing(), {});
  const ir::KernelIR kernel = SaxpyKernel();
  const ir::DecodedKernel decoded(kernel, tier);
  const KernelResult first = RunKernel(decoded, kernel);
  EXPECT_EQ(decoded.native_slot()->state.load(), ir::NativeSlot::kCold);
  // Pretend the kernel has run long enough to be hot.
  decoded.native_slot()->executed.store(decoded.native_slot()->hot_at - 1);
  RunKernel(decoded, kernel);
  tier.WaitIdleForTesting();
  EXPECT_EQ(tier.builds(), 1u);
  ASSERT_NE(decoded.native_slot()->fn.load(), nullptr);
  ExpectSameResult(first, RunKernel(decoded, kernel));
}

// bfs reads cost[nb] while other threads write it: only the interpreter
// runs such a kernel, so its counts keep the interpreter's race pattern.
TEST(NativeTierTest, KernelThatReadsOtherThreadsWritesStaysInterpreted) {
  ir::KernelBuilder racy = FaultBuilder("racy");
  const int neighbour =
      racy.Binary(ir::Opcode::kAddI, racy.thread_id_reg(), racy.ConstI(1));
  racy.Store(1, neighbour, racy.Load(1, racy.thread_id_reg()));
  const ir::KernelIR kernel = racy.Build();
  const ir::DecodedKernel decoded(kernel);
  EXPECT_EQ(decoded.native_slot(), nullptr);
  EXPECT_FALSE(NativeTier::Process().BuildNowForTesting(decoded));

  ir::KernelBuilder own = FaultBuilder("own");
  own.Store(1, own.thread_id_reg(), own.Load(1, own.thread_id_reg()));
  const ir::KernelIR own_kernel = own.Build();
  EXPECT_NE(ir::DecodedKernel(own_kernel).native_slot(), nullptr);
}

bool NoChildLeft() {
  errno = 0;
  return waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(NativeTierTest, ShutdownKillsARunningBuildAndRemovesItsFiles) {
  // A "compiler" that never finishes on its own.
  const std::filesystem::path script =
      std::filesystem::temp_directory_path() /
      ("accmg-slow-cxx-" + std::to_string(getpid()));
  {
    std::ofstream file(script);
    file << "#!/bin/sh\nexec sleep 60\n";
  }
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);

  std::string dir;
  const auto started = std::chrono::steady_clock::now();
  {
    NativeTier tier(script.string(), {});
    const ir::KernelIR kernel = SaxpyKernel();
    const ir::DecodedKernel decoded(kernel, tier);
    tier.EnqueueForTesting(decoded);
    while (dir.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      dir = tier.temp_dir_for_testing();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(NoChildLeft());  // the build is in flight
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(30));
  EXPECT_TRUE(NoChildLeft());
  EXPECT_FALSE(std::filesystem::exists(dir)) << dir;
  std::filesystem::remove(script);
}

}  // namespace
}  // namespace accmg
