// Property-based tests: randomized programs and workloads exercised across
// every backend and GPU count, checked against native references.
//
// Invariants covered (DESIGN.md Section 5):
//  * translator correctness: random affine element-wise programs produce the
//    host-evaluated result on any GPU count and on the CPU baseline;
//  * write-miss replay: random scatter destinations converge to the serial
//    result regardless of placement policy;
//  * reductions: random (index, value) streams fold to the serial result;
//  * halo exchange: random stencil windows match single-GPU execution;
//  * coherence: replicas are byte-identical after communication.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg {
namespace {

using runtime::AccProgram;
using runtime::ProgramRunner;
using runtime::RunConfig;

// ---------------------------------------------------------------------------
// Random element-wise programs
// ---------------------------------------------------------------------------

/// Generates a random arithmetic expression over `i`, the scalar `s`, and
/// i-indexed reads of input arrays a/b. Division is avoided entirely so any
/// input is safe; all arithmetic is int32.
std::string RandomIntExpr(Rng& rng, int depth) {
  if (depth == 0) {
    switch (rng.NextBounded(5)) {
      case 0: return "i";
      case 1: return "s";
      case 2: return "a[i]";
      case 3: return "b[i]";
      default: return std::to_string(rng.NextInt(-9, 9));
    }
  }
  const std::string lhs = RandomIntExpr(rng, depth - 1);
  const std::string rhs = RandomIntExpr(rng, depth - 1);
  switch (rng.NextBounded(6)) {
    case 0: return "(" + lhs + " + " + rhs + ")";
    case 1: return "(" + lhs + " - " + rhs + ")";
    case 2: return "(" + lhs + " * " + rhs + ")";
    case 3: return "(" + lhs + " < " + rhs + " ? " + lhs + " : " + rhs + ")";
    case 4: return "min(" + lhs + ", " + rhs + ")";
    default: return "(" + lhs + " ^ " + rhs + ")";
  }
}

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, AllBackendsMatchHostEvaluation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::string expr = RandomIntExpr(rng, 3);
  const std::string source = R"(
void f(int n, int s, int* a, int* b, int* out) {
  #pragma acc data copyin(a[0:n], b[0:n]) copyout(out[0:n])
  {
    #pragma acc localaccess(a: stride(1)) (b: stride(1)) (out: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      out[i] = )" + expr + R"(;
    }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("rand", source);

  constexpr int n = 777;  // deliberately not divisible by 2 or 3
  std::vector<std::int32_t> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = static_cast<std::int32_t>(rng.NextInt(-100, 100));
    b[i] = static_cast<std::int32_t>(rng.NextInt(-100, 100));
  }
  const std::int64_t s = rng.NextInt(-5, 5);

  std::vector<std::int32_t> reference;
  for (const auto& [gpus, cpu] :
       {std::pair{1, true}, std::pair{1, false}, std::pair{2, false},
        std::pair{3, false}}) {
    auto platform = sim::MakeSupercomputerNode(3);
    std::vector<std::int32_t> out(n, -1);
    ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                            .num_gpus = gpus,
                                            .use_cpu = cpu});
    runner.BindArray("a", a.data(), ir::ValType::kI32, n);
    runner.BindArray("b", b.data(), ir::ValType::kI32, n);
    runner.BindArray("out", out.data(), ir::ValType::kI32, n);
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    runner.BindScalar("s", s);
    runner.Run("f");
    if (reference.empty()) {
      reference = out;
    } else {
      ASSERT_EQ(out, reference)
          << "backend gpus=" << gpus << " cpu=" << cpu << "\nexpr: " << expr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Random scatter: replica+dirty-bits vs distributed+miss-replay
// ---------------------------------------------------------------------------

class RandomScatterTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomScatterTest, BothPoliciesConvergeToSerialResult) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  constexpr int n = 2000;
  std::vector<std::int32_t> perm(n), src(n);
  for (int i = 0; i < n; ++i) {
    perm[i] = static_cast<std::int32_t>(rng.NextBounded(n));
    src[i] = static_cast<std::int32_t>(rng.NextInt(0, 1 << 20));
  }
  // Make perm a bijection so overlapping writes cannot race: shuffle the
  // identity permutation (Fisher-Yates).
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        rng.NextBounded(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[i], perm[j]);
  }

  std::vector<std::int32_t> reference(n);
  for (int i = 0; i < n; ++i) reference[perm[i]] = src[i] * 7 - 3;

  const std::string with_localaccess = R"(
void f(int n, int* perm, int* src, int* dst) {
  #pragma acc data copyin(perm[0:n], src[0:n]) copyout(dst[0:n])
  {
    #pragma acc localaccess(perm: stride(1)) (src: stride(1)) (dst: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      dst[perm[i]] = src[i] * 7 - 3;
    }
  }
}
)";
  const std::string without_localaccess = R"(
void f(int n, int* perm, int* src, int* dst) {
  #pragma acc data copyin(perm[0:n], src[0:n]) copy(dst[0:n])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      dst[perm[i]] = src[i] * 7 - 3;
    }
  }
}
)";
  for (const std::string& source : {with_localaccess, without_localaccess}) {
    const AccProgram program = AccProgram::FromSource("scatter", source);
    for (int gpus : {1, 2, 3}) {
      auto platform = sim::MakeSupercomputerNode(3);
      std::vector<std::int32_t> dst(n, 0);
      ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                              .num_gpus = gpus});
      runner.BindArray("perm", perm.data(), ir::ValType::kI32, n);
      runner.BindArray("src", src.data(), ir::ValType::kI32, n);
      runner.BindArray("dst", dst.data(), ir::ValType::kI32, n);
      runner.BindScalar("n", static_cast<std::int64_t>(n));
      runner.Run("f");
      ASSERT_EQ(dst, reference) << "gpus=" << gpus;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScatterTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Random reductions
// ---------------------------------------------------------------------------

struct ReductionCase {
  int seed;
  const char* op;  // "+", "min", "max"
};

// Names each case by its contents, so test names do not depend on the
// address of the string literal.
void PrintTo(const ReductionCase& c, std::ostream* os) {
  *os << "seed " << c.seed << " op " << c.op;
}

class RandomReductionTest
    : public ::testing::TestWithParam<ReductionCase> {};

TEST_P(RandomReductionTest, MatchesSerialFold) {
  const auto& [seed, op] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31337 + 11);
  constexpr int n = 3000, k = 13;
  std::vector<std::int32_t> keys(n), vals(n);
  for (int i = 0; i < n; ++i) {
    keys[i] = static_cast<std::int32_t>(rng.NextBounded(k));
    vals[i] = static_cast<std::int32_t>(rng.NextInt(-1000, 1000));
  }
  const std::string op_str = op;
  std::vector<std::int32_t> initial(k);
  for (int c = 0; c < k; ++c) {
    initial[c] = static_cast<std::int32_t>(rng.NextInt(-50, 50));
  }
  std::vector<std::int32_t> reference = initial;
  for (int i = 0; i < n; ++i) {
    auto& cell = reference[static_cast<std::size_t>(keys[i])];
    if (op_str == "+") cell += vals[i];
    if (op_str == "min") cell = std::min(cell, vals[i]);
    if (op_str == "max") cell = std::max(cell, vals[i]);
  }

  std::string statement;
  if (op_str == "+") {
    statement = "acc[c] += vals[i];";
  } else if (op_str == "min") {
    statement = "acc[c] = min(acc[c], vals[i]);";
  } else {
    statement = "acc[c] = max(acc[c], vals[i]);";
  }
  const std::string source = R"(
void f(int n, int k, int* keys, int* vals, int* acc) {
  #pragma acc data copyin(keys[0:n], vals[0:n]) copy(acc[0:k])
  {
    #pragma acc localaccess(keys: stride(1)) (vals: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      int c = keys[i];
      #pragma acc reductiontoarray()" + op_str + R"(: acc[0:k])
      )" + statement + R"(
    }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("red", source);
  for (int gpus : {1, 2, 3}) {
    auto platform = sim::MakeSupercomputerNode(3);
    std::vector<std::int32_t> acc = initial;
    ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                            .num_gpus = gpus});
    runner.BindArray("keys", keys.data(), ir::ValType::kI32, n);
    runner.BindArray("vals", vals.data(), ir::ValType::kI32, n);
    runner.BindArray("acc", acc.data(), ir::ValType::kI32, k);
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    runner.BindScalar("k", static_cast<std::int64_t>(k));
    runner.Run("f");
    ASSERT_EQ(acc, reference) << "op=" << op_str << " gpus=" << gpus;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RandomReductionTest,
    ::testing::Values(ReductionCase{0, "+"}, ReductionCase{1, "+"},
                      ReductionCase{2, "+"}, ReductionCase{0, "min"},
                      ReductionCase{1, "min"}, ReductionCase{0, "max"},
                      ReductionCase{1, "max"}));

// ---------------------------------------------------------------------------
// Random stencil windows (halo exchange)
// ---------------------------------------------------------------------------

class RandomStencilTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomStencilTest, HaloExchangeMatchesSingleGpu) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 5);
  const int left = static_cast<int>(rng.NextBounded(4));
  const int right = static_cast<int>(rng.NextBounded(4));
  const int steps = 2 + static_cast<int>(rng.NextBounded(3));
  constexpr int n = 1531;

  std::ostringstream source;
  source << R"(
void f(int n, int steps, long acc_l, long acc_r, double* u, double* v) {
  #pragma acc data copy(u[0:n]) create(v[0:n])
  {
    for (int t = 0; t < steps; t++) {
      #pragma acc localaccess(u: stride(1), left()"
         << left << "), right(" << right << R"()) (v: stride(1))
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        double total = 0.0;
        for (int d = -)" << left << "; d <= " << right << R"(; d++) {
          int j = i + d;
          if (j < 0) { j = 0; }
          if (j >= n) { j = n - 1; }
          total += u[j];
        }
        v[i] = total * 0.25;
      }
      #pragma acc localaccess(u: stride(1)) (v: stride(1))
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        u[i] = v[i];
      }
    }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("stencil", source.str());

  std::vector<double> reference;
  for (int gpus : {1, 2, 3}) {
    auto platform = sim::MakeSupercomputerNode(3);
    std::vector<double> u(n), v(n, 0.0);
    Rng init(99);
    for (int i = 0; i < n; ++i) u[i] = init.NextDouble(-1, 1);
    ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                            .num_gpus = gpus});
    runner.BindArray("u", u.data(), ir::ValType::kF64, n);
    runner.BindArray("v", v.data(), ir::ValType::kF64, n);
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    runner.BindScalar("steps", static_cast<std::int64_t>(steps));
    runner.BindScalar("acc_l", static_cast<std::int64_t>(0));
    runner.BindScalar("acc_r", static_cast<std::int64_t>(0));
    runner.Run("f");
    if (reference.empty()) {
      reference = u;
    } else {
      ASSERT_EQ(u, reference)
          << "gpus=" << gpus << " left=" << left << " right=" << right;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStencilTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Coherence invariant: replicas byte-identical after communication
// ---------------------------------------------------------------------------

TEST(CoherenceTest, ReplicasIdenticalAfterEveryKernel) {
  constexpr char kSource[] = R"(
void f(int n, int iters, int* perm, int* data) {
  #pragma acc data copyin(perm[0:n]) copy(data[0:n])
  {
    for (int t = 0; t < iters; t++) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        data[perm[i]] = data[perm[i]] + 0 * t + i;
      }
    }
  }
}
)";
  // Bijective perm -> no write races; replicated data exercises repeated
  // dirty propagation. After the run, the copied-back host data must match
  // a serial execution.
  constexpr int n = 4096, iters = 3;
  std::vector<std::int32_t> perm(n), data(n, 1), reference(n, 1);
  Rng rng(4242);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        rng.NextBounded(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[i], perm[j]);
  }
  for (int t = 0; t < iters; ++t) {
    std::vector<std::int32_t> next = reference;
    for (int i = 0; i < n; ++i) {
      next[perm[i]] = reference[perm[i]] + i;
    }
    reference = next;
  }

  const AccProgram program = AccProgram::FromSource("coherence", kSource);
  auto platform = sim::MakeSupercomputerNode(3);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 3});
  runner.BindArray("perm", perm.data(), ir::ValType::kI32, n);
  runner.BindArray("data", data.data(), ir::ValType::kI32, n);
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  runner.BindScalar("iters", static_cast<std::int64_t>(iters));
  runner.Run("f");
  EXPECT_EQ(data, reference);
}

}  // namespace
}  // namespace accmg
