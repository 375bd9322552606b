// Unit tests for the Kernel IR: builder, verifier, printer and the
// interpreter's semantics (including float32 rounding, residency checks,
// write-miss spilling, dirty bits and privatized reductions).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "ir/builder.h"
#include "ir/exec.h"
#include "ir/ir.h"
#include "sim/kernel.h"

namespace accmg::ir {
namespace {

double RunScalarKernel(
    const KernelIR& kernel, std::int64_t tid,
    const std::function<void(KernelExec&)>& configure,
    const std::function<double(const KernelExec&)>& extract) {
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  configure(exec);
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(tid, tid + 1, stats);
  return extract(exec);
}

/// Builds a kernel computing one scalar reduction from the thread id and
/// returns its result for tid.
double EvalAsKernel(const std::function<int(KernelBuilder&)>& emit,
                    std::int64_t tid, ValType type = ValType::kF64) {
  KernelBuilder builder("eval");
  const int slot = builder.AddScalarReduction("out", RedOp::kAdd, type);
  const int value = emit(builder);
  builder.RedScalar(slot, value);
  const KernelIR kernel = builder.Build();
  return RunScalarKernel(
      kernel, tid, [](KernelExec&) {},
      [&](const KernelExec& exec) {
        const std::uint64_t raw = exec.scalar_red_results()[0];
        if (type == ValType::kF64) return std::bit_cast<double>(raw);
        if (type == ValType::kF32) {
          return static_cast<double>(
              std::bit_cast<float>(static_cast<std::uint32_t>(raw)));
        }
        return static_cast<double>(static_cast<std::int64_t>(raw));
      });
}

// ---------------------------------------------------------------------------
// Builder / verifier / printer
// ---------------------------------------------------------------------------

TEST(BuilderTest, RegisterContract) {
  KernelBuilder builder("k");
  builder.AddArray("a", ValType::kF32);
  const int s0 = builder.AddScalar("n", ValType::kI32);
  const int s1 = builder.AddScalar("m", ValType::kI64);
  EXPECT_EQ(builder.thread_id_reg(), 0);
  EXPECT_EQ(s0, 1);  // scalar s occupies register 1+s
  EXPECT_EQ(s1, 2);
}

TEST(BuilderTest, AlwaysTerminates) {
  KernelBuilder builder("k");
  builder.ConstI(7);
  const KernelIR kernel = builder.Build();
  EXPECT_EQ(kernel.code.back().op, Opcode::kRet);
}

TEST(BuilderTest, BranchToEndIsLegal) {
  KernelBuilder builder("k");
  const int c = builder.ConstI(1);
  const std::size_t br = builder.BrIf(c);
  builder.PatchTarget(br, builder.Here() + 0);  // next instruction slot
  EXPECT_NO_THROW(builder.Build());
}

TEST(VerifierTest, CatchesBadRegister) {
  KernelIR kernel;
  kernel.name = "bad";
  kernel.num_regs = 2;
  Instr in;
  in.op = Opcode::kMov;
  in.dst = 5;  // out of range
  in.a = 0;
  kernel.code.push_back(in);
  Instr ret;
  ret.op = Opcode::kRet;
  kernel.code.push_back(ret);
  EXPECT_THROW(Verify(kernel), InternalError);
}

TEST(VerifierTest, CatchesUnpatchedBranch) {
  KernelBuilder builder("k");
  const int c = builder.ConstI(1);
  builder.BrIf(c);  // never patched: target -1
  EXPECT_THROW(builder.Build(), InternalError);
}

TEST(PrinterTest, RendersReadableListing) {
  KernelBuilder builder("saxpy");
  const int x = builder.AddArray("x", ValType::kF32);
  const int y = builder.AddArray("y", ValType::kF32);
  const int a = builder.AddScalar("a", ValType::kF32);
  const int xv = builder.Load(x, builder.thread_id_reg());
  const int prod = builder.Binary(Opcode::kMulF, a, xv);
  const int yv = builder.Load(y, builder.thread_id_reg());
  const int sum = builder.Binary(Opcode::kAddF, prod, yv);
  const int rounded = builder.Unary(Opcode::kRoundF32, sum);
  builder.Store(y, builder.thread_id_reg(), rounded);
  const KernelIR kernel = builder.Build();
  const std::string text = Print(kernel);
  EXPECT_NE(text.find("kernel saxpy"), std::string::npos);
  EXPECT_NE(text.find("f32* x"), std::string::npos);
  EXPECT_NE(text.find("mul.f"), std::string::npos);
  EXPECT_NE(text.find("round.f32"), std::string::npos);
  EXPECT_NE(text.find("store @y"), std::string::npos);
}

// Float immediates print in their shortest round-trip form, so the
// listing names the exact double the kernel computes with.
TEST(PrinterTest, FloatImmediatesKeepEveryDigit) {
  KernelBuilder builder("pi");
  const int slot =
      builder.AddScalarReduction("out", RedOp::kAdd, ValType::kF64);
  builder.RedScalar(slot, builder.ConstF(3.14159265358979));
  builder.RedScalar(slot, builder.ConstF(0.1));
  const std::string text = Print(builder.Build());
  EXPECT_NE(text.find("#3.14159265358979\n"), std::string::npos) << text;
  EXPECT_NE(text.find("#0.1\n"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Interpreter arithmetic
// ---------------------------------------------------------------------------

TEST(InterpTest, IntegerArithmetic) {
  EXPECT_EQ(EvalAsKernel(
                [](KernelBuilder& b) {
                  return b.Binary(Opcode::kAddI, b.ConstI(40), b.ConstI(2));
                },
                0, ValType::kI64),
            42.0);
  EXPECT_EQ(EvalAsKernel(
                [](KernelBuilder& b) {
                  return b.Binary(Opcode::kDivI, b.ConstI(-7), b.ConstI(2));
                },
                0, ValType::kI64),
            -3.0);  // C semantics: trunc toward zero
  EXPECT_EQ(EvalAsKernel(
                [](KernelBuilder& b) {
                  return b.Binary(Opcode::kModI, b.ConstI(-7), b.ConstI(2));
                },
                0, ValType::kI64),
            -1.0);
  EXPECT_EQ(EvalAsKernel(
                [](KernelBuilder& b) {
                  return b.Binary(Opcode::kShlI, b.ConstI(3), b.ConstI(4));
                },
                0, ValType::kI64),
            48.0);
}

TEST(InterpTest, DivisionByZeroFaults) {
  KernelBuilder builder("k");
  builder.Binary(Opcode::kDivI, builder.ConstI(1), builder.ConstI(0));
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.ResetOutputs();
  sim::KernelStats stats;
  EXPECT_THROW(exec.Execute(0, 1, stats), DeviceError);
}

TEST(InterpTest, FloatMath) {
  EXPECT_DOUBLE_EQ(EvalAsKernel(
                       [](KernelBuilder& b) {
                         return b.Unary(Opcode::kSqrtF, b.ConstF(9.0));
                       },
                       0),
                   3.0);
  EXPECT_DOUBLE_EQ(EvalAsKernel(
                       [](KernelBuilder& b) {
                         return b.Binary(Opcode::kPowF, b.ConstF(2.0),
                                         b.ConstF(10.0));
                       },
                       0),
                   1024.0);
  EXPECT_DOUBLE_EQ(EvalAsKernel(
                       [](KernelBuilder& b) {
                         return b.Binary(Opcode::kFminF, b.ConstF(1.5),
                                         b.ConstF(-2.5));
                       },
                       0),
                   -2.5);
}

TEST(InterpTest, RoundF32MatchesFloatArithmetic) {
  // 0.1 + 0.2 in float differs from double; RoundF32 must reproduce the
  // float result exactly.
  const double result = EvalAsKernel(
      [](KernelBuilder& b) {
        const int sum =
            b.Binary(Opcode::kAddF, b.ConstF(0.1), b.ConstF(0.2));
        return b.Unary(Opcode::kRoundF32, sum);
      },
      0);
  EXPECT_EQ(static_cast<float>(result), 0.1f + 0.2f);
  EXPECT_NE(result, 0.1 + 0.2);
}

TEST(InterpTest, TruncI32WrapsLikeInt) {
  const double result = EvalAsKernel(
      [](KernelBuilder& b) {
        const int big = b.ConstI(0x1'0000'0005LL);
        return b.Unary(Opcode::kTruncI32, big);
      },
      0, ValType::kI64);
  EXPECT_EQ(result, 5.0);
}

TEST(InterpTest, ThreadIdReceivesIterationOffset) {
  KernelBuilder builder("k");
  const int slot = builder.AddScalarReduction("out", RedOp::kAdd, ValType::kI64);
  builder.RedScalar(slot, builder.thread_id_reg());
  const KernelIR kernel = builder.Build();
  const double result = RunScalarKernel(
      kernel, 5,
      [](KernelExec& exec) { exec.iteration_offset = 100; },
      [](const KernelExec& exec) {
        return static_cast<double>(
            static_cast<std::int64_t>(exec.scalar_red_results()[0]));
      });
  EXPECT_EQ(result, 105.0);
}

TEST(InterpTest, ScalarParamsArriveInContractRegisters) {
  KernelBuilder builder("k");
  const int n = builder.AddScalar("n", ValType::kI64);
  const int slot = builder.AddScalarReduction("out", RedOp::kAdd, ValType::kI64);
  builder.RedScalar(slot, n);
  const KernelIR kernel = builder.Build();
  const double result = RunScalarKernel(
      kernel, 0,
      [](KernelExec& exec) {
        exec.scalar_values[0] = EncodeScalar(ValType::kI64, 0, 777);
      },
      [](const KernelExec& exec) {
        return static_cast<double>(
            static_cast<std::int64_t>(exec.scalar_red_results()[0]));
      });
  EXPECT_EQ(result, 777.0);
}

TEST(InterpTest, ControlFlowLoops) {
  // Sum 0..9 with an explicit loop: acc=0; i=0; while (i<10) {acc+=i; i++}
  KernelBuilder builder("loop");
  const int slot = builder.AddScalarReduction("out", RedOp::kAdd, ValType::kI64);
  const int acc = builder.NewReg();
  const int i = builder.NewReg();
  const int zero = builder.ConstI(0);
  builder.MovTo(acc, zero);
  builder.MovTo(i, zero);
  const std::size_t head = builder.Here();
  const int limit = builder.ConstI(10);
  const int cond = builder.Binary(Opcode::kCmpLtI, i, limit);
  const std::size_t exit = builder.BrIfNot(cond);
  const int next = builder.Binary(Opcode::kAddI, acc, i);
  builder.MovTo(acc, next);
  const int one = builder.ConstI(1);
  const int inc = builder.Binary(Opcode::kAddI, i, one);
  builder.MovTo(i, inc);
  const std::size_t back = builder.Br();
  builder.PatchTarget(back, head);
  builder.PatchTarget(exit, builder.Here());
  builder.RedScalar(slot, acc);
  const KernelIR kernel = builder.Build();
  const double result = RunScalarKernel(
      kernel, 0, [](KernelExec&) {},
      [](const KernelExec& exec) {
        return static_cast<double>(
            static_cast<std::int64_t>(exec.scalar_red_results()[0]));
      });
  EXPECT_EQ(result, 45.0);
}

TEST(InterpTest, RunawayLoopHitsBudget) {
  KernelBuilder builder("spin");
  const std::size_t br = builder.Br();
  builder.PatchTarget(br, 0);
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.ResetOutputs();
  sim::KernelStats stats;
  try {
    exec.Execute(0, 1, stats);
    ADD_FAILURE() << "runaway loop did not fault";
  } catch (const DeviceError& error) {
    EXPECT_STREQ(error.what(),
                 "kernel 'spin': per-thread instruction budget exceeded "
                 "(runaway loop?)");
  }
}

// ---------------------------------------------------------------------------
// Memory semantics
// ---------------------------------------------------------------------------

struct ArrayFixture {
  std::vector<float> data;
  ArrayBinding binding;

  explicit ArrayFixture(std::int64_t lo, std::int64_t hi, std::int64_t size) {
    data.assign(static_cast<std::size_t>(hi - lo), 0.0f);
    binding.data = reinterpret_cast<std::byte*>(data.data());
    binding.lo = lo;
    binding.hi = hi;
    binding.write_lo = lo;
    binding.write_hi = hi;
    binding.logical_size = size;
  }
};

TEST(InterpTest, LoadStoreUseGlobalIndicesWithSegmentOffset) {
  // Segment [100, 110) of a logical 1000-element array.
  ArrayFixture fixture(100, 110, 1000);
  fixture.data[3] = 42.0f;  // global index 103

  KernelBuilder builder("seg");
  const int arr = builder.AddArray("a", ValType::kF32);
  const int idx = builder.ConstI(103);
  const int v = builder.Load(arr, idx);
  const int two = builder.ConstF(2.0);
  const int doubled = builder.Binary(Opcode::kMulF, v, two);
  const int out_idx = builder.ConstI(104);
  builder.Store(arr, out_idx, builder.Unary(Opcode::kRoundF32, doubled));
  const KernelIR kernel = builder.Build();

  const DecodedKernel decoded(kernel);

  KernelExec exec(decoded);
  exec.bindings[0] = fixture.binding;
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 1, stats);
  EXPECT_EQ(fixture.data[4], 84.0f);
  EXPECT_EQ(stats.bytes_read, 4u);
  EXPECT_EQ(stats.bytes_written, 4u);
}

TEST(InterpTest, NonResidentReadFaults) {
  ArrayFixture fixture(100, 110, 1000);
  KernelBuilder builder("oob");
  const int arr = builder.AddArray("a", ValType::kF32);
  builder.Load(arr, builder.ConstI(99));
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.bindings[0] = fixture.binding;
  exec.ResetOutputs();
  sim::KernelStats stats;
  EXPECT_THROW(exec.Execute(0, 1, stats), DeviceError);
}

TEST(InterpTest, NonOwnedWriteWithoutMissBufferFaults) {
  ArrayFixture fixture(100, 110, 1000);
  fixture.binding.write_hi = 105;  // owns [100, 105)
  KernelBuilder builder("wmiss");
  const int arr = builder.AddArray("a", ValType::kF32);
  builder.Store(arr, builder.ConstI(107), builder.ConstF(1.0));
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.bindings[0] = fixture.binding;
  exec.ResetOutputs();
  sim::KernelStats stats;
  EXPECT_THROW(exec.Execute(0, 1, stats), DeviceError);
}

TEST(InterpTest, WriteMissSpillsRecord) {
  ArrayFixture fixture(100, 110, 1000);
  fixture.binding.write_hi = 105;
  MissBuffer miss;
  fixture.binding.miss = &miss;

  KernelBuilder builder("wmiss");
  const int arr = builder.AddArray("a", ValType::kF32);
  builder.Store(arr, builder.ConstI(107), builder.ConstF(3.5));
  builder.Store(arr, builder.ConstI(102), builder.ConstF(1.5));  // local
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.bindings[0] = fixture.binding;
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 1, stats);

  ASSERT_EQ(miss.records.size(), 1u);
  EXPECT_EQ(miss.records[0].index, 107);
  float value;
  const auto bits = static_cast<std::uint32_t>(miss.records[0].raw);
  std::memcpy(&value, &bits, 4);
  EXPECT_EQ(value, 3.5f);
  EXPECT_EQ(fixture.data[2], 1.5f);  // the local store landed
}

TEST(InterpTest, DirtyMarkSetsBothLevels) {
  ArrayFixture fixture(0, 100, 100);
  std::vector<std::uint8_t> level1(100, 0), level2(4, 0);
  fixture.binding.dirty.level1 = level1.data();
  fixture.binding.dirty.level2 = level2.data();
  fixture.binding.dirty.chunk_elems = 32;

  KernelBuilder builder("dirty");
  const int arr = builder.AddArray("a", ValType::kF32);
  const int idx = builder.ConstI(70);
  builder.Store(arr, idx, builder.ConstF(1.0));
  builder.DirtyMark(arr, idx);
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.bindings[0] = fixture.binding;
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 1, stats);

  EXPECT_EQ(level1[70], 1);
  EXPECT_EQ(level2[70 / 32], 1);
  EXPECT_EQ(level2[0], 0);  // other chunks stay clean
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

TEST(ReductionTest, Identities) {
  EXPECT_EQ(std::bit_cast<double>(
                ReductionIdentity(RedOp::kAdd, ValType::kF64)),
            0.0);
  EXPECT_EQ(std::bit_cast<double>(
                ReductionIdentity(RedOp::kMul, ValType::kF64)),
            1.0);
  EXPECT_EQ(std::bit_cast<double>(
                ReductionIdentity(RedOp::kMin, ValType::kF64)),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(static_cast<std::int32_t>(
                ReductionIdentity(RedOp::kMax, ValType::kI32)),
            std::numeric_limits<std::int32_t>::min());
}

TEST(ReductionTest, CombineRawRespectsTypes) {
  const auto a = static_cast<std::uint64_t>(static_cast<std::uint32_t>(5));
  const auto b = static_cast<std::uint64_t>(static_cast<std::uint32_t>(7));
  EXPECT_EQ(static_cast<std::int32_t>(CombineRaw(RedOp::kAdd, ValType::kI32,
                                                 a, b)),
            12);
  EXPECT_EQ(static_cast<std::int32_t>(CombineRaw(RedOp::kMin, ValType::kI32,
                                                 a, b)),
            5);
  const float fa = 2.0f, fb = 3.0f;
  const auto fraw = CombineRaw(RedOp::kMul, ValType::kF32,
                               std::bit_cast<std::uint32_t>(fa),
                               std::bit_cast<std::uint32_t>(fb));
  EXPECT_EQ(std::bit_cast<float>(static_cast<std::uint32_t>(fraw)), 6.0f);
}

TEST(ReductionTest, ScalarReductionAccumulatesAcrossThreads) {
  KernelBuilder builder("sum");
  const int slot = builder.AddScalarReduction("out", RedOp::kAdd, ValType::kI64);
  builder.RedScalar(slot, builder.thread_id_reg());
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 100, stats);
  EXPECT_EQ(static_cast<std::int64_t>(exec.scalar_red_results()[0]), 4950);
}

TEST(ReductionTest, ArrayReductionProducesDensePartial) {
  KernelBuilder builder("hist");
  const int arr = builder.AddArray("hist", ValType::kI32);
  const int slot = builder.AddArrayReduction(arr, RedOp::kAdd, ValType::kI32);
  // bucket = tid % 4; partial[bucket] += 1
  const int four = builder.ConstI(4);
  const int bucket =
      builder.Binary(Opcode::kModI, builder.thread_id_reg(), four);
  builder.RedArray(slot, bucket, builder.ConstI(1));
  const KernelIR kernel = builder.Build();

  const DecodedKernel decoded(kernel);

  KernelExec exec(decoded);
  exec.array_red_lower[0] = 0;
  exec.array_red_length[0] = 4;
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 10, stats);
  const auto& partial = exec.array_red_partials()[0];
  ASSERT_EQ(partial.size(), 4u);
  EXPECT_EQ(static_cast<std::int32_t>(partial[0]), 3);  // 0,4,8
  EXPECT_EQ(static_cast<std::int32_t>(partial[1]), 3);  // 1,5,9
  EXPECT_EQ(static_cast<std::int32_t>(partial[2]), 2);
  EXPECT_EQ(static_cast<std::int32_t>(partial[3]), 2);
}

TEST(ReductionTest, ArrayReductionOutOfSectionFaults) {
  KernelBuilder builder("hist");
  const int arr = builder.AddArray("hist", ValType::kI32);
  const int slot = builder.AddArrayReduction(arr, RedOp::kAdd, ValType::kI32);
  builder.RedArray(slot, builder.ConstI(9), builder.ConstI(1));
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.array_red_lower[0] = 0;
  exec.array_red_length[0] = 4;
  exec.ResetOutputs();
  sim::KernelStats stats;
  EXPECT_THROW(exec.Execute(0, 1, stats), DeviceError);
}

TEST(InterpTest, TranscendentalsCostMore) {
  KernelBuilder cheap("cheap");
  cheap.Binary(Opcode::kAddF, cheap.ConstF(1), cheap.ConstF(2));
  const KernelIR cheap_k = cheap.Build();

  KernelBuilder pricey("pricey");
  pricey.Unary(Opcode::kSqrtF, pricey.ConstF(2));
  const KernelIR pricey_k = pricey.Build();

  sim::KernelStats cheap_stats, pricey_stats;
  const DecodedKernel cheap_decoded(cheap_k);
  KernelExec cheap_exec(cheap_decoded);
  cheap_exec.ResetOutputs();
  cheap_exec.Execute(0, 1, cheap_stats);
  const DecodedKernel pricey_decoded(pricey_k);
  KernelExec pricey_exec(pricey_decoded);
  pricey_exec.ResetOutputs();
  pricey_exec.Execute(0, 1, pricey_stats);
  EXPECT_GT(pricey_stats.instructions, cheap_stats.instructions);
}

// ---------------------------------------------------------------------------
// Decoded engine: block boundaries, fused pairs and hoisted scalars
// ---------------------------------------------------------------------------

bool HasOp(const DecodedKernel& decoded, DecodedOpKind kind) {
  for (const DecodedOp& op : decoded.ops()) {
    if (op.kind == kind) return true;
  }
  return false;
}

double F64(std::uint64_t raw) { return std::bit_cast<double>(raw); }

// Scalar registers are loaded once per chunk only when no instruction
// writes them. A kernel that overwrites its scalar must still show every
// thread the launch value.
TEST(EngineTest, OverwrittenScalarReloadsForEveryThread) {
  KernelBuilder builder("clobber");
  const int n = builder.AddScalar("n", ValType::kI64);
  const int slot =
      builder.AddScalarReduction("out", RedOp::kAdd, ValType::kI64);
  builder.RedScalar(slot, n);
  builder.MovTo(n, builder.ConstI(1000));
  const KernelIR kernel = builder.Build();
  const DecodedKernel decoded(kernel);
  KernelExec exec(decoded);
  exec.scalar_values[0] = EncodeScalar(ValType::kI64, 0, 7);
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 3, stats);
  EXPECT_EQ(static_cast<std::int64_t>(exec.scalar_red_results()[0]), 21);
}

// add.f r3 = r1 + r2; round.f32 r1 = r3: the pair fuses, and the round's
// destination is an operand of the add. The fused op computes from the
// operands before it writes either destination.
TEST(EngineTest, FusedPairWritesBothRegistersWhenTheyAliasAnOperand) {
  KernelBuilder builder("alias");
  const int wide = builder.AddScalarReduction("wide", RedOp::kAdd,
                                              ValType::kF64);
  const int narrow = builder.AddScalarReduction("narrow", RedOp::kAdd,
                                                ValType::kF64);
  const int x = builder.ConstF(0.1);
  const int y = builder.ConstF(0.2);
  const int sum = builder.Binary(Opcode::kAddF, x, y);
  const std::size_t round_pc = builder.Here();
  builder.Unary(Opcode::kRoundF32, sum);
  builder.RedScalar(wide, sum);
  builder.RedScalar(narrow, x);
  KernelIR kernel = builder.Build();
  kernel.code[round_pc].dst = x;  // round.f32 writes the add's lhs
  const DecodedKernel decoded(kernel);
  EXPECT_TRUE(HasOp(decoded, DecodedOpKind::kAddFRound));
  KernelExec exec(decoded);
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 1, stats);
  EXPECT_EQ(F64(exec.scalar_red_results()[0]), 0.1 + 0.2);
  EXPECT_EQ(F64(exec.scalar_red_results()[1]),
            static_cast<double>(static_cast<float>(0.1 + 0.2)));
  EXPECT_EQ(stats.instructions, 7u);  // 2 const, add, round, 2 red, ret
}

// A branch into the second instruction of a would-be pair makes it a block
// leader, so the pair is not fused: thread 1 jumps straight to the round
// and must round the value it set, not recompute the add.
TEST(EngineTest, BranchIntoPairPreventsFusion) {
  KernelBuilder builder("split");
  const int slot =
      builder.AddScalarReduction("out", RedOp::kAdd, ValType::kF64);
  const int value = builder.NewReg();
  builder.MovTo(value, builder.ConstF(2.5));
  const std::size_t br = builder.BrIf(builder.thread_id_reg());
  const std::size_t add_pc = builder.Here();
  builder.Binary(Opcode::kAddF, builder.ConstF(0.1), builder.ConstF(0.2));
  const std::size_t round_at = builder.Here();
  const int rounded = builder.Unary(Opcode::kRoundF32, value);
  builder.PatchTarget(br, round_at);
  builder.RedScalar(slot, rounded);
  KernelIR kernel = builder.Build();
  // Make the add write `value`, so add and round form a fusible pair.
  for (std::size_t pc = add_pc; pc < round_at; ++pc) {
    if (kernel.code[pc].op == Opcode::kAddF) {
      ASSERT_EQ(pc + 1, round_at);
      kernel.code[pc].dst = value;
    }
  }
  const DecodedKernel decoded(kernel);
  ASSERT_FALSE(HasOp(decoded, DecodedOpKind::kAddFRound));
  KernelExec exec(decoded);
  exec.ResetOutputs();
  sim::KernelStats stats;
  exec.Execute(0, 2, stats);  // thread 0 falls through, thread 1 branches
  EXPECT_EQ(F64(exec.scalar_red_results()[0]),
            static_cast<double>(static_cast<float>(0.1 + 0.2)) + 2.5);
}

// kDirtyMark bytes stay dynamic: a mark outside the resident range charges
// nothing, one inside charges its two dirty bytes.
TEST(EngineTest, OutOfRangeDirtyMarkChargesNoBytes) {
  ArrayFixture fixture(0, 100, 100);
  std::vector<std::uint8_t> level1(100, 0), level2(4, 0);
  fixture.binding.dirty.level1 = level1.data();
  fixture.binding.dirty.level2 = level2.data();
  fixture.binding.dirty.chunk_elems = 32;

  auto run = [&](std::int64_t index) {
    KernelBuilder builder("mark");
    const int arr = builder.AddArray("a", ValType::kF32);
    builder.DirtyMark(arr, builder.ConstI(index));
    const KernelIR kernel = builder.Build();
    const DecodedKernel decoded(kernel);
    KernelExec exec(decoded);
    exec.bindings[0] = fixture.binding;
    exec.ResetOutputs();
    sim::KernelStats stats;
    exec.Execute(0, 1, stats);
    return stats;
  };
  const sim::KernelStats outside = run(500);
  EXPECT_EQ(outside.bytes_written, 0u);
  EXPECT_EQ(outside.instructions, 3u);
  EXPECT_EQ(std::count(level1.begin(), level1.end(), 1), 0);
  const sim::KernelStats inside = run(70);
  EXPECT_EQ(inside.bytes_written, 2u);
  EXPECT_EQ(level1[70], 1);
}

TEST(EngineTest, DecodingVerifiesTheKernel) {
  KernelIR kernel;
  kernel.name = "bad";
  kernel.num_regs = 2;
  Instr in;
  in.op = Opcode::kMov;
  in.dst = 5;  // out of range
  in.a = 0;
  kernel.code.push_back(in);
  Instr ret;
  ret.op = Opcode::kRet;
  kernel.code.push_back(ret);
  EXPECT_THROW(DecodedKernel{kernel}, InternalError);
}

TEST(EngineTest, UndecodedKernelIsRefused) {
  const DecodedKernel empty;
  EXPECT_THROW(KernelExec{empty}, InternalError);
}

}  // namespace
}  // namespace accmg::ir
