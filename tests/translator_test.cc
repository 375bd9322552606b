// Unit tests for the translator: offload extraction, access analysis,
// write-locality proofs, host evaluation, the CUDA codegen artifact, and the
// optimizing mid-end (fusion, CSE, golden IR and compile-time scaling).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/heat2d/heat2d.h"
#include "apps/kmeans/kmeans.h"
#include "apps/lattice/lattice.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "common/error.h"
#include "common/sha256.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/ir.h"
#include "runtime/program.h"
#include "sim/platform.h"
#include "translator/cuda_codegen.h"
#include "translator/eval.h"
#include "translator/offload.h"
#include "translator/opt.h"

namespace accmg::translator {
namespace {

using accmg::CompileError;

struct Compiled {
  std::unique_ptr<frontend::Program> ast;
  CompiledProgram program;
};

Compiled CompileSource(const std::string& source, int opt_level = 1) {
  Compiled out;
  frontend::SourceBuffer buffer("test.c", source);
  out.ast = frontend::ParseAndAnalyze(buffer);
  CompileOptions options;
  options.opt_level = opt_level;
  out.program = Compile(*out.ast, options);
  return out;
}

const LoopOffload& OnlyOffload(const Compiled& compiled) {
  const auto& offloads = compiled.program.functions.at(0).offloads;
  EXPECT_EQ(offloads.size(), 1u);
  return offloads.at(0);
}

// ---------------------------------------------------------------------------
// MatchAffine
// ---------------------------------------------------------------------------

struct AffineCase {
  const char* expr;
  bool matches;
  std::int64_t a;
  std::int64_t b;
};

// Names each case by its expression, so test names do not depend on the
// address of the string literal.
void PrintTo(const AffineCase& c, std::ostream* os) { *os << c.expr; }

class AffineTest : public ::testing::TestWithParam<AffineCase> {};

TEST_P(AffineTest, Matches) {
  const AffineCase& c = GetParam();
  // Build a tiny program so `i` resolves to a declaration.
  const std::string source = std::string(R"(
void f(int n, int* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[)") + c.expr + R"(] = 0;
  }
})";
  // Parsing alone gives us the expression with a resolved induction decl.
  frontend::SourceBuffer buffer("affine.c", source);
  auto ast = frontend::ParseAndAnalyze(buffer);
  const auto& loop =
      frontend::As<frontend::ForStmt>(*ast->functions[0]->body->body[0]);
  const auto& decl_stmt = frontend::As<frontend::DeclStmt>(*loop.init);
  const auto& body = frontend::As<frontend::CompoundStmt>(*loop.body);
  const auto& assign = frontend::As<frontend::AssignStmt>(*body.body[0]);
  const auto& subscript =
      frontend::As<frontend::SubscriptExpr>(*assign.target);

  std::int64_t a = 0, b = 0;
  const bool matched =
      MatchAffine(*subscript.index, *decl_stmt.decl, &a, &b);
  EXPECT_EQ(matched, c.matches) << c.expr;
  if (c.matches) {
    EXPECT_EQ(a, c.a) << c.expr;
    EXPECT_EQ(b, c.b) << c.expr;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AffineTest,
    ::testing::Values(AffineCase{"i", true, 1, 0},
                      AffineCase{"i + 3", true, 1, 3},
                      AffineCase{"3 + i", true, 1, 3},
                      AffineCase{"i - 2", true, 1, -2},
                      AffineCase{"2 * i", true, 2, 0},
                      AffineCase{"i * 4 + 1", true, 4, 1},
                      AffineCase{"4 * (i + 1)", true, 4, 4},
                      AffineCase{"-i", true, -1, 0},
                      AffineCase{"i * i", false, 0, 0},
                      AffineCase{"i / 2", false, 0, 0},
                      AffineCase{"7", true, 0, 7}));

// ---------------------------------------------------------------------------
// Offload extraction
// ---------------------------------------------------------------------------

TEST(CompileTest, ClassifiesArraysAndScalars) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float scale, float* in, float* out) {
  #pragma acc localaccess(in: stride(1)) (out: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    out[i] = in[i] * scale;
  }
})");
  const LoopOffload& offload = OnlyOffload(compiled);

  ASSERT_EQ(offload.arrays.size(), 2u);
  const ArrayConfig* in = offload.FindArray("in");
  const ArrayConfig* out = offload.FindArray("out");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(in->is_read);
  EXPECT_FALSE(in->is_written);
  EXPECT_TRUE(out->is_written);
  EXPECT_TRUE(in->has_localaccess);
  EXPECT_TRUE(out->writes_proven_local);

  // `scale` and `n` are scalar params; `i` is the induction variable.
  ASSERT_EQ(offload.scalars.size(), 1u);
  EXPECT_EQ(offload.scalars[0].decl->name, "scale");
  EXPECT_EQ(offload.induction->name, "i");
}

TEST(CompileTest, WriteMissCheckWhenLocalityUnprovable) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int* perm, int* dst) {
  #pragma acc localaccess(dst: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    dst[perm[i]] = i;
  }
})");
  const LoopOffload& offload = OnlyOffload(compiled);
  const ArrayConfig* dst = offload.FindArray("dst");
  EXPECT_FALSE(dst->writes_proven_local);
  const auto& param =
      offload.kernel.arrays[static_cast<size_t>(dst->kernel_array_index)];
  EXPECT_TRUE(param.miss_checked);
  EXPECT_FALSE(param.dirty_tracked);
}

TEST(CompileTest, DirtyBitsForReplicatedWrites) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int* perm, int* dst) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    dst[perm[i]] = i;
  }
})");
  const LoopOffload& offload = OnlyOffload(compiled);
  const auto& param = offload.kernel.arrays[static_cast<size_t>(
      offload.FindArray("dst")->kernel_array_index)];
  EXPECT_TRUE(param.dirty_tracked);
  EXPECT_FALSE(param.miss_checked);
  // The lowering must have emitted dirty-mark instrumentation.
  bool saw_dirty_mark = false;
  for (const auto& in : offload.kernel.code) {
    saw_dirty_mark |= in.op == ir::Opcode::kDirtyMark;
  }
  EXPECT_TRUE(saw_dirty_mark);
}

TEST(CompileTest, HaloWritesWithinBoundsAreProvenLocal) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc localaccess(a: stride(2), left(1), right(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[2 * i - 1] = 0.0f;
    a[2 * i + 2] = 0.0f;
  }
})");
  // Range per iteration: [2i - 1, 2i + 2]; both writes are inside.
  EXPECT_TRUE(OnlyOffload(compiled).FindArray("a")->writes_proven_local);
}

TEST(CompileTest, HaloWritesOutsideBoundsAreNot) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc localaccess(a: stride(2), left(1), right(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[2 * i + 3] = 0.0f;
  }
})");
  EXPECT_FALSE(OnlyOffload(compiled).FindArray("a")->writes_proven_local);
}

TEST(CompileTest, SeparateLoopDirectiveInsideParallelRegion) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc parallel
  {
    #pragma acc loop
    for (int i = 0; i < n; i++) {
      a[i] = 1.0f;
    }
  }
})");
  EXPECT_EQ(compiled.program.functions[0].offloads.size(), 1u);
}

TEST(CompileTest, InclusiveUpperBound) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = 0; i <= n; i++) {
    a[i] = 1.0f;
  }
})");
  EXPECT_TRUE(OnlyOffload(compiled).upper_inclusive);
}

TEST(CompileTest, ScalarReductionTarget) {
  const Compiled compiled = CompileSource(R"(
void f(int n, double* x, double out) {
  double sum = 0.0;
  #pragma acc parallel loop reduction(+:sum)
  for (int i = 0; i < n; i++) {
    sum += x[i];
  }
  out = sum;
})");
  const LoopOffload& offload = OnlyOffload(compiled);
  ASSERT_EQ(offload.scalar_reds.size(), 1u);
  EXPECT_EQ(offload.scalar_reds[0].decl->name, "sum");
  // Reduction variables are not scalar params.
  for (const auto& scalar : offload.scalars) {
    EXPECT_NE(scalar.decl->name, "sum");
  }
  ASSERT_EQ(offload.kernel.scalar_reductions.size(), 1u);
  EXPECT_EQ(offload.kernel.scalar_reductions[0].op, ir::RedOp::kAdd);
}

TEST(CompileTest, MultipleArrayReductions) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int k, int* keys, int* counts, float* vals, float* sums) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    int c = keys[i];
    #pragma acc reductiontoarray(+: counts[0:k])
    counts[c] += 1;
    #pragma acc reductiontoarray(+: sums[0:k])
    sums[c] += vals[i];
  }
})");
  const LoopOffload& offload = OnlyOffload(compiled);
  EXPECT_EQ(offload.array_reds.size(), 2u);
  EXPECT_EQ(offload.kernel.array_reductions.size(), 2u);
}

// --- 2-D row-block (localaccess cols) analysis ---

const ArrayConfig* ConfigOf(const LoopOffload& offload,
                            const std::string& name) {
  for (const auto& config : offload.arrays) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

TEST(WriteLocalityTest, ColsWritesProvenRowLocal) {
  // index = i*m + j with j in [0, m): the write polynomial proof must land
  // every store inside the iteration's own row, eliminating miss checks.
  const Compiled compiled = CompileSource(R"(
void f(int n, int m, float* u, float* v) {
  #pragma acc localaccess(u: cols(m), left(1), right(1)) (v: cols(m))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      v[i * m + j] = u[i * m + j] * 0.5f;
    }
  }
})", /*opt_level=*/0);
  const LoopOffload& offload = OnlyOffload(compiled);
  const ArrayConfig* v = ConfigOf(offload, "v");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->is_written);
  EXPECT_TRUE(v->writes_proven_local);
}

TEST(WriteLocalityTest, CrossRowColsWriteIsNotProven) {
  // The store index i*m + j + 1 can step into row i+1 at j == m-1, so the
  // row-locality proof must fail and the miss check must stay.
  const Compiled compiled = CompileSource(R"(
void f(int n, int m, float* u, float* v) {
  #pragma acc localaccess(u: cols(m)) (v: cols(m))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      v[i * m + j + 1] = u[i * m + j];
    }
  }
})", /*opt_level=*/0);
  const ArrayConfig* v = ConfigOf(OnlyOffload(compiled), "v");
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->writes_proven_local);
}

TEST(CheckTest, ColsHaloTooNarrowIsACompileError) {
  // An unclamped read of the previous row under a zero-row left halo: with
  // a constant row length the checker's slack polynomial collapses to the
  // constant -8 (provably escapes the window), so compilation must fail,
  // not miscompute.
  EXPECT_THROW(CompileSource(R"(
void f(int n, float* u, float* v) {
  #pragma acc localaccess(u: cols(8)) (v: cols(8))
  #pragma acc parallel loop
  for (int i = 1; i < n; i++) {
    for (int j = 0; j < 8; j++) {
      v[i * 8 + j] = u[(i - 1) * 8 + j];
    }
  }
})"),
               CompileError);
}

TEST(CheckTest, ColsRowHaloCoversVerticalStencilReads) {
  // The same previous-row read compiles once the spec grants left(1).
  const Compiled compiled = CompileSource(R"(
void f(int n, int m, float* u, float* v) {
  #pragma acc localaccess(u: cols(m), left(1)) (v: cols(m))
  #pragma acc parallel loop
  for (int i = 1; i < n; i++) {
    for (int j = 0; j < m; j++) {
      v[i * m + j] = u[(i - 1) * m + j];
    }
  }
})", /*opt_level=*/0);
  const ArrayConfig* u = ConfigOf(OnlyOffload(compiled), "u");
  ASSERT_NE(u, nullptr);
  EXPECT_NE(u->cols, nullptr);
}

// --- rejection cases ---

TEST(CompileTest, RejectsNonCanonicalLoops) {
  EXPECT_THROW(CompileSource(R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = n; i > 0; i--) { a[i] = 0.0f; }
})"),
               CompileError);
  EXPECT_THROW(CompileSource(R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i += 2) { a[i] = 0.0f; }
})"),
               CompileError);
}

TEST(CompileTest, RejectsScalarWriteWithoutReduction) {
  EXPECT_THROW(CompileSource(R"(
void f(int n, float* a) {
  float last = 0.0f;
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    last = a[i];
  }
})"),
               CompileError);
}

TEST(CompileTest, RejectsReturnInsideLoop) {
  EXPECT_THROW(CompileSource(R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    return;
  }
})"),
               CompileError);
}

TEST(CompileTest, RejectsMismatchedReductionStatement) {
  EXPECT_THROW(CompileSource(R"(
void f(int n, int k, int* keys, int* counts) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: counts[0:k])
    counts[keys[i]] = 5;
  }
})"),
               CompileError);
}

TEST(CompileTest, RejectsLoopDirectiveOutsideRegion) {
  EXPECT_THROW(CompileSource(R"(
void f(int n, float* a) {
  #pragma acc loop
  for (int i = 0; i < n; i++) { a[i] = 0.0f; }
})"),
               CompileError);
}

// ---------------------------------------------------------------------------
// Host evaluation
// ---------------------------------------------------------------------------

TEST(EvalTest, TypedValueConversions) {
  const TypedValue i = TypedValue::OfInt(-5, ir::ValType::kI32);
  EXPECT_EQ(i.AsInt(), -5);
  EXPECT_EQ(i.AsDouble(), -5.0);
  const TypedValue f = TypedValue::OfDouble(2.75, ir::ValType::kF32);
  EXPECT_EQ(f.AsDouble(), 2.75);
  EXPECT_EQ(f.AsInt(), 2);
}

TEST(EvalTest, Float32BindingRoundsValue) {
  const TypedValue f = TypedValue::OfDouble(0.1, ir::ValType::kF32);
  EXPECT_EQ(f.AsDouble(), static_cast<double>(0.1f));
}

TEST(EvalTest, TryFoldConstant) {
  std::int64_t out = 0;
  EXPECT_TRUE(TryFoldConstant(*frontend::Parser::ParseExpressionString(
                                  "2 * (3 + 4) - 1"),
                              &out));
  EXPECT_EQ(out, 13);
  EXPECT_TRUE(
      TryFoldConstant(*frontend::Parser::ParseExpressionString("-8"), &out));
  EXPECT_EQ(out, -8);
  EXPECT_FALSE(
      TryFoldConstant(*frontend::Parser::ParseExpressionString("n"), &out));
  EXPECT_FALSE(TryFoldConstant(
      *frontend::Parser::ParseExpressionString("1 / 0"), &out));
}

TEST(EvalTest, WriteHostElementBoundsChecked) {
  std::vector<float> data(4);
  HostArray array{data.data(), ir::ValType::kF32, 4};
  WriteHostElement(array, 2, TypedValue::OfDouble(1.5, ir::ValType::kF32),
                   "a");
  EXPECT_EQ(data[2], 1.5f);
  EXPECT_THROW(WriteHostElement(array, 4, TypedValue::OfInt(0), "a"),
               InvalidArgumentError);
  EXPECT_THROW(WriteHostElement(array, -1, TypedValue::OfInt(0), "a"),
               InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// CUDA codegen (golden fragments)
// ---------------------------------------------------------------------------

TEST(CodegenTest, RewritesIndicesAgainstSegmentBase) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc localaccess(a: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[i] = 1.0f;
  }
})");
  const std::string cuda = GenerateCudaKernel(OnlyOffload(compiled));
  EXPECT_NE(cuda.find("a[(i) - a_lo] = 1.0f;"), std::string::npos) << cuda;
  EXPECT_NE(cuda.find("__global__ void f_kernel0"), std::string::npos);
}

TEST(CodegenTest, EmitsDirtyBitInstrumentation) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int* p, int* d) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    d[p[i]] = i;
  }
})");
  const std::string cuda = GenerateCudaKernel(OnlyOffload(compiled));
  EXPECT_NE(cuda.find("d_dirty1["), std::string::npos) << cuda;
  EXPECT_NE(cuda.find("d_dirty2["), std::string::npos);
}

TEST(CodegenTest, EmitsWriteMissCheck) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int* p, int* d) {
  #pragma acc localaccess(d: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    d[p[i]] = i;
  }
})");
  const std::string cuda = GenerateCudaKernel(OnlyOffload(compiled));
  EXPECT_NE(cuda.find("accmg_record_miss(d_missbuf"), std::string::npos)
      << cuda;
  EXPECT_NE(cuda.find("d_own_lo"), std::string::npos);
}

TEST(CodegenTest, ProvenLocalWritesHaveNoCheck) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc localaccess(a: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[i] = 1.0f;
  }
})");
  const std::string cuda = GenerateCudaKernel(OnlyOffload(compiled));
  EXPECT_EQ(cuda.find("accmg_record_miss"), std::string::npos) << cuda;
  EXPECT_EQ(cuda.find("_dirty1"), std::string::npos);
}

TEST(CodegenTest, EmitsReductionAccumulation) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int k, int* keys, int* hist) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: hist[0:k])
    hist[keys[i]] += 1;
  }
})");
  const std::string cuda = GenerateCudaKernel(OnlyOffload(compiled));
  EXPECT_NE(cuda.find("accmg_red_add(&hist_partial["), std::string::npos)
      << cuda;
}

TEST(CodegenTest, HostSketchShowsPlacementAndComm) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int* p, int* d, float* x) {
  #pragma acc localaccess(x: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    d[p[i]] = i;
    x[i] = 0.0f;
  }
})");
  const std::string host =
      GenerateHostSketch(compiled.program.functions[0]);
  EXPECT_NE(host.find("accmg_load(\"d\", REPLICATE | DIRTY_TRACK)"),
            std::string::npos)
      << host;
  EXPECT_NE(host.find("accmg_load(\"x\", DISTRIBUTE)"), std::string::npos);
  EXPECT_NE(host.find("accmg_propagate_dirty(\"d\")"), std::string::npos);
}

TEST(CodegenTest, WholeProgramIncludesEveryKernel) {
  // Compiled unfused: at the default level the mid-end would merge these
  // two same-thread loops into a single kernel.
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 0.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0f; }
})", /*opt_level=*/0);
  const std::string text = GenerateCudaProgram(compiled.program);
  EXPECT_NE(text.find("f_kernel0"), std::string::npos);
  EXPECT_NE(text.find("f_kernel1"), std::string::npos);
}

TEST(CodegenTest, FloatLiteralsKeepEveryDigit) {
  const Compiled compiled = CompileSource(R"(
void f(int n, double* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[i] = a[i] * 3.14159265358979 + 0.5;
  }
})");
  const std::string cuda = GenerateCudaKernel(OnlyOffload(compiled));
  EXPECT_NE(cuda.find(" * 3.14159265358979) + 0.5)"), std::string::npos)
      << cuda;
}

// Every identifier bfs's CUDA kernel uses is declared in the kernel text
// (parameters and locals), is a C or CUDA keyword or builtin, or is one of
// the device runtime's names; the level-2 dirty chunk size in particular
// arrives as a kernel parameter.
TEST(CodegenTest, BfsKernelDeclaresEveryNameItUses) {
  const Compiled compiled = CompileSource(apps::BfsSource());
  const std::set<std::string> known = {
      "__global__", "void",      "const",    "long",      "int",
      "unsigned",   "char",      "float",    "double",    "if",
      "for",        "return",    "blockIdx", "blockDim",  "threadIdx",
      "accmg_miss_record", "accmg_record_miss"};
  const std::regex declaration(
      R"((?:int|long long|float|double|unsigned char)\s*\*?\s*([A-Za-z_]\w*))");
  const std::regex identifier(R"((\.?)([A-Za-z_]\w*))");
  for (const auto& function : compiled.program.functions) {
    for (const auto& offload : function.offloads) {
      const std::string cuda = GenerateCudaKernel(offload);
      std::set<std::string> declared;
      for (std::sregex_iterator it(cuda.begin(), cuda.end(), declaration), end;
           it != end; ++it) {
        declared.insert((*it)[1]);
      }
      declared.insert(offload.name);
      for (std::sregex_iterator it(cuda.begin(), cuda.end(), identifier), end;
           it != end; ++it) {
        if ((*it)[1] == ".") continue;  // a member: blockIdx.x
        const std::string name = (*it)[2];
        EXPECT_TRUE(known.count(name) || declared.count(name))
            << "undeclared name " << name << " in\n" << cuda;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Empty statements inside an offloaded loop body
// ---------------------------------------------------------------------------

class EmptyStatementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EmptyStatementTest, CompilesAndRunsAtEveryLevel) {
  const std::string source = std::string(R"(
void copy(int n, float* x, float* y) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    )") + GetParam() + R"(
  }
})";
  constexpr int n = 300;
  std::vector<float> x(n);
  for (int i = 0; i < n; ++i) x[i] = 0.25f * static_cast<float>(i) - 7.0f;
  for (int level : {0, 1, 2}) {
    CompileOptions options;
    options.opt_level = level;
    const auto program =
        runtime::AccProgram::FromSource("copy", source, options);
    ASSERT_EQ(program.compiled().functions.at(0).offloads.size(), 1u);
    for (int gpus : {1, 2}) {
      auto platform = sim::MakeDesktopMachine(2);
      std::vector<float> y(n, -1.0f);
      runtime::ProgramRunner runner(
          program, runtime::RunConfig{.platform = platform.get(),
                                      .num_gpus = gpus});
      runner.BindArray("x", x.data(), ir::ValType::kF32, n);
      runner.BindArray("y", y.data(), ir::ValType::kF32, n);
      runner.BindScalar("n", static_cast<std::int64_t>(n));
      runner.Run("copy");
      EXPECT_EQ(y, x) << "opt_level=" << level << " gpus=" << gpus;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Forms, EmptyStatementTest,
    ::testing::Values("y[i] = x[i]; ;",
                      "for (int k = 0; k < 2; k++) ;\n    y[i] = x[i];"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return info.index == 0 ? std::string("AfterStore")
                             : std::string("EmptyInnerLoopBody");
    });

// ---------------------------------------------------------------------------
// Offload fusion legality (the optimizing mid-end, translator/opt.h)
// ---------------------------------------------------------------------------

/// Total fusions recorded in the compiled program: a fused offload with k
/// constituents counts as k-1.
int FusionCount(const CompiledProgram& program) {
  int fusions = 0;
  for (const auto& fn : program.functions) {
    for (const auto& offload : fn.offloads) {
      if (!offload.fused.empty()) {
        fusions += static_cast<int>(offload.fused.size()) - 1;
      }
    }
  }
  return fusions;
}

TEST(FusionTest, AdjacentSameThreadLoopsFuse) {
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a, float* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0f; }
})");
  const auto& fn = compiled.program.functions.at(0);
  ASSERT_EQ(fn.offloads.size(), 1u);
  EXPECT_EQ(FusionCount(compiled.program), 1);
  // The merged offload takes the first constituent's name plus a marker,
  // and the second loop's statement is recorded as absorbed.
  EXPECT_NE(fn.offloads[0].name.find("_fused"), std::string::npos);
  EXPECT_EQ(fn.fused_away.size(), 1u);
  // Unfused compilation of the same source keeps both offloads.
  const Compiled unfused = CompileSource(R"(
void f(int n, float* a, float* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0f; }
})", /*opt_level=*/0);
  EXPECT_EQ(unfused.program.functions.at(0).offloads.size(), 2u);
  EXPECT_EQ(FusionCount(unfused.program), 0);
}

TEST(FusionTest, CrossOffloadRawDependenceBails) {
  // The second loop reads a[i+1], written by the first on a DIFFERENT
  // thread: fusing would read the stale value. Must stay two offloads.
  const Compiled compiled = CompileSource(R"(
void f(int n, float* a, float* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { b[i] = a[i + 1]; }
})");
  EXPECT_EQ(compiled.program.functions.at(0).offloads.size(), 2u);
  EXPECT_EQ(FusionCount(compiled.program), 0);
}

TEST(FusionTest, MismatchedIterationSpacesBail) {
  const Compiled compiled = CompileSource(R"(
void f(int n, int m, float* a, float* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < m; i++) { b[i] = 2.0f; }
})");
  EXPECT_EQ(compiled.program.functions.at(0).offloads.size(), 2u);
  EXPECT_EQ(FusionCount(compiled.program), 0);
}

TEST(FusionTest, ReductionDestinationArrayBails) {
  // `hist` is a reduction-destination array in the first loop and an
  // ordinary read in the second: merging would interleave the partial
  // reduction with its consumer. Must stay two offloads.
  const Compiled compiled = CompileSource(R"(
void f(int n, int k, int* idx, float* hist, float* out) {
  #pragma acc reductiontoarray(+: hist[0:k])
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { hist[idx[i]] = hist[idx[i]] + 1.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { out[i] = hist[idx[i]]; }
})");
  EXPECT_EQ(compiled.program.functions.at(0).offloads.size(), 2u);
  EXPECT_EQ(FusionCount(compiled.program), 0);
}

TEST(FusionTest, ShadowedDeclarationBails) {
  // The first loop's induction `i` shadows the function parameter `i` that
  // the second loop captures as a kernel scalar. In the merged kernel the
  // parameter would collide with the primary induction at function scope,
  // so the name-collision check must refuse the merge.
  const Compiled compiled = CompileSource(R"(
void f(int n, float i, float* a, float* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
  #pragma acc parallel loop
  for (int j = 0; j < n; j++) { b[j] = i; }
})");
  EXPECT_EQ(compiled.program.functions.at(0).offloads.size(), 2u);
  EXPECT_EQ(FusionCount(compiled.program), 0);
}

TEST(FusionTest, BodyLocalShadowingIsSafeToFuse) {
  // A body-local redeclaration of a name the other loop captures as a
  // parameter is NOT a collision: each constituent keeps its own scope in
  // the merged kernel, so these two loops legally fuse.
  const Compiled compiled = CompileSource(R"(
void f(int n, float s, float* a, float* b) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = s; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { float s = 2.0f; b[i] = s; }
})");
  EXPECT_EQ(compiled.program.functions.at(0).offloads.size(), 1u);
  EXPECT_EQ(FusionCount(compiled.program), 1);
}

TEST(FusionTest, MismatchedColsSpecsBail) {
  // Two otherwise-fusable loops whose localaccess specs disagree on the
  // 2-D row length of a rider array: merging would leave the fused offload
  // with two irreconcilable ownership shapes for `w`, so it must bail.
  const Compiled mismatch = CompileSource(R"(
void f(int n, float* a, float* b, float* w) {
  #pragma acc localaccess(a: stride(1)) (w: cols(8))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = w[i * 8]; }
  #pragma acc localaccess(a: stride(1)) (w: cols(2))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { b[i] = a[i] + w[i * 2]; }
})");
  EXPECT_EQ(mismatch.program.functions.at(0).offloads.size(), 2u);
  EXPECT_EQ(FusionCount(mismatch.program), 0);

  // Control: identical cols specs fuse.
  const Compiled match = CompileSource(R"(
void f(int n, float* a, float* b, float* w) {
  #pragma acc localaccess(a: stride(1)) (w: cols(8))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = w[i * 8]; }
  #pragma acc localaccess(a: stride(1)) (w: cols(8))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { b[i] = a[i] + w[i * 8]; }
})");
  EXPECT_EQ(match.program.functions.at(0).offloads.size(), 1u);
  EXPECT_EQ(FusionCount(match.program), 1);
}

/// One adjacent parallel loop per character of `pattern`, each with a
/// 16-temporary body. 'f' updates a[i] from a[i] and b[i], so runs of 'f'
/// fuse; 'n' writes b[i] from a[i + 1] (clamped), which the loop before
/// wrote on another thread, so fusion is refused on both of its sides.
std::string ChainSource(const std::string& pattern) {
  std::ostringstream os;
  os << "void chain(int n, float* a, float* b) {\n";
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    const bool neighbour = pattern[k] == 'n';
    os << "  #pragma acc localaccess(a: stride(1)"
       << (neighbour ? ", right(1)" : "") << ") (b: stride(1))\n"
       << "  #pragma acc parallel loop\n"
       << "  for (int i = 0; i < n; i++) {\n";
    if (neighbour) {
      os << "    int r = i + 1;\n    if (r >= n) { r = n - 1; }\n"
         << "    float t0 = a[r] * 0.5f + b[i] * 0.5f + " << k << ".0f;\n";
    } else {
      os << "    float t0 = a[i] * 0.75f + b[i] + " << k << ".0f;\n";
    }
    for (int s = 1; s <= 16; ++s) {
      os << "    float t" << s << " = t" << s - 1 << " * 1.0625f - b[i] * "
         << s << ".5f + " << s << ".25f;\n";
    }
    os << "    " << (neighbour ? 'b' : 'a')
       << "[i] = t16 * 0.125f + t8 * 0.25f + t0 * 0.5f;\n  }\n";
  }
  os << "}\n";
  return os.str();
}

std::string FusibleChainSource(int loops) {
  return ChainSource(std::string(static_cast<std::size_t>(loops), 'f'));
}

/// Compiles at opt level 0, then runs the mid-end explicitly so the test
/// sees its OptStats (Compile at level 0 + OptimizeFunction is Compile at
/// level 1).
OptStats OptimizeSource(const std::string& source, Compiled* out) {
  *out = CompileSource(source, /*opt_level=*/0);
  CompileOptions options;
  options.opt_level = 1;
  OptStats total;
  for (auto& fn : out->program.functions) {
    const OptStats stats = OptimizeFunction(fn, options);
    total.fusions += stats.fusions;
    total.bailouts += stats.bailouts;
    total.cse_hits += stats.cse_hits;
  }
  return total;
}

TEST(FusionTest, LongChainFusesIntoOne) {
  Compiled compiled;
  const OptStats stats = OptimizeSource(FusibleChainSource(96), &compiled);
  const auto& fn = compiled.program.functions.at(0);
  ASSERT_EQ(fn.offloads.size(), 1u);
  EXPECT_EQ(fn.offloads[0].fused.size(), 96u);
  EXPECT_EQ(fn.offloads[0].id, 0);
  EXPECT_EQ(fn.fused_away.size(), 95u);
  EXPECT_EQ(stats.fusions, 95);
  EXPECT_EQ(stats.bailouts, 0);
  EXPECT_EQ(fn.offload_of_stmt.size(), 1u);
  EXPECT_EQ(fn.offload_of_stmt.at(fn.offloads[0].loop), 0);
}

TEST(FusionTest, RefusedBoundaryStaysRefused) {
  // x | y z: y reads a[i + 1], which x wrote on another thread, so the
  // x|y boundary is refused; y and z fuse. The refusal is final — a wider
  // right side (y after absorbing z) can only add facts — so it is counted
  // once.
  Compiled compiled;
  const OptStats stats = OptimizeSource(R"(
void f(int n, float* a, float* b, float* c) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { b[i] = a[i + 1]; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { c[i] = b[i] * 2.0f; }
})", &compiled);
  const auto& fn = compiled.program.functions.at(0);
  ASSERT_EQ(fn.offloads.size(), 2u);
  EXPECT_TRUE(fn.offloads[0].fused.empty());
  ASSERT_EQ(fn.offloads[1].fused.size(), 2u);
  EXPECT_EQ(fn.offloads[1].fused[0].loop->loc.line, 6);
  EXPECT_EQ(fn.offloads[1].fused[1].loop->loc.line, 8);
  EXPECT_EQ(fn.offloads[1].id, 1);
  EXPECT_EQ(fn.offload_of_stmt.at(fn.offloads[1].loop), 1);
  EXPECT_EQ(stats.fusions, 1);
  EXPECT_EQ(stats.bailouts, 1);
}

/// Best of five wall-clock times of compiling `source` at opt level 1.
double MinCompileSeconds(const std::string& source) {
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const Compiled compiled = CompileSource(source, /*opt_level=*/1);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    best = rep == 0 ? seconds : std::min(best, seconds);
  }
  return best;
}

TEST(MidEndScalingTest, EightTimesTheLoopsCostsUnderSixteenTimesTheTime) {
  // A linear mid-end makes 96 loops cost ~8x 12 loops; the bound leaves 2x
  // headroom for noise while still failing a quadratic pass (~64x).
  const double t12 = MinCompileSeconds(FusibleChainSource(12));
  const double t96 = MinCompileSeconds(FusibleChainSource(96));
  EXPECT_LT(t96, 16.0 * t12) << "12 loops: " << t12 * 1e3
                             << " ms, 96 loops: " << t96 * 1e3 << " ms";
}

// ---------------------------------------------------------------------------
// CSE over hand-built kernel IR
// ---------------------------------------------------------------------------

using ir::Opcode;

ir::Instr Op(Opcode op, int dst, int a = -1, int b = -1) {
  ir::Instr in;
  in.op = op;
  in.dst = dst;
  in.a = a;
  in.b = b;
  return in;
}

ir::Instr ConstI(int dst, std::int64_t value) {
  ir::Instr in = Op(Opcode::kConstI, dst);
  in.imm.i = value;
  return in;
}

ir::Instr ConstF(int dst, double value) {
  ir::Instr in = Op(Opcode::kConstF, dst);
  in.imm.f = value;
  return in;
}

ir::Instr Load(int dst, int arr, int index) {
  ir::Instr in = Op(Opcode::kLoad, dst, index);
  in.arr = arr;
  return in;
}

ir::Instr Store(int arr, int index, int value) {
  ir::Instr in = Op(Opcode::kStore, -1, index, value);
  in.arr = arr;
  return in;
}

ir::Instr Br(std::int64_t target) {
  ir::Instr in = Op(Opcode::kBr, -1);
  in.imm.i = target;
  return in;
}

/// A kernel over two i64 arrays, x (index 0) and y (index 1); r0 is the
/// thread id.
ir::KernelIR CseKernel(int num_regs, std::vector<ir::Instr> code) {
  ir::KernelIR kernel;
  kernel.name = "cse";
  kernel.arrays = {{"x", ir::ValType::kI64, true, true},
                   {"y", ir::ValType::kI64, true, true}};
  kernel.num_regs = num_regs;
  kernel.code = std::move(code);
  kernel.code.push_back(Op(Opcode::kRet, -1));
  return kernel;
}

int CountOp(const ir::KernelIR& kernel, Opcode op) {
  return static_cast<int>(
      std::count_if(kernel.code.begin(), kernel.code.end(),
                    [op](const ir::Instr& in) { return in.op == op; }));
}

TEST(CseTest, RepeatedPureOpHits) {
  ir::KernelIR kernel = CseKernel(
      4, {ConstI(1, 4), Op(Opcode::kMulI, 2, 0, 1), Op(Opcode::kMulI, 3, 0, 1),
          Store(0, 0, 3)});
  EXPECT_EQ(CsePass(kernel), 1);
  EXPECT_EQ(CountOp(kernel, Opcode::kMulI), 1);
  EXPECT_EQ(CountOp(kernel, Opcode::kMov), 0);
  ASSERT_EQ(kernel.code.size(), 4u);
  EXPECT_EQ(kernel.code[2].op, Opcode::kStore);
  EXPECT_EQ(kernel.code[2].b, 2);  // the first product's register
}

TEST(CseTest, StoreToTheArrayKillsEarlierLoad) {
  // x[tid] is stored between the two loads: the second must reload.
  ir::KernelIR killed = CseKernel(
      4, {Load(1, 0, 0), Store(0, 0, 0), Load(2, 0, 0),
          Op(Opcode::kAddI, 3, 1, 2), Store(1, 0, 3)});
  EXPECT_EQ(CsePass(killed), 0);
  EXPECT_EQ(CountOp(killed, Opcode::kLoad), 2);

  // A store to another array leaves the load available.
  ir::KernelIR kept = CseKernel(
      4, {Load(1, 0, 0), Store(1, 0, 0), Load(2, 0, 0),
          Op(Opcode::kAddI, 3, 1, 2), Store(1, 0, 3)});
  EXPECT_EQ(CsePass(kept), 1);
  EXPECT_EQ(CountOp(kept, Opcode::kLoad), 1);
}

TEST(CseTest, OverwrittenRepresentativeIsNotReused) {
  // r1 holds tid+tid until it is overwritten with 7; the later tid+tid must
  // be recomputed, not copied from r1.
  ir::KernelIR kernel = CseKernel(
      4, {Op(Opcode::kAddI, 1, 0, 0), Store(0, 0, 1), ConstI(1, 7),
          Op(Opcode::kAddI, 2, 0, 0), Op(Opcode::kAddI, 3, 1, 2),
          Store(1, 0, 3)});
  EXPECT_EQ(CsePass(kernel), 0);
  EXPECT_EQ(CountOp(kernel, Opcode::kMov), 0);
  EXPECT_EQ(CountOp(kernel, Opcode::kAddI), 3);
  EXPECT_EQ(kernel.code[3].op, Opcode::kAddI);
  EXPECT_EQ(kernel.code[3].dst, 2);
}

TEST(CseTest, MovIsCopyPropagated) {
  ir::KernelIR kernel = CseKernel(
      3, {Op(Opcode::kAddI, 1, 0, 0), Op(Opcode::kMov, 2, 1), Store(0, 0, 2)});
  EXPECT_EQ(CsePass(kernel), 0);
  EXPECT_EQ(CountOp(kernel, Opcode::kMov), 0);
  ASSERT_EQ(kernel.code.size(), 3u);
  EXPECT_EQ(kernel.code[1].op, Opcode::kStore);
  EXPECT_EQ(kernel.code[1].b, 1);
}

TEST(CseTest, CommutativeIntOperandsCanonicalizedFloatsNotSwapped) {
  ir::KernelIR kernel = CseKernel(
      10, {ConstI(1, 3), Op(Opcode::kAddI, 2, 0, 1), Op(Opcode::kAddI, 3, 1, 0),
           Op(Opcode::kI2F, 4, 0), ConstF(5, 2.0), Op(Opcode::kAddF, 6, 4, 5),
           Op(Opcode::kAddF, 7, 5, 4), Op(Opcode::kAddI, 8, 2, 3),
           Store(0, 0, 8), Op(Opcode::kAddF, 9, 6, 7), Store(1, 0, 9)});
  // Only the swapped integer add is a hit; the swapped float add is kept.
  EXPECT_EQ(CsePass(kernel), 1);
  EXPECT_EQ(CountOp(kernel, Opcode::kAddI), 2);
  EXPECT_EQ(CountOp(kernel, Opcode::kAddF), 3);
}

TEST(CseTest, DeadMovChainIsFullySwept) {
  // Each copy sits in its own basic block, so value numbering cannot
  // shorten the chain; only the dead-code sweep can remove it, one link
  // at a time from the unread end.
  ir::KernelIR kernel = CseKernel(
      5, {ConstI(1, 1), Br(2), Op(Opcode::kMov, 2, 1), Br(4),
          Op(Opcode::kMov, 3, 2), Br(6), Op(Opcode::kMov, 4, 3)});
  EXPECT_EQ(CsePass(kernel), 0);
  EXPECT_EQ(CountOp(kernel, Opcode::kMov), 0);
  EXPECT_EQ(CountOp(kernel, Opcode::kConstI), 0);
  ASSERT_EQ(kernel.code.size(), 4u);
  EXPECT_EQ(kernel.code[0].imm.i, 1);
  EXPECT_EQ(kernel.code[1].imm.i, 2);
  EXPECT_EQ(kernel.code[2].imm.i, 3);
  EXPECT_EQ(kernel.code[3].op, Opcode::kRet);
}

// ---------------------------------------------------------------------------
// Golden mid-end output: SHA-256 of ir::Print of every offload, plus the
// source lines of the loops fused into it, for the six apps at O1 and O2.
// ---------------------------------------------------------------------------

struct GoldenOffload {
  std::string name;
  std::vector<int> loop_lines;  ///< constituent loops, source order
  std::string ir_sha256;

  bool operator==(const GoldenOffload& o) const {
    return name == o.name && loop_lines == o.loop_lines &&
           ir_sha256 == o.ir_sha256;
  }
};

void PrintTo(const GoldenOffload& g, std::ostream* os) {
  *os << "{\"" << g.name << "\", {";
  for (const int line : g.loop_lines) *os << line << ", ";
  *os << "}, \"" << g.ir_sha256 << "\"}";
}

struct OptGoldenCase {
  std::string app;
  int opt_level = 1;
  std::vector<GoldenOffload> offloads;
};

void PrintTo(const OptGoldenCase& c, std::ostream* os) {
  *os << c.app << "/O" << c.opt_level;
}

/// Two offloads over different iteration spaces: only the first has an
/// inner loop with invariant work, so at O2 only the first one hoists.
const std::string& HoistPairSource() {
  static const std::string source = R"(
void h(int n, int m, float* a, float* b, float* c) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float s = 0.0f;
    for (int j = 0; j < 4; j++) { s = s + b[i] * 2.0f + a[i] * 0.5f; }
    a[i] = s;
  }
  #pragma acc parallel loop
  for (int i = 0; i < m; i++) {
    float t = c[i] * 3.0f;
    c[i] = t * c[i] + t * c[i];
  }
})";
  return source;
}

const std::string& AppSource(const std::string& app) {
  if (app == "hoist_pair") return HoistPairSource();
  if (app == "mixed_chain") {
    static const std::string source = ChainSource("fnffnfffnf");
    return source;
  }
  if (app == "md") return apps::MdSource();
  if (app == "kmeans") return apps::KmeansSource();
  if (app == "bfs") return apps::BfsSource();
  if (app == "spmv") return apps::SpmvSource();
  if (app == "heat2d") return apps::Heat2dSource();
  return apps::LatticeSource();
}

std::vector<int> LoopLines(const LoopOffload& offload) {
  if (offload.fused.empty()) return {offload.loop->loc.line};
  std::vector<int> lines;
  for (const auto& f : offload.fused) lines.push_back(f.loop->loc.line);
  return lines;
}

std::string IrSha256(const ir::KernelIR& kernel) {
  Sha256 hash;
  hash.Update(ir::Print(kernel));
  return hash.HexDigest();
}

class OptGoldenTest : public ::testing::TestWithParam<OptGoldenCase> {};

TEST_P(OptGoldenTest, IrAndFusedGroupsMatchPinnedValues) {
  const OptGoldenCase& expected = GetParam();
  const Compiled compiled =
      CompileSource(AppSource(expected.app), expected.opt_level);
  std::vector<GoldenOffload> observed;
  for (const auto& fn : compiled.program.functions) {
    for (const auto& offload : fn.offloads) {
      observed.push_back(
          {offload.name, LoopLines(offload), IrSha256(offload.kernel)});
    }
  }
  EXPECT_EQ(observed, expected.offloads);
}

const std::vector<OptGoldenCase>& OptGoldenCases() {
  static const std::vector<OptGoldenCase> cases = {
      // Captured with the restart-after-every-fusion driver and map-based
      // value numbering, before the linear-time mid-end replaced them.
      {"md", 1,
       {{"md_kernel0", {9},
         "a6f7945e3a5ffdb838c4935e91ec98a100064403b1bea8baa0af950e4aaeced7"}}},
      {"md", 2,
       {{"md_kernel0", {9},
         "a6f7945e3a5ffdb838c4935e91ec98a100064403b1bea8baa0af950e4aaeced7"}}},
      {"kmeans", 1,
       {{"kmeans_kernel0_fused", {15, 36},
         "cdb27b6031a3b53c77c8287f913da5367d682ab65a282804df021aec15a4fb96"}}},
      {"kmeans", 2,
       {{"kmeans_kernel0_fused", {15, 36},
         "cdb27b6031a3b53c77c8287f913da5367d682ab65a282804df021aec15a4fb96"}}},
      {"bfs", 1,
       {{"bfs_kernel0", {18},
         "71d569a883d500dedf611348f32faf78f5dd0aae0e27b91c3f942d8c12034f3d"}}},
      {"bfs", 2,
       {{"bfs_kernel0", {18},
         "71d569a883d500dedf611348f32faf78f5dd0aae0e27b91c3f942d8c12034f3d"}}},
      {"spmv", 1,
       {{"spmv_kernel0", {10},
         "28786ca09b7c6d1a5f5e0bd0d08592e7e6ee841461caf8c58b1dfd8e0025a531"}}},
      {"spmv", 2,
       {{"spmv_kernel0", {10},
         "28786ca09b7c6d1a5f5e0bd0d08592e7e6ee841461caf8c58b1dfd8e0025a531"}}},
      {"heat2d", 1,
       {{"heat2d_kernel0", {8},
         "dd1ed8c35402bc8706d66968edb2859e0ae04410507b93378ceff9f4bd96e09d"},
        {"heat2d_kernel1", {25},
         "8ba17e68a1972eafdab877406d2405927fc2bb7a23589488886ba38624792464"}}},
      {"heat2d", 2,
       {{"heat2d_kernel0", {8},
         "dd1ed8c35402bc8706d66968edb2859e0ae04410507b93378ceff9f4bd96e09d"},
        {"heat2d_kernel1", {25},
         "8ba17e68a1972eafdab877406d2405927fc2bb7a23589488886ba38624792464"}}},
      {"lattice", 1,
       {{"lattice_kernel0", {9},
         "a5771ae97c7a76fcd5d0a860fbf23c58e0b061394fd32e93035d21ecfb4a7cda"},
        {"lattice_kernel1", {27},
         "7dbf780dce7543cff3cf0bcf11c061befc7abf8d8c89a8d2cef66cfeff4ac898"}}},
      {"lattice", 2,
       {{"lattice_kernel0", {9},
         "a5771ae97c7a76fcd5d0a860fbf23c58e0b061394fd32e93035d21ecfb4a7cda"},
        {"lattice_kernel1", {27},
         "7dbf780dce7543cff3cf0bcf11c061befc7abf8d8c89a8d2cef66cfeff4ac898"}}},
      {"hoist_pair", 1,
       {{"h_kernel0", {4},
         "8bd6a92a198e4af8e7994e46a045253afa8582fbb757944f7fea9e99ae7ef748"},
        {"h_kernel1", {10},
         "79b97d38c76937665c389ca3c9fa6f5f0fa40d799c8207a96df989fbade5dbaf"}}},
      {"hoist_pair", 2,
       {{"h_kernel0", {4},
         "9fe9ae569f2e7e53f60c5c9320e702fc60c54d28891c43250ff3600ab08cf6c3"},
        {"h_kernel1", {10},
         "79b97d38c76937665c389ca3c9fa6f5f0fa40d799c8207a96df989fbade5dbaf"}}},
      {"mixed_chain", 1,
       {{"chain_kernel0", {4},
         "179d7d767748208c30bc0255fcdba7941633c44df3db8bb940ad9d680d42643e"},
        {"chain_kernel1", {26},
         "8f45cc9ae51bb73abdcc8d19db982b8b09083da75d3acda7b79b3fcac8045dfa"},
        {"chain_kernel2_fused", {50, 72},
         "503c633ced828a0c3b2a26f4aafb6b97af6b8a5d4a700e6e9cd0a691fb2d53aa"},
        {"chain_kernel4", {94},
         "00872f685292eaddbfbbe42d30e6cdc357d3cf00123dc119fc038796028deded"},
        {"chain_kernel5_fused", {118, 140, 162},
         "6824bd31388ceba673be41750b1eb0982b30aceaf81c418fc06a6b2f1861ceb7"},
        {"chain_kernel8", {184},
         "e205cb6c1a51d05138b956a802d8bc36c85d50442f90c2805bae0ace90575c0d"},
        {"chain_kernel9", {208},
         "377ddf0498e9ee3679972fb803e93a3d4e6dd6295834b5746f46421fc8e53489"}}},
      {"mixed_chain", 2,
       {{"chain_kernel0", {4},
         "179d7d767748208c30bc0255fcdba7941633c44df3db8bb940ad9d680d42643e"},
        {"chain_kernel1", {26},
         "8f45cc9ae51bb73abdcc8d19db982b8b09083da75d3acda7b79b3fcac8045dfa"},
        {"chain_kernel2_fused", {50, 72},
         "503c633ced828a0c3b2a26f4aafb6b97af6b8a5d4a700e6e9cd0a691fb2d53aa"},
        {"chain_kernel4", {94},
         "00872f685292eaddbfbbe42d30e6cdc357d3cf00123dc119fc038796028deded"},
        {"chain_kernel5_fused", {118, 140, 162},
         "6824bd31388ceba673be41750b1eb0982b30aceaf81c418fc06a6b2f1861ceb7"},
        {"chain_kernel8", {184},
         "e205cb6c1a51d05138b956a802d8bc36c85d50442f90c2805bae0ace90575c0d"},
        {"chain_kernel9", {208},
         "377ddf0498e9ee3679972fb803e93a3d4e6dd6295834b5746f46421fc8e53489"}}},
  };
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, OptGoldenTest, ::testing::ValuesIn(OptGoldenCases()),
    [](const ::testing::TestParamInfo<OptGoldenCase>& info) {
      return info.param.app + "_O" + std::to_string(info.param.opt_level);
    });

}  // namespace
}  // namespace accmg::translator
