// Unit tests for the translator: offload extraction, access analysis,
// write-locality proofs, host evaluation, and the CUDA codegen artifact.
#include <gtest/gtest.h>

#include "common/error.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "translator/cuda_codegen.h"
#include "translator/eval.h"
#include "translator/offload.h"

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

}  // namespace
}  // namespace accmg::translator
