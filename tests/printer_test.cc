// AST printer tests: print(parse(s)) must itself parse, analyze, compile
// and — crucially — be a fixed point (printing is idempotent), so the
// printer is usable for source-to-source tooling. For fully-braced sources
// the round trip is also structurally equivalent.
#include <gtest/gtest.h>

#include "apps/bfs/bfs.h"
#include "apps/kmeans/kmeans.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "support/printer.h"
#include "translator/offload.h"

namespace accmg::frontend {
namespace {

std::unique_ptr<Program> Analyze(const std::string& name,
                                 const std::string& source) {
  SourceBuffer buffer(name, source);
  return ParseAndAnalyze(buffer);
}

void CheckRoundTrip(const std::string& name, const std::string& source) {
  auto original = Analyze(name, source);
  const std::string printed = PrintProgram(*original);

  // The printed text must be valid input...
  auto reparsed = Analyze(name + ":printed", printed);
  // ...that still translates...
  EXPECT_NO_THROW(translator::Compile(*reparsed)) << printed;
  // ...and printing is a fixed point.
  EXPECT_EQ(PrintProgram(*reparsed), printed) << printed;
}

TEST(PrinterTest, AppSourcesRoundTrip) {
  CheckRoundTrip("md", apps::MdSource());
  CheckRoundTrip("kmeans", apps::KmeansSource());
  CheckRoundTrip("bfs", apps::BfsSource());
  CheckRoundTrip("spmv", apps::SpmvSource());
}

TEST(PrinterTest, StructuralEquivalenceForBracedSources) {
  const std::string source = R"(
void f(int n, float* a, float* b) {
  #pragma acc data copyin(a[0:n]) copyout(b[0:n])
  {
    #pragma acc localaccess(a: stride(1), left(1), right(1)) (b: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      float acc = 0.0f;
      for (int d = -1; d <= 1; d++) {
        int j = i + d;
        if (j < 0) {
          j = 0;
        }
        if (j >= n) {
          j = n - 1;
        }
        acc += a[j];
      }
      b[i] = acc / 3.0f;
    }
  }
}
)";
  auto original = Analyze("stencil", source);
  auto reparsed = Analyze("stencil2", PrintProgram(*original));
  EXPECT_TRUE(ProgramsEquivalent(*original, *reparsed))
      << PrintProgram(*original);
}

TEST(PrinterTest, DirectiveRendering) {
  const std::string source = R"(
void f(int n, int k, int* keys, int* hist, float* x) {
  #pragma acc enter data copyin(x[0:n])
  ;
  #pragma acc parallel loop copy(hist[0:k]) copyin(keys[0:n])
  for (int i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: hist[0:k])
    hist[keys[i]] += 1;
  }
  #pragma acc update host(x)
  ;
  #pragma acc exit data delete(x)
  ;
}
)";
  const std::string printed = PrintProgram(*Analyze("d", source));
  EXPECT_NE(printed.find("#pragma acc enter data copyin(x[0:n])"),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("#pragma acc reductiontoarray(+: hist[0:k])"),
            std::string::npos);
  EXPECT_NE(printed.find("#pragma acc update host(x)"), std::string::npos);
  EXPECT_NE(printed.find("#pragma acc exit data delete(x)"),
            std::string::npos);
  CheckRoundTrip("directives", source);
}

TEST(PrinterTest, ExpressionsParenthesizeUnambiguously) {
  const ExprPtr expr =
      Parser::ParseExpressionString("1 + 2 * 3 - -4 / (5 % 2)");
  const std::string printed = PrintExpr(*expr);
  const ExprPtr reparsed = Parser::ParseExpressionString(printed);
  EXPECT_EQ(PrintExpr(*reparsed), printed);
}

TEST(PrinterTest, DoWhileRoundTrips) {
  CheckRoundTrip("dowhile", R"(
void f(int n, int out) {
  int x = n;
  do {
    x = x / 2;
  } while (x > 1);
  out = x;
}
)");
}

}  // namespace
}  // namespace accmg::frontend
