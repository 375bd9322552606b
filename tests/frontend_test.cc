// Unit tests for the mini-C + OpenACC frontend: lexer, parser, pragma
// parsing, semantic analysis.
#include <gtest/gtest.h>

#include "common/error.h"
#include "frontend/ast.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "support/printer.h"

namespace accmg::frontend {
namespace {

std::vector<Token> Lex(const std::string& text) {
  SourceBuffer buffer("test.c", text);
  return Lexer(buffer).LexAll();
}

std::unique_ptr<Program> Analyze(const std::string& text) {
  SourceBuffer buffer("test.c", text);
  return ParseAndAnalyze(buffer);
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  const auto tokens = Lex("int x = 42;");
  ASSERT_EQ(tokens.size(), 6u);  // int x = 42 ; EOF
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_EQ(tokens[4].kind, TokenKind::kSemicolon);
  EXPECT_EQ(tokens[5].kind, TokenKind::kEndOfFile);
}

TEST(LexerTest, FloatLiterals) {
  const auto tokens = Lex("1.5 2e3 3.25f 0.5F 7f");
  EXPECT_EQ(tokens[0].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 1.5);
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 2000.0);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 3.25);
  EXPECT_NE(tokens[2].text.find('f'), std::string::npos);  // f32 marker kept
  EXPECT_NE(tokens[3].text.find('f'), std::string::npos);
  EXPECT_EQ(tokens[4].kind, TokenKind::kFloatLiteral);  // 7f is float
}

TEST(LexerTest, HexAndSuffixedIntegers) {
  const auto tokens = Lex("0xFF 10L 5u");
  EXPECT_EQ(tokens[0].int_value, 255);
  EXPECT_EQ(tokens[1].int_value, 10);
  EXPECT_EQ(tokens[2].int_value, 5);
}

TEST(LexerTest, TwoCharOperators) {
  const auto tokens = Lex("<= >= == != && || << >> += -= ++ --");
  const TokenKind expected[] = {
      TokenKind::kLe,        TokenKind::kGe,         TokenKind::kEq,
      TokenKind::kNe,        TokenKind::kAmpAmp,     TokenKind::kPipePipe,
      TokenKind::kShl,       TokenKind::kShr,        TokenKind::kPlusAssign,
      TokenKind::kMinusAssign, TokenKind::kPlusPlus, TokenKind::kMinusMinus,
  };
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto tokens = Lex("a // line comment\n /* block \n comment */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, PragmaLineBecomesOneToken) {
  const auto tokens = Lex("#pragma acc parallel loop\nint x;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kPragma);
  EXPECT_EQ(tokens[0].text, "pragma acc parallel loop");
  EXPECT_EQ(tokens[1].kind, TokenKind::kKwInt);
}

TEST(LexerTest, PragmaBackslashContinuation) {
  const auto tokens = Lex("#pragma acc data \\\n copyin(x[0:n])\n;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kPragma);
  EXPECT_NE(tokens[0].text.find("copyin"), std::string::npos);
}

TEST(LexerTest, HashMidLineIsAnError) {
  EXPECT_THROW(Lex("int x = #pragma;"), CompileError);
}

TEST(LexerTest, UnterminatedCommentIsAnError) {
  EXPECT_THROW(Lex("/* never closed"), CompileError);
}

TEST(LexerTest, TracksLocations) {
  const auto tokens = Lex("a\n  b");
  EXPECT_EQ(tokens[0].location.line, 1);
  EXPECT_EQ(tokens[0].location.column, 1);
  EXPECT_EQ(tokens[1].location.line, 2);
  EXPECT_EQ(tokens[1].location.column, 3);
}

// ---------------------------------------------------------------------------
// Expression parsing
// ---------------------------------------------------------------------------

TEST(ParserTest, PrecedenceMulBeforeAdd) {
  const ExprPtr expr = Parser::ParseExpressionString("1 + 2 * 3");
  const auto& add = As<BinaryExpr>(*expr);
  EXPECT_EQ(add.op, BinaryOp::kAdd);
  EXPECT_EQ(As<BinaryExpr>(*add.rhs).op, BinaryOp::kMul);
}

TEST(ParserTest, PrecedenceComparisonBelowArithmetic) {
  const ExprPtr expr = Parser::ParseExpressionString("a + 1 < b * 2");
  EXPECT_EQ(As<BinaryExpr>(*expr).op, BinaryOp::kLt);
}

TEST(ParserTest, LogicalOperatorsLowest) {
  const ExprPtr expr = Parser::ParseExpressionString("a < b && c > d || e");
  EXPECT_EQ(As<BinaryExpr>(*expr).op, BinaryOp::kLogicalOr);
}

TEST(ParserTest, ConditionalExpression) {
  const ExprPtr expr = Parser::ParseExpressionString("a ? b : c ? d : e");
  const auto& cond = As<ConditionalExpr>(*expr);
  EXPECT_EQ(cond.else_expr->kind, ExprKind::kConditional);  // right assoc
}

TEST(ParserTest, SubscriptChains) {
  const ExprPtr expr = Parser::ParseExpressionString("a[b[i] + 1]");
  const auto& outer = As<SubscriptExpr>(*expr);
  EXPECT_EQ(outer.base->kind, ExprKind::kVarRef);
  EXPECT_EQ(outer.index->kind, ExprKind::kBinary);
}

TEST(ParserTest, CastVsParenthesizedExpr) {
  const ExprPtr cast = Parser::ParseExpressionString("(float)x");
  EXPECT_EQ(cast->kind, ExprKind::kCast);
  const ExprPtr paren = Parser::ParseExpressionString("(x)");
  EXPECT_EQ(paren->kind, ExprKind::kVarRef);
}

TEST(ParserTest, UnaryOperators) {
  EXPECT_EQ(Parser::ParseExpressionString("-x")->kind, ExprKind::kUnary);
  EXPECT_EQ(Parser::ParseExpressionString("!x")->kind, ExprKind::kUnary);
  EXPECT_EQ(Parser::ParseExpressionString("~x")->kind, ExprKind::kUnary);
  // Unary plus is a no-op.
  EXPECT_EQ(Parser::ParseExpressionString("+x")->kind, ExprKind::kVarRef);
}

TEST(ParserTest, CallWithArguments) {
  const ExprPtr expr = Parser::ParseExpressionString("fminf(a, b + 1)");
  const auto& call = As<CallExpr>(*expr);
  EXPECT_EQ(call.callee, "fminf");
  EXPECT_EQ(call.args.size(), 2u);
}

TEST(ParserTest, TrailingTokensRejected) {
  EXPECT_THROW(Parser::ParseExpressionString("a b"), CompileError);
}

// ---------------------------------------------------------------------------
// Statement / function parsing
// ---------------------------------------------------------------------------

TEST(ParserTest, FunctionWithParams) {
  const auto program = Analyze("void f(int n, float* x, const double* y) {}");
  ASSERT_EQ(program->functions.size(), 1u);
  const Function& fn = *program->functions[0];
  EXPECT_EQ(fn.name, "f");
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_FALSE(fn.params[0]->type.is_pointer);
  EXPECT_TRUE(fn.params[1]->type.is_pointer);
  EXPECT_EQ(fn.params[1]->type.scalar, ScalarType::kFloat32);
  EXPECT_TRUE(fn.params[2]->type.is_const);
}

TEST(ParserTest, ArrayParamBracketSyntax) {
  const auto program = Analyze("void f(int n, float x[]) {}");
  EXPECT_TRUE(program->functions[0]->params[1]->type.is_pointer);
}

TEST(ParserTest, ForLoopWithIncrement) {
  const auto program = Analyze(R"(
void f(int n) {
  int total = 0;
  for (int i = 0; i < n; i++) {
    total = total + i;
  }
})");
  const auto& body = program->functions[0]->body->body;
  ASSERT_EQ(body.size(), 2u);
  EXPECT_EQ(body[1]->kind, StmtKind::kFor);
  const auto& loop = As<ForStmt>(*body[1]);
  EXPECT_EQ(loop.init->kind, StmtKind::kDecl);
  EXPECT_EQ(loop.step->kind, StmtKind::kAssign);
}

TEST(ParserTest, IfElseChains) {
  const auto program = Analyze(R"(
void f(int a) {
  int r = 0;
  if (a > 0) { r = 1; } else if (a < 0) { r = 2; } else { r = 3; }
})");
  const auto& if_stmt = As<IfStmt>(*program->functions[0]->body->body[1]);
  ASSERT_NE(if_stmt.else_stmt, nullptr);
  EXPECT_EQ(if_stmt.else_stmt->kind, StmtKind::kIf);
}

TEST(ParserTest, WhileBreakContinue) {
  const auto program = Analyze(R"(
void f(int n) {
  int i = 0;
  while (i < n) {
    i++;
    if (i == 3) { continue; }
    if (i == 7) { break; }
  }
})");
  EXPECT_EQ(program->functions[0]->body->body[1]->kind, StmtKind::kWhile);
}

TEST(ParserTest, CompoundAssignments) {
  const auto program = Analyze(R"(
void f(float* a, int n) {
  int i = 0;
  i += 2; i -= 1; i *= 3;
  a[i] /= 2.0f;
})");
  (void)program;
}

TEST(ParserTest, EmptyStatementAnchorsPragma) {
  const auto program = Analyze(R"(
void f(float* a, int n) {
  #pragma acc data copy(a[0:n])
  {
    #pragma acc update host(a)
    ;
  }
})");
  (void)program;
}

// ---------------------------------------------------------------------------
// Pragma parsing
// ---------------------------------------------------------------------------

const Stmt& FirstStmt(const Program& program) {
  return *program.functions[0]->body->body[0];
}

// ---------------------------------------------------------------------------
// The shared traversal (ast.h)
// ---------------------------------------------------------------------------

using AccessList = std::vector<std::pair<std::string, Access>>;

/// Parses `stmt` as the first statement of a function over arrays a, b (float)
/// and p, q, r (int) and returns that statement's owning program.
std::unique_ptr<Program> AnalyzeStmt(const std::string& stmt) {
  return Analyze("void f(int i, float s, float* a, float* b, int* p, int* q, "
                 "int* r) {\n" +
                 stmt + "\n}");
}

AccessList ArrayAccesses(const Stmt& stmt) {
  AccessList out;
  ForEachArrayAccess(stmt, [&](const SubscriptExpr& sub, Access access) {
    out.emplace_back(As<VarRef>(*sub.base).name, access);
  });
  return out;
}

TEST(AstWalkTest, ClassifiesArrayAccessesShallowly) {
  constexpr Access R = Access::kRead;
  constexpr Access W = Access::kWrite;
  constexpr Access RW = Access::kReadWrite;
  const struct {
    const char* stmt;
    AccessList expected;
  } cases[] = {
      {"float x = a[i] + b[p[i]];", {{"a", R}, {"b", R}, {"p", R}}},
      {"a[p[i]] = b[q[i]];", {{"a", W}, {"p", R}, {"b", R}, {"q", R}}},
      {"a[p[i]] += b[i];", {{"a", RW}, {"p", R}, {"b", R}}},
      {"s = a[i];", {{"a", R}}},
      {"fabs(a[i]);", {{"a", R}}},
      {";", {}},
      {"if (a[i] > s) { b[i] = s; } else { b[p[i]] = s; }", {{"a", R}}},
      {"for (int j = p[0]; j < q[0]; j += r[0]) { a[j] = s; }", {{"q", R}}},
      {"for (;;) { a[i] = s; }", {}},
      {"while (a[i] < s) { a[i] += 1.0f; }", {{"a", R}}},
      {"{ a[i] = b[i]; }", {}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.stmt);
    const auto program = AnalyzeStmt(c.stmt);
    EXPECT_EQ(ArrayAccesses(FirstStmt(*program)), c.expected);
  }
}

TEST(AstWalkTest, ForLoopVisitsCondInitStepBody) {
  // The translator collects kernel parameters in this order, so it fixes
  // the kernel signature.
  const auto program = AnalyzeStmt(
      "for (int j = p[0]; j < q[0]; j += r[0]) { a[j] = b[j]; }");
  AccessList deep;
  WalkStmts(FirstStmt(*program), [&](const Stmt& stmt) {
    for (auto& access : ArrayAccesses(stmt)) deep.push_back(access);
  });
  EXPECT_EQ(deep, (AccessList{{"q", Access::kRead},
                              {"p", Access::kRead},
                              {"r", Access::kRead},
                              {"a", Access::kWrite},
                              {"b", Access::kRead}}));

  std::vector<std::string> names;
  WalkStmts(FirstStmt(*program), [&](const Stmt& stmt) {
    ForEachExprInStmt(stmt, [&](const Expr& expr) {
      if (expr.kind == ExprKind::kVarRef) {
        names.push_back(As<VarRef>(expr).name);
      }
    });
  });
  EXPECT_EQ(names, (std::vector<std::string>{"j", "q", "p", "j", "r", "a",
                                             "j", "b", "j"}));
}


TEST(PragmaTest, DataClauses) {
  const auto program = Analyze(R"(
void f(float* a, float* b, float* c, float* d, int n) {
  #pragma acc data copy(a[0:n]) copyin(b[0:n], c[0:n]) create(d[0:n])
  { }
})");
  const Directive* data = FirstStmt(*program).FindDirective(DirectiveKind::kData);
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->data_clauses.size(), 3u);
  EXPECT_EQ(data->data_clauses[0].kind, DataClauseKind::kCopy);
  EXPECT_EQ(data->data_clauses[1].kind, DataClauseKind::kCopyIn);
  EXPECT_EQ(data->data_clauses[1].sections.size(), 2u);
  EXPECT_EQ(data->data_clauses[2].kind, DataClauseKind::kCreate);
}

TEST(PragmaTest, ParallelLoopCombined) {
  const auto program = Analyze(R"(
void f(float* a, int n) {
  #pragma acc parallel loop copyin(a[0:n])
  for (int i = 0; i < n; i++) { int x = 0; }
})");
  const Directive* parallel =
      FirstStmt(*program).FindDirective(DirectiveKind::kParallel);
  ASSERT_NE(parallel, nullptr);
  EXPECT_TRUE(parallel->combined_loop);
}

TEST(PragmaTest, ReductionClause) {
  const auto program = Analyze(R"(
void f(double* x, int n, double s) {
  double sum = 0.0;
  #pragma acc parallel loop reduction(+:sum)
  for (int i = 0; i < n; i++) { sum += x[i]; }
  s = sum;
})");
  const Directive* parallel = program->functions[0]
                                  ->body->body[1]
                                  ->FindDirective(DirectiveKind::kParallel);
  ASSERT_NE(parallel, nullptr);
  ASSERT_EQ(parallel->reductions.size(), 1u);
  EXPECT_EQ(parallel->reductions[0].op, ReductionOp::kAdd);
  EXPECT_EQ(parallel->reductions[0].vars, std::vector<std::string>{"sum"});
}

TEST(PragmaTest, ReductionOperators) {
  for (const auto& [spelling, op] :
       {std::pair{"+", ReductionOp::kAdd}, std::pair{"*", ReductionOp::kMul},
        std::pair{"min", ReductionOp::kMin},
        std::pair{"max", ReductionOp::kMax}}) {
    const std::string source = std::string(R"(
void f(double* x, int n) {
  double acc = 0.0;
  #pragma acc parallel loop reduction()") + spelling + R"(:acc)
  for (int i = 0; i < n; i++) { int q = 0; }
})";
    const auto program = Analyze(source);
    const Directive* parallel = program->functions[0]
                                    ->body->body[1]
                                    ->FindDirective(DirectiveKind::kParallel);
    EXPECT_EQ(parallel->reductions[0].op, op) << spelling;
  }
}

TEST(PragmaTest, LocalAccessFullForm) {
  const auto program = Analyze(R"(
void f(float* a, float* b, int n) {
  #pragma acc localaccess(a: stride(3), left(1), right(2)) (b)
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { int x = 0; }
})");
  const Directive* local =
      FirstStmt(*program).FindDirective(DirectiveKind::kLocalAccess);
  ASSERT_NE(local, nullptr);
  ASSERT_EQ(local->local_access.size(), 2u);
  EXPECT_EQ(local->local_access[0].array, "a");
  ASSERT_NE(local->local_access[0].stride, nullptr);
  ASSERT_NE(local->local_access[0].left, nullptr);
  ASSERT_NE(local->local_access[0].right, nullptr);
  EXPECT_EQ(local->local_access[1].array, "b");
  EXPECT_EQ(local->local_access[1].stride, nullptr);  // defaults
}

TEST(PragmaTest, LocalAccessColsForm) {
  const auto program = Analyze(R"(
void f(float* u, float* v, int n, int m) {
  #pragma acc localaccess(u: cols(m), left(1), right(1)) (v: cols(m))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { int x = 0; }
})");
  const Directive* local =
      FirstStmt(*program).FindDirective(DirectiveKind::kLocalAccess);
  ASSERT_NE(local, nullptr);
  ASSERT_EQ(local->local_access.size(), 2u);
  EXPECT_EQ(local->local_access[0].array, "u");
  ASSERT_NE(local->local_access[0].cols, nullptr);
  EXPECT_EQ(local->local_access[0].stride, nullptr);
  ASSERT_NE(local->local_access[0].left, nullptr);
  ASSERT_NE(local->local_access[1].cols, nullptr);
  EXPECT_EQ(local->local_access[1].left, nullptr);
  // The printer round-trips the 2-D form verbatim.
  const std::string text = PrintProgram(*program);
  EXPECT_NE(text.find("cols(m)"), std::string::npos) << text;
  EXPECT_NE(text.find("left(1)"), std::string::npos) << text;
}

TEST(PragmaTest, TwoDSectionsParseAndPrint) {
  const auto program = Analyze(R"(
void f(float* u, int n, int m) {
  #pragma acc data copy(u[0:n][0:m])
  { }
})");
  const Directive* data =
      FirstStmt(*program).FindDirective(DirectiveKind::kData);
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->data_clauses.size(), 1u);
  const ArraySection& section = data->data_clauses[0].sections[0];
  ASSERT_NE(section.lower2, nullptr);
  ASSERT_NE(section.length2, nullptr);
  const std::string text = PrintProgram(*program);
  EXPECT_NE(text.find("u[0:n][0:m]"), std::string::npos) << text;
}

TEST(PragmaTest, StrideAndColsAreMutuallyExclusive) {
  EXPECT_THROW(Analyze(R"(
void f(float* u, int n, int m) {
  #pragma acc localaccess(u: stride(1), cols(m))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { int x = 0; }
})"),
               CompileError);
}

TEST(PragmaTest, ReductionToArray) {
  const auto program = Analyze(R"(
void f(int* hist, int* keys, int n, int k) {
  #pragma acc parallel loop copyin(keys[0:n]) copy(hist[0:k])
  for (int i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: hist[0:k])
    hist[keys[i]] += 1;
  }
})");
  // The annotation sits on the innermost statement.
  const auto& loop = As<ForStmt>(FirstStmt(*program));
  const auto& inner = As<CompoundStmt>(*loop.body).body[0];
  const Directive* red =
      inner->FindDirective(DirectiveKind::kReductionToArray);
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->reduction_to_array->array, "hist");
  EXPECT_EQ(red->reduction_to_array->op, ReductionOp::kAdd);
}

TEST(PragmaTest, UpdateDirective) {
  const auto program = Analyze(R"(
void f(float* a, float* b, int n) {
  #pragma acc data copy(a[0:n], b[0:n])
  {
    #pragma acc update host(a) device(b[0:n])
    ;
  }
})");
  const auto& block = As<CompoundStmt>(FirstStmt(*program));
  const Directive* update =
      block.body[0]->FindDirective(DirectiveKind::kUpdate);
  ASSERT_NE(update, nullptr);
  ASSERT_EQ(update->updates.size(), 2u);
  EXPECT_TRUE(update->updates[0].to_host);
  EXPECT_FALSE(update->updates[1].to_host);
}

TEST(PragmaTest, GangWorkerVectorAccepted) {
  const auto program = Analyze(R"(
void f(float* a, int n) {
  #pragma acc parallel loop gang worker vector_length(128) num_gangs(64)
  for (int i = 0; i < n; i++) { int x = 0; }
})");
  const Directive* parallel =
      FirstStmt(*program).FindDirective(DirectiveKind::kParallel);
  EXPECT_EQ(parallel->vector_length, 128);
  EXPECT_EQ(parallel->num_gangs, 64);
}

TEST(PragmaTest, UnknownDirectiveRejected) {
  EXPECT_THROW(Analyze(R"(
void f(int n) {
  #pragma acc nonsense
  ;
})"),
               CompileError);
}

TEST(PragmaTest, NonAccPragmaRejected) {
  EXPECT_THROW(Analyze(R"(
void f(int n) {
  #pragma omp parallel
  ;
})"),
               CompileError);
}

// ---------------------------------------------------------------------------
// Sema
// ---------------------------------------------------------------------------

TEST(SemaTest, ResolvesTypes) {
  const auto program = Analyze(R"(
void f(int n, float* x) {
  float v = x[n - 1] * 2.0f;
  double d = v + 1;
})");
  const auto& decl = As<DeclStmt>(*program->functions[0]->body->body[0]);
  EXPECT_EQ(decl.init->type.scalar, ScalarType::kFloat32);
}

TEST(SemaTest, CommonTypePromotion) {
  const auto program = Analyze(R"(
void f(int i, float f32, double f64) {
  double a = i + f32;
  double b = f32 + f64;
})");
  const auto& a = As<DeclStmt>(*program->functions[0]->body->body[0]);
  EXPECT_EQ(a.init->type.scalar, ScalarType::kFloat32);
  const auto& b = As<DeclStmt>(*program->functions[0]->body->body[1]);
  EXPECT_EQ(b.init->type.scalar, ScalarType::kFloat64);
}

TEST(SemaTest, ComparisonIsInt) {
  const auto program = Analyze(R"(
void f(float a, float b) {
  int r = a < b;
})");
  const auto& decl = As<DeclStmt>(*program->functions[0]->body->body[0]);
  EXPECT_EQ(decl.init->type.scalar, ScalarType::kInt32);
}

TEST(SemaTest, UndeclaredIdentifier) {
  EXPECT_THROW(Analyze("void f() { int x = nope; }"), CompileError);
}

TEST(SemaTest, Redeclaration) {
  EXPECT_THROW(Analyze("void f(int a) { int a = 0; }"), CompileError);
}

TEST(SemaTest, ShadowingInNestedScopeAllowed) {
  EXPECT_NO_THROW(Analyze("void f(int a) { { int b = a; { int a = b; } } }"));
}

TEST(SemaTest, ShadowedNamesResolveToDistinctDecls) {
  // A shadowed variable must resolve to the innermost declaration, and uses
  // after the inner scope closes must resolve back to the outer one.  Anything
  // keyed on names instead of resolved VarDecl pointers would conflate them.
  const auto program = Analyze(R"(
void f(int n) {
  int x = 1;
  {
    int x = 2;
    n = x;
  }
  n = x;
})");
  const auto& body = program->functions[0]->body->body;
  ASSERT_EQ(body.size(), 3u);
  const auto& outer_decl = As<DeclStmt>(*body[0]);
  const auto& block = As<CompoundStmt>(*body[1]);
  ASSERT_EQ(block.body.size(), 2u);
  const auto& inner_decl = As<DeclStmt>(*block.body[0]);
  const auto& inner_use = As<VarRef>(*As<AssignStmt>(*block.body[1]).value);
  const auto& outer_use = As<VarRef>(*As<AssignStmt>(*body[2]).value);

  EXPECT_NE(outer_decl.decl.get(), inner_decl.decl.get());
  EXPECT_EQ(inner_use.decl, inner_decl.decl.get());
  EXPECT_EQ(outer_use.decl, outer_decl.decl.get());
}

TEST(SemaTest, CannotAssignToArray) {
  EXPECT_THROW(Analyze("void f(float* a, float* b) { a = b; }"),
               CompileError);
}

TEST(SemaTest, CannotAssignToConst) {
  EXPECT_THROW(Analyze("void f(const int n) { n = 3; }"), CompileError);
}

TEST(SemaTest, SubscriptRequiresArray) {
  EXPECT_THROW(Analyze("void f(int n) { int x = n[0]; }"), CompileError);
}

TEST(SemaTest, SubscriptIndexMustBeInt) {
  EXPECT_THROW(Analyze("void f(float* a, float x) { float v = a[x]; }"),
               CompileError);
}

TEST(SemaTest, ModuloRequiresInts) {
  EXPECT_THROW(Analyze("void f(float a) { float b = a % 2.0f; }"),
               CompileError);
}

TEST(SemaTest, UnknownFunctionRejected) {
  EXPECT_THROW(Analyze("void f(float a) { float b = mystery(a); }"),
               CompileError);
}

TEST(SemaTest, BuiltinArityChecked) {
  EXPECT_THROW(Analyze("void f(float a) { float b = sqrtf(a, a); }"),
               CompileError);
}

TEST(SemaTest, LocalPointerRejected) {
  EXPECT_THROW(Analyze("void f(float* a) { float* p = a; }"), CompileError);
}

TEST(SemaTest, DirectiveUnknownArray) {
  EXPECT_THROW(Analyze(R"(
void f(int n) {
  #pragma acc data copy(ghost[0:n])
  { }
})"),
               CompileError);
}

TEST(SemaTest, DirectiveArrayMustBePointer) {
  EXPECT_THROW(Analyze(R"(
void f(int n) {
  #pragma acc data copy(n)
  { }
})"),
               CompileError);
}

TEST(SemaTest, ScalarReductionOnArrayRejected) {
  EXPECT_THROW(Analyze(R"(
void f(float* a, int n) {
  #pragma acc parallel loop reduction(+:a)
  for (int i = 0; i < n; i++) { int x = 0; }
})"),
               CompileError);
}

TEST(SemaTest, AllErrorsReportedTogether) {
  try {
    Analyze("void f() { int x = nope1; int y = nope2; }");
    FAIL();
  } catch (const CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope1"), std::string::npos);
    EXPECT_NE(what.find("nope2"), std::string::npos);
  }
}

}  // namespace
}  // namespace accmg::frontend
