// AST for the mini-C + OpenACC dialect.
//
// Expressions and statements are classic unique_ptr trees. OpenACC directives
// (including the paper's `localaccess` and `reductiontoarray` extensions) are
// parsed into structured Directive values and attached to the statement they
// precede.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frontend/source.h"
#include "frontend/types.h"

namespace accmg::frontend {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : int {
  kIntLiteral,
  kFloatLiteral,
  kVarRef,
  kSubscript,
  kUnary,
  kBinary,
  kCall,
  kCast,
  kConditional,
};

enum class UnaryOp : int { kNeg, kNot, kBitNot };

enum class BinaryOp : int {
  kAdd, kSub, kMul, kDiv, kMod,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kLogicalAnd, kLogicalOr,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
};

const char* BinaryOpSpelling(BinaryOp op);
const char* UnaryOpSpelling(UnaryOp op);

/// Math/intrinsic functions callable inside offloaded loops.
enum class Builtin : int {
  kSqrt, kFabs, kExp, kLog, kPow, kFmin, kFmax, kFloor, kCeil,
  kAbs, kMin, kMax,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  SourceLocation loc;
  Type type;  ///< filled by Sema

  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
};

struct IntLiteral final : Expr {
  std::int64_t value = 0;
  IntLiteral() : Expr(ExprKind::kIntLiteral) {}
};

struct FloatLiteral final : Expr {
  double value = 0;
  bool is_float32 = false;  ///< had the 'f' suffix
  FloatLiteral() : Expr(ExprKind::kFloatLiteral) {}
};

struct VarDecl;  // defined below

struct VarRef final : Expr {
  std::string name;
  const VarDecl* decl = nullptr;  ///< resolved by Sema (non-owning)
  VarRef() : Expr(ExprKind::kVarRef) {}
};

/// base[index]; base must be an array (pointer) variable.
struct SubscriptExpr final : Expr {
  ExprPtr base;  ///< a VarRef after Sema
  ExprPtr index;
  SubscriptExpr() : Expr(ExprKind::kSubscript) {}
};

struct UnaryExpr final : Expr {
  UnaryOp op{};
  ExprPtr operand;
  UnaryExpr() : Expr(ExprKind::kUnary) {}
};

struct BinaryExpr final : Expr {
  BinaryOp op{};
  ExprPtr lhs;
  ExprPtr rhs;
  BinaryExpr() : Expr(ExprKind::kBinary) {}
};

struct CallExpr final : Expr {
  std::string callee;
  Builtin builtin{};  ///< resolved by Sema
  std::vector<ExprPtr> args;
  CallExpr() : Expr(ExprKind::kCall) {}
};

struct CastExpr final : Expr {
  Type target;
  ExprPtr operand;
  CastExpr() : Expr(ExprKind::kCast) {}
};

struct ConditionalExpr final : Expr {
  ExprPtr cond;
  ExprPtr then_expr;
  ExprPtr else_expr;
  ConditionalExpr() : Expr(ExprKind::kConditional) {}
};

// ---------------------------------------------------------------------------
// Directives (OpenACC + the paper's extensions)
// ---------------------------------------------------------------------------

enum class DirectiveKind : int {
  kData,              ///< #pragma acc data <data-clauses> { ... }
  kEnterData,         ///< #pragma acc enter data copyin(...)/create(...)
  kExitData,          ///< #pragma acc exit data copyout(...)/delete(...)
  kParallel,          ///< #pragma acc parallel [loop] ...
  kKernels,           ///< #pragma acc kernels [loop] ...
  kLoop,              ///< #pragma acc loop ...
  kUpdate,            ///< #pragma acc update host(...)/device(...)
  kLocalAccess,       ///< extension: read range of an array per iteration
  kReductionToArray,  ///< extension: reduction statement into array elements
};

const char* DirectiveKindName(DirectiveKind kind);

enum class DataClauseKind : int {
  kCopy,
  kCopyIn,
  kCopyOut,
  kCreate,
  kPresent,
  kDelete,  ///< exit data only: discard the device copy without a copy-back
};

const char* DataClauseKindName(DataClauseKind kind);

/// `name[lower : length]` or the 2-D form `name[lower : length][lower2 :
/// length2]` (a row-major rows x cols view; the second pair is the inner
/// dimension). `lower`/`length` may be null for whole-array forms (resolved
/// by Sema against the enclosing data region); `lower2`/`length2` are null
/// for 1-D sections.
struct ArraySection {
  std::string name;
  ExprPtr lower;
  ExprPtr length;
  ExprPtr lower2;
  ExprPtr length2;
  SourceLocation loc;
};

struct DataClause {
  DataClauseKind kind{};
  std::vector<ArraySection> sections;
};

enum class ReductionOp : int { kAdd, kMul, kMin, kMax };

const char* ReductionOpSpelling(ReductionOp op);

struct ReductionClause {
  ReductionOp op{};
  std::vector<std::string> vars;
};

/// The `localaccess` extension (paper Section III-C): iteration i of the
/// annotated loop reads array elements in
/// [stride*i - left, stride*(i+1) - 1 + right].
///
/// The 2-D extension `cols(m)` declares the array a row-major 2-D grid whose
/// rows have `m` elements and whose outer dimension is iterated by the loop:
/// iteration i touches row i, and `left`/`right` become whole-row halo counts.
/// Effectively stride = m and the element halos are left*m / right*m; `cols`
/// is mutually exclusive with `stride`.
struct LocalAccessSpec {
  std::string array;
  ExprPtr stride;  ///< null means 1
  ExprPtr cols;    ///< null means 1-D; else row length of a 2-D row-major view
  ExprPtr left;    ///< null means 0
  ExprPtr right;   ///< null means 0
  SourceLocation loc;
};

/// The `reductiontoarray` extension: the next statement is a reduction whose
/// destination is `array` (indices dynamic) restricted to [lower, lower+length).
struct ReductionToArraySpec {
  ReductionOp op{};
  std::string array;
  ExprPtr lower;   ///< null means 0
  ExprPtr length;  ///< null means whole array
  SourceLocation loc;
};

struct UpdateClause {
  bool to_host = true;  ///< update host(...) vs update device(...)
  std::vector<ArraySection> sections;
};

struct Directive {
  DirectiveKind kind{};
  SourceLocation loc;

  std::vector<DataClause> data_clauses;
  std::vector<ReductionClause> reductions;
  std::vector<LocalAccessSpec> local_access;
  std::optional<ReductionToArraySpec> reduction_to_array;
  std::vector<UpdateClause> updates;

  bool combined_loop = false;  ///< `parallel loop` / `kernels loop`
  bool independent = false;
  std::int64_t num_gangs = 0;      ///< 0 = unspecified
  std::int64_t vector_length = 0;  ///< 0 = unspecified
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : int {
  kDecl,
  kAssign,
  kExpr,
  kIf,
  kFor,
  kWhile,
  kCompound,
  kReturn,
  kBreak,
  kContinue,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;
  SourceLocation loc;
  /// Directives written immediately before this statement.
  std::vector<Directive> directives;

  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;

  bool HasDirective(DirectiveKind k) const {
    for (const auto& d : directives) {
      if (d.kind == k) return true;
    }
    return false;
  }
  const Directive* FindDirective(DirectiveKind k) const {
    for (const auto& d : directives) {
      if (d.kind == k) return &d;
    }
    return nullptr;
  }
};

/// A named variable (parameter or local). Owned by the Function (params) or
/// the declaring DeclStmt (locals); referenced by VarRef::decl.
struct VarDecl {
  std::string name;
  Type type;
  SourceLocation loc;
  bool is_param = false;
  int id = -1;  ///< dense index assigned by Sema, stable within a Function
};

struct DeclStmt final : Stmt {
  std::unique_ptr<VarDecl> decl;
  ExprPtr init;  ///< may be null
  DeclStmt() : Stmt(StmtKind::kDecl) {}
};

enum class AssignOp : int { kAssign, kAddAssign, kSubAssign, kMulAssign, kDivAssign };

struct AssignStmt final : Stmt {
  ExprPtr target;  ///< VarRef or SubscriptExpr
  AssignOp op{};
  ExprPtr value;
  AssignStmt() : Stmt(StmtKind::kAssign) {}
};

struct ExprStmt final : Stmt {
  ExprPtr expr;
  ExprStmt() : Stmt(StmtKind::kExpr) {}
};

struct IfStmt final : Stmt {
  ExprPtr cond;
  StmtPtr then_stmt;
  StmtPtr else_stmt;  ///< may be null
  IfStmt() : Stmt(StmtKind::kIf) {}
};

struct ForStmt final : Stmt {
  StmtPtr init;  ///< DeclStmt or AssignStmt; may be null
  ExprPtr cond;  ///< may be null (treated as true)
  StmtPtr step;  ///< AssignStmt; may be null
  StmtPtr body;
  ForStmt() : Stmt(StmtKind::kFor) {}
};

struct WhileStmt final : Stmt {
  ExprPtr cond;
  StmtPtr body;
  /// do { body } while (cond);  — body runs before the first test.
  bool is_do_while = false;
  WhileStmt() : Stmt(StmtKind::kWhile) {}
};

struct CompoundStmt final : Stmt {
  std::vector<StmtPtr> body;
  CompoundStmt() : Stmt(StmtKind::kCompound) {}
};

struct ReturnStmt final : Stmt {
  ExprPtr value;  ///< may be null
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
};

struct BreakStmt final : Stmt {
  BreakStmt() : Stmt(StmtKind::kBreak) {}
};

struct ContinueStmt final : Stmt {
  ContinueStmt() : Stmt(StmtKind::kContinue) {}
};

// ---------------------------------------------------------------------------
// Functions and programs
// ---------------------------------------------------------------------------

struct Function {
  std::string name;
  Type return_type;
  std::vector<std::unique_ptr<VarDecl>> params;
  std::unique_ptr<CompoundStmt> body;
  SourceLocation loc;
};

struct Program {
  std::vector<std::unique_ptr<Function>> functions;

  const Function* FindFunction(const std::string& name) const {
    for (const auto& f : functions) {
      if (f->name == name) return f.get();
    }
    return nullptr;
  }
};

// ---------------------------------------------------------------------------
// Traversal: the one walk every analysis builds on
// ---------------------------------------------------------------------------

/// Calls `fn` on `expr` and then on each sub-expression, pre-order and left
/// to right (a subscript's base before its index).
void WalkExprs(const Expr& expr, const std::function<void(const Expr&)>& fn);

/// Calls `fn` on `stmt` and then on each nested statement, pre-order. A
/// for-loop's children are its init, step and body, in that order.
void WalkStmts(const Stmt& stmt, const std::function<void(const Stmt&)>& fn);

/// Shallow: walks (WalkExprs) the expressions `stmt` holds itself — a decl's
/// initializer, an assignment's target then value, an expression statement,
/// a return value, an if/for/while condition — and none of its nested
/// statements. Absent parts (an empty statement, a missing for condition)
/// are skipped. WalkStmts + ForEachExprInStmt therefore visits a for-loop
/// as cond, init, step, body.
void ForEachExprInStmt(const Stmt& stmt,
                       const std::function<void(const Expr&)>& fn);

/// How a statement touches an array element.
enum class Access : int {
  kRead,
  kWrite,      ///< target of a plain assignment `a[i] = v`
  kReadWrite,  ///< target of a compound assignment `a[i] += v`
};

/// Shallow, in ForEachExprInStmt order: calls `fn` for every subscript in
/// the expressions `stmt` holds itself, classified. Only the subscript an
/// assignment stores to is a write; every other one, including any inside
/// that target's index, is a read.
void ForEachArrayAccess(
    const Stmt& stmt,
    const std::function<void(const SubscriptExpr&, Access)>& fn);

// ---------------------------------------------------------------------------
// Convenience casts (checked in debug via kind)
// ---------------------------------------------------------------------------

template <typename T>
const T& As(const Expr& e) {
  return static_cast<const T&>(e);
}
template <typename T>
T& As(Expr& e) {
  return static_cast<T&>(e);
}
template <typename T>
const T& As(const Stmt& s) {
  return static_cast<const T&>(s);
}
template <typename T>
T& As(Stmt& s) {
  return static_cast<T&>(s);
}

}  // namespace accmg::frontend
