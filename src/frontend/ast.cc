#include "frontend/ast.h"

namespace accmg::frontend {

const char* BinaryOpSpelling(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLogicalAnd: return "&&";
    case BinaryOp::kLogicalOr: return "||";
    case BinaryOp::kBitAnd: return "&";
    case BinaryOp::kBitOr: return "|";
    case BinaryOp::kBitXor: return "^";
    case BinaryOp::kShl: return "<<";
    case BinaryOp::kShr: return ">>";
  }
  return "?";
}

const char* UnaryOpSpelling(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNeg: return "-";
    case UnaryOp::kNot: return "!";
    case UnaryOp::kBitNot: return "~";
  }
  return "?";
}

const char* DirectiveKindName(DirectiveKind kind) {
  switch (kind) {
    case DirectiveKind::kData: return "data";
    case DirectiveKind::kEnterData: return "enter data";
    case DirectiveKind::kExitData: return "exit data";
    case DirectiveKind::kParallel: return "parallel";
    case DirectiveKind::kKernels: return "kernels";
    case DirectiveKind::kLoop: return "loop";
    case DirectiveKind::kUpdate: return "update";
    case DirectiveKind::kLocalAccess: return "localaccess";
    case DirectiveKind::kReductionToArray: return "reductiontoarray";
  }
  return "?";
}

const char* DataClauseKindName(DataClauseKind kind) {
  switch (kind) {
    case DataClauseKind::kCopy: return "copy";
    case DataClauseKind::kCopyIn: return "copyin";
    case DataClauseKind::kCopyOut: return "copyout";
    case DataClauseKind::kCreate: return "create";
    case DataClauseKind::kPresent: return "present";
    case DataClauseKind::kDelete: return "delete";
  }
  return "?";
}

const char* ReductionOpSpelling(ReductionOp op) {
  switch (op) {
    case ReductionOp::kAdd: return "+";
    case ReductionOp::kMul: return "*";
    case ReductionOp::kMin: return "min";
    case ReductionOp::kMax: return "max";
  }
  return "?";
}

void WalkExprs(const Expr& expr, const std::function<void(const Expr&)>& fn) {
  fn(expr);
  switch (expr.kind) {
    case ExprKind::kSubscript: {
      const auto& s = As<SubscriptExpr>(expr);
      WalkExprs(*s.base, fn);
      WalkExprs(*s.index, fn);
      break;
    }
    case ExprKind::kUnary:
      WalkExprs(*As<UnaryExpr>(expr).operand, fn);
      break;
    case ExprKind::kBinary:
      WalkExprs(*As<BinaryExpr>(expr).lhs, fn);
      WalkExprs(*As<BinaryExpr>(expr).rhs, fn);
      break;
    case ExprKind::kCall:
      for (const auto& arg : As<CallExpr>(expr).args) WalkExprs(*arg, fn);
      break;
    case ExprKind::kCast:
      WalkExprs(*As<CastExpr>(expr).operand, fn);
      break;
    case ExprKind::kConditional: {
      const auto& c = As<ConditionalExpr>(expr);
      WalkExprs(*c.cond, fn);
      WalkExprs(*c.then_expr, fn);
      WalkExprs(*c.else_expr, fn);
      break;
    }
    default:
      break;
  }
}

void WalkStmts(const Stmt& stmt, const std::function<void(const Stmt&)>& fn) {
  fn(stmt);
  switch (stmt.kind) {
    case StmtKind::kIf: {
      const auto& s = As<IfStmt>(stmt);
      WalkStmts(*s.then_stmt, fn);
      if (s.else_stmt != nullptr) WalkStmts(*s.else_stmt, fn);
      break;
    }
    case StmtKind::kFor: {
      const auto& s = As<ForStmt>(stmt);
      if (s.init != nullptr) WalkStmts(*s.init, fn);
      if (s.step != nullptr) WalkStmts(*s.step, fn);
      WalkStmts(*s.body, fn);
      break;
    }
    case StmtKind::kWhile:
      WalkStmts(*As<WhileStmt>(stmt).body, fn);
      break;
    case StmtKind::kCompound:
      for (const auto& child : As<CompoundStmt>(stmt).body) {
        WalkStmts(*child, fn);
      }
      break;
    default:
      break;
  }
}

void ForEachExprInStmt(const Stmt& stmt,
                       const std::function<void(const Expr&)>& fn) {
  const Expr* parts[2] = {nullptr, nullptr};
  switch (stmt.kind) {
    case StmtKind::kDecl:
      parts[0] = As<DeclStmt>(stmt).init.get();
      break;
    case StmtKind::kAssign:
      parts[0] = As<AssignStmt>(stmt).target.get();
      parts[1] = As<AssignStmt>(stmt).value.get();
      break;
    case StmtKind::kExpr:
      parts[0] = As<ExprStmt>(stmt).expr.get();
      break;
    case StmtKind::kIf:
      parts[0] = As<IfStmt>(stmt).cond.get();
      break;
    case StmtKind::kFor:
      parts[0] = As<ForStmt>(stmt).cond.get();
      break;
    case StmtKind::kWhile:
      parts[0] = As<WhileStmt>(stmt).cond.get();
      break;
    case StmtKind::kReturn:
      parts[0] = As<ReturnStmt>(stmt).value.get();
      break;
    default:
      break;
  }
  for (const Expr* part : parts) {
    if (part != nullptr) WalkExprs(*part, fn);
  }
}

void ForEachArrayAccess(
    const Stmt& stmt,
    const std::function<void(const SubscriptExpr&, Access)>& fn) {
  const Expr* target = nullptr;
  Access store = Access::kWrite;
  if (stmt.kind == StmtKind::kAssign) {
    const auto& assign = As<AssignStmt>(stmt);
    target = assign.target.get();
    if (assign.op != AssignOp::kAssign) store = Access::kReadWrite;
  }
  ForEachExprInStmt(stmt, [&](const Expr& expr) {
    if (expr.kind != ExprKind::kSubscript) return;
    fn(As<SubscriptExpr>(expr), &expr == target ? store : Access::kRead);
  });
}

}  // namespace accmg::frontend
