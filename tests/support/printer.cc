#include "support/printer.h"

#include <sstream>

#include "common/error.h"

namespace accmg::frontend {

namespace {

void Indent(std::ostringstream& os, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
}

std::string PrintSection(const ArraySection& section) {
  std::string out = section.name;
  if (section.lower != nullptr) {
    out += "[" + PrintExpr(*section.lower) + ":" +
           PrintExpr(*section.length) + "]";
    if (section.lower2 != nullptr) {
      out += "[" + PrintExpr(*section.lower2) + ":" +
             PrintExpr(*section.length2) + "]";
    }
  }
  return out;
}

std::string PrintDirective(const Directive& d) {
  std::ostringstream os;
  os << "#pragma acc " << DirectiveKindName(d.kind);
  if ((d.kind == DirectiveKind::kParallel ||
       d.kind == DirectiveKind::kKernels) &&
      d.combined_loop) {
    os << " loop";
  }
  for (const auto& clause : d.data_clauses) {
    os << ' ' << DataClauseKindName(clause.kind) << '(';
    for (std::size_t i = 0; i < clause.sections.size(); ++i) {
      if (i != 0) os << ", ";
      os << PrintSection(clause.sections[i]);
    }
    os << ')';
  }
  for (const auto& red : d.reductions) {
    os << " reduction(" << ReductionOpSpelling(red.op) << ':';
    for (std::size_t i = 0; i < red.vars.size(); ++i) {
      if (i != 0) os << ", ";
      os << red.vars[i];
    }
    os << ')';
  }
  for (const auto& spec : d.local_access) {
    os << " (" << spec.array;
    bool first = true;
    auto param = [&](const char* name, const ExprPtr& value) {
      if (value == nullptr) return;
      os << (first ? ": " : ", ") << name << '(' << PrintExpr(*value) << ')';
      first = false;
    };
    param("stride", spec.stride);
    param("cols", spec.cols);
    param("left", spec.left);
    param("right", spec.right);
    os << ')';
  }
  if (d.reduction_to_array.has_value()) {
    const auto& spec = *d.reduction_to_array;
    os << '(' << ReductionOpSpelling(spec.op) << ": " << spec.array;
    if (spec.lower != nullptr) {
      os << '[' << PrintExpr(*spec.lower) << ':' << PrintExpr(*spec.length)
         << ']';
    }
    os << ')';
  }
  for (const auto& update : d.updates) {
    os << (update.to_host ? " host(" : " device(");
    for (std::size_t i = 0; i < update.sections.size(); ++i) {
      if (i != 0) os << ", ";
      os << PrintSection(update.sections[i]);
    }
    os << ')';
  }
  if (d.independent) os << " independent";
  if (d.num_gangs > 0) os << " num_gangs(" << d.num_gangs << ')';
  if (d.vector_length > 0) os << " vector_length(" << d.vector_length << ')';
  return os.str();
}

std::string TypeSpelling(const Type& type) {
  std::string out;
  if (type.is_const) out += "const ";
  out += ScalarTypeName(type.scalar);
  if (type.is_pointer) out += "*";
  return out;
}

std::string SimpleStmtNoSemi(const Stmt& stmt);

std::string AssignSpelling(const AssignStmt& stmt) {
  const char* op = "=";
  switch (stmt.op) {
    case AssignOp::kAssign: op = "="; break;
    case AssignOp::kAddAssign: op = "+="; break;
    case AssignOp::kSubAssign: op = "-="; break;
    case AssignOp::kMulAssign: op = "*="; break;
    case AssignOp::kDivAssign: op = "/="; break;
  }
  return PrintExpr(*stmt.target) + " " + op + " " + PrintExpr(*stmt.value);
}

std::string SimpleStmtNoSemi(const Stmt& stmt) {
  if (stmt.kind == StmtKind::kDecl) {
    const auto& decl = As<DeclStmt>(stmt);
    std::string out = TypeSpelling(decl.decl->type) + " " + decl.decl->name;
    if (decl.init != nullptr) out += " = " + PrintExpr(*decl.init);
    return out;
  }
  if (stmt.kind == StmtKind::kAssign) {
    return AssignSpelling(As<AssignStmt>(stmt));
  }
  if (stmt.kind == StmtKind::kExpr) {
    const auto& expr_stmt = As<ExprStmt>(stmt);
    return expr_stmt.expr == nullptr ? "" : PrintExpr(*expr_stmt.expr);
  }
  ACCMG_UNREACHABLE("not a simple statement");
}

}  // namespace

std::string PrintExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      return std::to_string(As<IntLiteral>(expr).value);
    case ExprKind::kFloatLiteral: {
      const auto& lit = As<FloatLiteral>(expr);
      std::ostringstream os;
      os.precision(17);
      os << lit.value;
      std::string text = os.str();
      if (text.find('.') == std::string::npos &&
          text.find('e') == std::string::npos &&
          text.find("inf") == std::string::npos) {
        text += ".0";
      }
      if (lit.is_float32) text += "f";
      return text;
    }
    case ExprKind::kVarRef:
      return As<VarRef>(expr).name;
    case ExprKind::kSubscript: {
      const auto& subscript = As<SubscriptExpr>(expr);
      return PrintExpr(*subscript.base) + "[" +
             PrintExpr(*subscript.index) + "]";
    }
    case ExprKind::kUnary: {
      const auto& unary = As<UnaryExpr>(expr);
      return std::string(UnaryOpSpelling(unary.op)) + "(" +
             PrintExpr(*unary.operand) + ")";
    }
    case ExprKind::kBinary: {
      const auto& binary = As<BinaryExpr>(expr);
      return "(" + PrintExpr(*binary.lhs) + " " +
             BinaryOpSpelling(binary.op) + " " + PrintExpr(*binary.rhs) +
             ")";
    }
    case ExprKind::kCall: {
      const auto& call = As<CallExpr>(expr);
      std::string out = call.callee + "(";
      for (std::size_t i = 0; i < call.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += PrintExpr(*call.args[i]);
      }
      return out + ")";
    }
    case ExprKind::kCast: {
      const auto& cast = As<CastExpr>(expr);
      return "(" + std::string(ScalarTypeName(cast.target.scalar)) + ")(" +
             PrintExpr(*cast.operand) + ")";
    }
    case ExprKind::kConditional: {
      const auto& cond = As<ConditionalExpr>(expr);
      return "(" + PrintExpr(*cond.cond) + " ? " +
             PrintExpr(*cond.then_expr) + " : " +
             PrintExpr(*cond.else_expr) + ")";
    }
  }
  ACCMG_UNREACHABLE("bad expr kind");
}

namespace {
/// Prints a loop/if body: compound children inline (the caller supplies the
/// braces), any other statement as-is.
std::string PrintBody(const Stmt& body, int indent) {
  if (body.kind == StmtKind::kCompound && body.directives.empty()) {
    std::string out;
    for (const auto& child : As<CompoundStmt>(body).body) {
      out += PrintStmt(*child, indent);
    }
    return out;
  }
  return PrintStmt(body, indent);
}
}  // namespace

std::string PrintStmt(const Stmt& stmt, int indent) {
  std::ostringstream os;
  for (const auto& directive : stmt.directives) {
    Indent(os, indent);
    os << PrintDirective(directive) << '\n';
  }
  switch (stmt.kind) {
    case StmtKind::kDecl:
    case StmtKind::kAssign:
    case StmtKind::kExpr:
      Indent(os, indent);
      os << SimpleStmtNoSemi(stmt) << ";\n";
      break;
    case StmtKind::kIf: {
      const auto& if_stmt = As<IfStmt>(stmt);
      Indent(os, indent);
      os << "if (" << PrintExpr(*if_stmt.cond) << ") {\n"
         << PrintBody(*if_stmt.then_stmt, indent + 1);
      Indent(os, indent);
      os << "}\n";
      if (if_stmt.else_stmt != nullptr) {
        Indent(os, indent);
        os << "else {\n" << PrintBody(*if_stmt.else_stmt, indent + 1);
        Indent(os, indent);
        os << "}\n";
      }
      break;
    }
    case StmtKind::kFor: {
      const auto& for_stmt = As<ForStmt>(stmt);
      Indent(os, indent);
      os << "for (";
      if (for_stmt.init != nullptr) os << SimpleStmtNoSemi(*for_stmt.init);
      os << "; ";
      if (for_stmt.cond != nullptr) os << PrintExpr(*for_stmt.cond);
      os << "; ";
      if (for_stmt.step != nullptr) os << SimpleStmtNoSemi(*for_stmt.step);
      os << ") {\n" << PrintBody(*for_stmt.body, indent + 1);
      Indent(os, indent);
      os << "}\n";
      break;
    }
    case StmtKind::kWhile: {
      const auto& while_stmt = As<WhileStmt>(stmt);
      Indent(os, indent);
      if (while_stmt.is_do_while) {
        os << "do {\n" << PrintBody(*while_stmt.body, indent + 1);
        Indent(os, indent);
        os << "} while (" << PrintExpr(*while_stmt.cond) << ");\n";
      } else {
        os << "while (" << PrintExpr(*while_stmt.cond) << ") {\n"
           << PrintBody(*while_stmt.body, indent + 1);
        Indent(os, indent);
        os << "}\n";
      }
      break;
    }
    case StmtKind::kCompound: {
      // A standalone block keeps its braces: it may carry a data-region
      // directive whose scope is exactly this block.
      Indent(os, indent);
      os << "{\n";
      for (const auto& child : As<CompoundStmt>(stmt).body) {
        os << PrintStmt(*child, indent + 1);
      }
      Indent(os, indent);
      os << "}\n";
      break;
    }
    case StmtKind::kReturn: {
      const auto& ret = As<ReturnStmt>(stmt);
      Indent(os, indent);
      os << "return";
      if (ret.value != nullptr) os << ' ' << PrintExpr(*ret.value);
      os << ";\n";
      break;
    }
    case StmtKind::kBreak:
      Indent(os, indent);
      os << "break;\n";
      break;
    case StmtKind::kContinue:
      Indent(os, indent);
      os << "continue;\n";
      break;
  }
  return os.str();
}

std::string PrintProgram(const Program& program) {
  std::ostringstream os;
  for (const auto& function : program.functions) {
    os << TypeSpelling(function->return_type) << ' ' << function->name
       << '(';
    for (std::size_t i = 0; i < function->params.size(); ++i) {
      if (i != 0) os << ", ";
      os << TypeSpelling(function->params[i]->type) << ' '
         << function->params[i]->name;
    }
    os << ") {\n";
    for (const auto& stmt : function->body->body) {
      os << PrintStmt(*stmt, 1);
    }
    os << "}\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Structural equivalence
// ---------------------------------------------------------------------------

namespace {

bool ExprEq(const Expr* a, const Expr* b);
bool StmtEq(const Stmt* a, const Stmt* b);

bool ExprEq(const Expr* a, const Expr* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case ExprKind::kIntLiteral:
      return As<IntLiteral>(*a).value == As<IntLiteral>(*b).value;
    case ExprKind::kFloatLiteral:
      return As<FloatLiteral>(*a).value == As<FloatLiteral>(*b).value &&
             As<FloatLiteral>(*a).is_float32 ==
                 As<FloatLiteral>(*b).is_float32;
    case ExprKind::kVarRef:
      return As<VarRef>(*a).name == As<VarRef>(*b).name;
    case ExprKind::kSubscript:
      return ExprEq(As<SubscriptExpr>(*a).base.get(),
                    As<SubscriptExpr>(*b).base.get()) &&
             ExprEq(As<SubscriptExpr>(*a).index.get(),
                    As<SubscriptExpr>(*b).index.get());
    case ExprKind::kUnary:
      return As<UnaryExpr>(*a).op == As<UnaryExpr>(*b).op &&
             ExprEq(As<UnaryExpr>(*a).operand.get(),
                    As<UnaryExpr>(*b).operand.get());
    case ExprKind::kBinary:
      return As<BinaryExpr>(*a).op == As<BinaryExpr>(*b).op &&
             ExprEq(As<BinaryExpr>(*a).lhs.get(),
                    As<BinaryExpr>(*b).lhs.get()) &&
             ExprEq(As<BinaryExpr>(*a).rhs.get(),
                    As<BinaryExpr>(*b).rhs.get());
    case ExprKind::kCall: {
      const auto& ca = As<CallExpr>(*a);
      const auto& cb = As<CallExpr>(*b);
      if (ca.callee != cb.callee || ca.args.size() != cb.args.size()) {
        return false;
      }
      for (std::size_t i = 0; i < ca.args.size(); ++i) {
        if (!ExprEq(ca.args[i].get(), cb.args[i].get())) return false;
      }
      return true;
    }
    case ExprKind::kCast:
      return As<CastExpr>(*a).target.scalar == As<CastExpr>(*b).target.scalar &&
             ExprEq(As<CastExpr>(*a).operand.get(),
                    As<CastExpr>(*b).operand.get());
    case ExprKind::kConditional:
      return ExprEq(As<ConditionalExpr>(*a).cond.get(),
                    As<ConditionalExpr>(*b).cond.get()) &&
             ExprEq(As<ConditionalExpr>(*a).then_expr.get(),
                    As<ConditionalExpr>(*b).then_expr.get()) &&
             ExprEq(As<ConditionalExpr>(*a).else_expr.get(),
                    As<ConditionalExpr>(*b).else_expr.get());
  }
  return false;
}

bool SectionEq(const ArraySection& a, const ArraySection& b) {
  return a.name == b.name && ExprEq(a.lower.get(), b.lower.get()) &&
         ExprEq(a.length.get(), b.length.get()) &&
         ExprEq(a.lower2.get(), b.lower2.get()) &&
         ExprEq(a.length2.get(), b.length2.get());
}

bool DirectiveEq(const Directive& a, const Directive& b) {
  if (a.kind != b.kind || a.combined_loop != b.combined_loop ||
      a.independent != b.independent || a.num_gangs != b.num_gangs ||
      a.vector_length != b.vector_length) {
    return false;
  }
  if (a.data_clauses.size() != b.data_clauses.size()) return false;
  for (std::size_t i = 0; i < a.data_clauses.size(); ++i) {
    if (a.data_clauses[i].kind != b.data_clauses[i].kind ||
        a.data_clauses[i].sections.size() !=
            b.data_clauses[i].sections.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a.data_clauses[i].sections.size(); ++j) {
      if (!SectionEq(a.data_clauses[i].sections[j],
                     b.data_clauses[i].sections[j])) {
        return false;
      }
    }
  }
  if (a.reductions.size() != b.reductions.size()) return false;
  for (std::size_t i = 0; i < a.reductions.size(); ++i) {
    if (a.reductions[i].op != b.reductions[i].op ||
        a.reductions[i].vars != b.reductions[i].vars) {
      return false;
    }
  }
  if (a.local_access.size() != b.local_access.size()) return false;
  for (std::size_t i = 0; i < a.local_access.size(); ++i) {
    const auto& la = a.local_access[i];
    const auto& lb = b.local_access[i];
    if (la.array != lb.array || !ExprEq(la.stride.get(), lb.stride.get()) ||
        !ExprEq(la.cols.get(), lb.cols.get()) ||
        !ExprEq(la.left.get(), lb.left.get()) ||
        !ExprEq(la.right.get(), lb.right.get())) {
      return false;
    }
  }
  if (a.reduction_to_array.has_value() != b.reduction_to_array.has_value()) {
    return false;
  }
  if (a.reduction_to_array.has_value()) {
    const auto& ra = *a.reduction_to_array;
    const auto& rb = *b.reduction_to_array;
    if (ra.op != rb.op || ra.array != rb.array ||
        !ExprEq(ra.lower.get(), rb.lower.get()) ||
        !ExprEq(ra.length.get(), rb.length.get())) {
      return false;
    }
  }
  if (a.updates.size() != b.updates.size()) return false;
  for (std::size_t i = 0; i < a.updates.size(); ++i) {
    if (a.updates[i].to_host != b.updates[i].to_host ||
        a.updates[i].sections.size() != b.updates[i].sections.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a.updates[i].sections.size(); ++j) {
      if (!SectionEq(a.updates[i].sections[j], b.updates[i].sections[j])) {
        return false;
      }
    }
  }
  return true;
}

bool StmtEq(const Stmt* a, const Stmt* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind) return false;
  if (a->directives.size() != b->directives.size()) return false;
  for (std::size_t i = 0; i < a->directives.size(); ++i) {
    if (!DirectiveEq(a->directives[i], b->directives[i])) return false;
  }
  switch (a->kind) {
    case StmtKind::kDecl: {
      const auto& da = As<DeclStmt>(*a);
      const auto& db = As<DeclStmt>(*b);
      return da.decl->name == db.decl->name &&
             da.decl->type == db.decl->type &&
             ExprEq(da.init.get(), db.init.get());
    }
    case StmtKind::kAssign: {
      const auto& aa = As<AssignStmt>(*a);
      const auto& ab = As<AssignStmt>(*b);
      return aa.op == ab.op && ExprEq(aa.target.get(), ab.target.get()) &&
             ExprEq(aa.value.get(), ab.value.get());
    }
    case StmtKind::kExpr:
      return ExprEq(As<ExprStmt>(*a).expr.get(), As<ExprStmt>(*b).expr.get());
    case StmtKind::kIf:
      return ExprEq(As<IfStmt>(*a).cond.get(), As<IfStmt>(*b).cond.get()) &&
             StmtEq(As<IfStmt>(*a).then_stmt.get(),
                    As<IfStmt>(*b).then_stmt.get()) &&
             StmtEq(As<IfStmt>(*a).else_stmt.get(),
                    As<IfStmt>(*b).else_stmt.get());
    case StmtKind::kFor:
      return StmtEq(As<ForStmt>(*a).init.get(), As<ForStmt>(*b).init.get()) &&
             ExprEq(As<ForStmt>(*a).cond.get(), As<ForStmt>(*b).cond.get()) &&
             StmtEq(As<ForStmt>(*a).step.get(), As<ForStmt>(*b).step.get()) &&
             StmtEq(As<ForStmt>(*a).body.get(), As<ForStmt>(*b).body.get());
    case StmtKind::kWhile:
      return As<WhileStmt>(*a).is_do_while == As<WhileStmt>(*b).is_do_while &&
             ExprEq(As<WhileStmt>(*a).cond.get(),
                    As<WhileStmt>(*b).cond.get()) &&
             StmtEq(As<WhileStmt>(*a).body.get(),
                    As<WhileStmt>(*b).body.get());
    case StmtKind::kCompound: {
      const auto& ca = As<CompoundStmt>(*a);
      const auto& cb = As<CompoundStmt>(*b);
      if (ca.body.size() != cb.body.size()) return false;
      for (std::size_t i = 0; i < ca.body.size(); ++i) {
        if (!StmtEq(ca.body[i].get(), cb.body[i].get())) return false;
      }
      return true;
    }
    case StmtKind::kReturn:
      return ExprEq(As<ReturnStmt>(*a).value.get(),
                    As<ReturnStmt>(*b).value.get());
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      return true;
  }
  return false;
}

}  // namespace

bool ProgramsEquivalent(const Program& a, const Program& b) {
  if (a.functions.size() != b.functions.size()) return false;
  for (std::size_t f = 0; f < a.functions.size(); ++f) {
    const Function& fa = *a.functions[f];
    const Function& fb = *b.functions[f];
    if (fa.name != fb.name || !(fa.return_type == fb.return_type) ||
        fa.params.size() != fb.params.size()) {
      return false;
    }
    for (std::size_t p = 0; p < fa.params.size(); ++p) {
      if (fa.params[p]->name != fb.params[p]->name ||
          !(fa.params[p]->type == fb.params[p]->type)) {
        return false;
      }
    }
    if (!StmtEq(fa.body.get(), fb.body.get())) return false;
  }
  return true;
}

}  // namespace accmg::frontend
