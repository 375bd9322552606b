#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "translator/check.h"
#include "translator/eval.h"
#include "translator/lowering.h"
#include "translator/offload.h"
#include "translator/opt.h"
#include "translator/type_map.h"

namespace accmg::translator {

using frontend::Access;
using frontend::As;
using accmg::CompileError;
using frontend::Directive;
using frontend::DirectiveKind;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ForStmt;
using frontend::ForEachArrayAccess;
using frontend::ForEachExprInStmt;
using frontend::Function;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::VarDecl;
using frontend::WalkStmts;

namespace {

[[noreturn]] void Fail(frontend::SourceLocation loc,
                       const std::string& message) {
  throw CompileError(loc.ToString() + ": " + message);
}

// --- canonical loop form ----------------------------------------------------

struct CanonicalLoop {
  const VarDecl* induction = nullptr;
  const Expr* lower = nullptr;
  const Expr* upper = nullptr;
  bool inclusive = false;
};

CanonicalLoop ExtractCanonicalLoop(const ForStmt& loop) {
  CanonicalLoop canonical;
  // init:  int i = lo   or   i = lo
  if (loop.init == nullptr) {
    Fail(loop.loc, "parallel loop must initialize its induction variable");
  }
  const Expr* lower = nullptr;
  if (loop.init->kind == StmtKind::kDecl) {
    const auto& decl = As<frontend::DeclStmt>(*loop.init);
    if (decl.init == nullptr) {
      Fail(loop.loc, "parallel loop induction variable lacks an initializer");
    }
    canonical.induction = decl.decl.get();
    lower = decl.init.get();
  } else if (loop.init->kind == StmtKind::kAssign) {
    const auto& assign = As<frontend::AssignStmt>(*loop.init);
    if (assign.target->kind != ExprKind::kVarRef ||
        assign.op != frontend::AssignOp::kAssign) {
      Fail(loop.loc, "unsupported parallel loop initialization");
    }
    canonical.induction = As<frontend::VarRef>(*assign.target).decl;
    lower = assign.value.get();
  } else {
    Fail(loop.loc, "unsupported parallel loop initialization");
  }
  canonical.lower = lower;

  // cond:  i < ub  or  i <= ub
  if (loop.cond == nullptr || loop.cond->kind != ExprKind::kBinary) {
    Fail(loop.loc, "parallel loop condition must be i < bound or i <= bound");
  }
  const auto& cond = As<frontend::BinaryExpr>(*loop.cond);
  if ((cond.op != frontend::BinaryOp::kLt &&
       cond.op != frontend::BinaryOp::kLe) ||
      cond.lhs->kind != ExprKind::kVarRef ||
      As<frontend::VarRef>(*cond.lhs).decl != canonical.induction) {
    Fail(loop.loc, "parallel loop condition must be i < bound or i <= bound");
  }
  canonical.upper = cond.rhs.get();
  canonical.inclusive = cond.op == frontend::BinaryOp::kLe;

  // step:  i++ / i += 1
  if (loop.step == nullptr || loop.step->kind != StmtKind::kAssign) {
    Fail(loop.loc, "parallel loop step must be i++ or i += 1");
  }
  const auto& step = As<frontend::AssignStmt>(*loop.step);
  bool ok = step.target->kind == ExprKind::kVarRef &&
            As<frontend::VarRef>(*step.target).decl == canonical.induction &&
            step.op == frontend::AssignOp::kAddAssign &&
            step.value->kind == ExprKind::kIntLiteral &&
            As<frontend::IntLiteral>(*step.value).value == 1;
  if (!ok) {
    Fail(loop.loc, "parallel loop step must be i++ or i += 1 (unit stride)");
  }
  return canonical;
}

// --- array access summaries --------------------------------------------------

/// Folds index expressions into one summary coeff*i + [min_off, max_off];
/// it holds when every index noted is affine with the same coefficient.
struct AffineSummary {
  bool used = false;   ///< at least one index was noted
  bool affine = true;  ///< every index so far is coeff*i + b
  std::int64_t coeff = 0;
  std::int64_t min_off = 0;
  std::int64_t max_off = 0;

  void Note(const Expr& index, const VarDecl& induction) {
    std::int64_t a, b;
    if (!MatchAffine(index, induction, &a, &b) || (used && a != coeff)) {
      affine = false;
    } else if (!used) {
      coeff = a;
      min_off = max_off = b;
    } else {
      min_off = std::min(min_off, b);
      max_off = std::max(max_off, b);
    }
    used = true;
  }
  bool Holds() const { return used && affine; }
};

/// One array's read and write indexes over a loop body.
struct ArrayIndexes {
  AffineSummary reads;
  AffineSummary writes;
};

/// The write-locality proof (Section IV-D2) that removes the write-miss
/// check: every store to the distributed array stays inside its own
/// iteration's localaccess window.
bool WritesProvenLocal(const LoopOffload& offload, const ArrayConfig& config) {
  if (config.cols != nullptr) {
    // 2-D row-block window: index = i*cols + j has no constant coefficient
    // for the affine matcher, so prove row locality symbolically (index -
    // cols*i within [0, cols-1]) with the directive checker's polynomial
    // machinery.
    return ProveWritesRowLocal(offload, config);
  }
  std::int64_t stride = 1, left = 0, right = 0;
  if (config.stride != nullptr && !TryFoldConstant(*config.stride, &stride)) {
    return false;
  }
  if (config.left != nullptr && !TryFoldConstant(*config.left, &left)) {
    return false;
  }
  if (config.right != nullptr && !TryFoldConstant(*config.right, &right)) {
    return false;
  }
  // Only arrays whose every store is a bounded affine subscript inside the
  // window are proven local.
  return config.has_affine_writes && config.write_coeff == stride &&
         config.write_min_off >= -left &&
         config.write_max_off <= stride - 1 + right;
}

// --- offload construction ----------------------------------------------------

class FunctionCompiler {
 public:
  FunctionCompiler(const Function& function, const CompileOptions& options)
      : function_(function), options_(options) {}

  CompiledFunction Run() {
    CompiledFunction compiled;
    compiled.function = &function_;
    VisitStmt(*function_.body, /*region=*/nullptr, compiled);
    return compiled;
  }

 private:
  /// Walks host-level statements looking for offloadable loops. `region`
  /// carries an enclosing `parallel`/`kernels` region directive whose
  /// clauses apply to contained `loop` directives.
  void VisitStmt(const Stmt& stmt, const Directive* region,
                 CompiledFunction& compiled) {
    const Directive* parallel =
        stmt.FindDirective(DirectiveKind::kParallel);
    if (parallel == nullptr) {
      parallel = stmt.FindDirective(DirectiveKind::kKernels);
    }
    const Directive* loop_directive =
        stmt.FindDirective(DirectiveKind::kLoop);

    if (stmt.kind == StmtKind::kFor &&
        (parallel != nullptr || loop_directive != nullptr ||
         (region != nullptr && loop_directive != nullptr))) {
      // An offloadable parallel loop. Combined form (`parallel loop` on the
      // for) or a `loop` directive inside a parallel region.
      if (parallel == nullptr && region == nullptr) {
        Fail(stmt.loc, "#pragma acc loop outside of a parallel region");
      }
      BuildOffload(As<ForStmt>(stmt), parallel != nullptr ? parallel : region,
                   loop_directive, compiled);
      return;
    }

    if (parallel != nullptr && stmt.kind == StmtKind::kCompound) {
      // `#pragma acc parallel { ... #pragma acc loop for(...) ... }`.
      for (const auto& child : As<frontend::CompoundStmt>(stmt).body) {
        VisitStmt(*child, parallel, compiled);
      }
      return;
    }

    switch (stmt.kind) {
      case StmtKind::kIf: {
        const auto& s = As<frontend::IfStmt>(stmt);
        VisitStmt(*s.then_stmt, region, compiled);
        if (s.else_stmt != nullptr) VisitStmt(*s.else_stmt, region, compiled);
        break;
      }
      case StmtKind::kFor:
        VisitStmt(*As<ForStmt>(stmt).body, region, compiled);
        break;
      case StmtKind::kWhile:
        VisitStmt(*As<frontend::WhileStmt>(stmt).body, region, compiled);
        break;
      case StmtKind::kCompound:
        for (const auto& child : As<frontend::CompoundStmt>(stmt).body) {
          VisitStmt(*child, region, compiled);
        }
        break;
      default:
        break;
    }
  }

  void BuildOffload(const ForStmt& loop, const Directive* parallel,
                    const Directive* loop_directive,
                    CompiledFunction& compiled) {
    LoopOffload offload;
    offload.id = static_cast<int>(compiled.offloads.size());
    offload.name =
        function_.name + "_kernel" + std::to_string(offload.id);
    offload.loop = &loop;

    const CanonicalLoop canonical = ExtractCanonicalLoop(loop);
    offload.induction = canonical.induction;
    offload.lower_bound = canonical.lower;
    offload.upper_bound = canonical.upper;
    offload.upper_inclusive = canonical.inclusive;

    // --- gather directives that apply to this loop ---
    std::vector<const Directive*> applicable;
    if (parallel != nullptr) applicable.push_back(parallel);
    if (loop_directive != nullptr && loop_directive != parallel) {
      applicable.push_back(loop_directive);
    }
    const Directive* local_access_directive =
        loop.FindDirective(DirectiveKind::kLocalAccess);

    // --- body analysis: arrays, scalars, locals, reductions ---
    std::unordered_set<int> declared_inside;
    declared_inside.insert(offload.induction->id);
    WalkStmts(*loop.body, [&](const Stmt& s) {
      if (s.kind == StmtKind::kDecl) {
        declared_inside.insert(As<frontend::DeclStmt>(s).decl->id);
      }
      if (s.kind == StmtKind::kFor &&
          As<ForStmt>(s).init != nullptr &&
          As<ForStmt>(s).init->kind == StmtKind::kDecl) {
        declared_inside.insert(
            As<frontend::DeclStmt>(*As<ForStmt>(s).init).decl->id);
      }
    });

    std::vector<const VarDecl*> array_order;
    std::vector<const VarDecl*> scalar_order;
    std::unordered_set<int> seen_arrays;
    std::unordered_set<int> seen_scalars;
    std::unordered_set<int> written_scalars;
    // Every array's read and write indexes, from one pass over the body.
    std::unordered_map<int, ArrayIndexes> indexes;

    auto note_expr = [&](const Expr& e) {
      if (e.kind != ExprKind::kVarRef) return;
      const auto& ref = As<frontend::VarRef>(e);
      ACCMG_CHECK(ref.decl != nullptr, "unresolved reference in offload body");
      if (ref.decl->type.is_pointer) {
        if (seen_arrays.insert(ref.decl->id).second) {
          array_order.push_back(ref.decl);
        }
      } else if (!declared_inside.contains(ref.decl->id)) {
        if (seen_scalars.insert(ref.decl->id).second) {
          scalar_order.push_back(ref.decl);
        }
      }
    };
    WalkStmts(*loop.body, [&](const Stmt& s) {
      ForEachExprInStmt(s, note_expr);
      ForEachArrayAccess(s, [&](const frontend::SubscriptExpr& sub,
                                Access access) {
        ArrayIndexes& array =
            indexes[As<frontend::VarRef>(*sub.base).decl->id];
        // A compound-assignment target loads before it stores: both.
        if (access != Access::kWrite) {
          array.reads.Note(*sub.index, *offload.induction);
        }
        if (access != Access::kRead) {
          array.writes.Note(*sub.index, *offload.induction);
        }
      });
      if (s.kind == StmtKind::kAssign) {
        const auto& assign = As<frontend::AssignStmt>(s);
        if (assign.target->kind == ExprKind::kVarRef) {
          const auto& ref = As<frontend::VarRef>(*assign.target);
          if (!declared_inside.contains(ref.decl->id)) {
            written_scalars.insert(ref.decl->id);
          }
        }
      }
    });

    // --- reductions ---
    for (const Directive* d : applicable) {
      for (const auto& clause : d->reductions) {
        for (const auto& var : clause.vars) {
          const VarDecl* decl = nullptr;
          for (const VarDecl* s : scalar_order) {
            if (s->name == var) decl = s;
          }
          if (decl == nullptr) {
            // The reduction variable may not be read in the body at all
            // (accumulate-only); look it up among written scalars via the
            // function's parameters and enclosing decls is handled by sema,
            // so simply skip silently if unused.
            continue;
          }
          ScalarRedTarget target;
          target.decl = decl;
          target.op = ToRedOp(clause.op);
          offload.scalar_reds.push_back(target);
          // Reduction variables are not scalar params.
          scalar_order.erase(
              std::remove(scalar_order.begin(), scalar_order.end(), decl),
              scalar_order.end());
          written_scalars.erase(decl->id);
        }
      }
    }

    // reductiontoarray specs attached to inner statements.
    WalkStmts(*loop.body, [&](const Stmt& s) {
      const Directive* d =
          s.FindDirective(DirectiveKind::kReductionToArray);
      if (d == nullptr) return;
      const auto& spec = *d->reduction_to_array;
      const VarDecl* decl = nullptr;
      for (const VarDecl* a : array_order) {
        if (a->name == spec.array) decl = a;
      }
      if (decl == nullptr) {
        Fail(spec.loc, "reductiontoarray names array '" + spec.array +
                           "' which is not used in the loop");
      }
      for (const auto& existing : offload.array_reds) {
        if (existing.decl == decl) return;  // same destination annotated twice
      }
      ArrayRedTarget target;
      target.decl = decl;
      target.op = ToRedOp(spec.op);
      target.lower = spec.lower.get();
      target.length = spec.length.get();
      offload.array_reds.push_back(target);
    });

    if (!written_scalars.empty()) {
      for (const VarDecl* s : scalar_order) {
        if (written_scalars.contains(s->id)) {
          Fail(loop.loc,
               "scalar '" + s->name +
                   "' is written inside the parallel loop but is not a "
                   "reduction variable; declare it inside the loop body");
        }
      }
    }

    // --- array configs ---
    for (const VarDecl* decl : array_order) {
      const ArrayIndexes& array = indexes[decl->id];
      ArrayConfig config;
      config.decl = decl;
      config.name = decl->name;
      config.elem = ToValType(decl->type.scalar);
      config.is_read = array.reads.used;
      config.is_written = array.writes.used;
      for (const auto& red : offload.array_reds) {
        if (red.decl == decl) {
          config.is_reduction_dest = true;
          config.is_written = true;
        }
      }
      if (local_access_directive != nullptr) {
        for (const auto& spec : local_access_directive->local_access) {
          if (spec.array == decl->name) {
            config.has_localaccess = true;
            config.stride = spec.stride.get();
            config.cols = spec.cols.get();
            config.left = spec.left.get();
            config.right = spec.right.get();
          }
        }
      }
      // Affine summaries: the writes feed the runtime's boundary/interior
      // splitter and the write-locality proof, the reads (compound-assign
      // targets included) the mid-end's fusion legality analysis.
      if (array.reads.Holds()) {
        config.has_affine_reads = true;
        config.read_coeff = array.reads.coeff;
        config.read_min_off = array.reads.min_off;
        config.read_max_off = array.reads.max_off;
      }
      if (!config.is_reduction_dest) {
        if (array.writes.Holds()) {
          config.has_affine_writes = true;
          config.write_coeff = array.writes.coeff;
          config.write_min_off = array.writes.min_off;
          config.write_max_off = array.writes.max_off;
        }
        config.writes_proven_local = config.is_written &&
                                     config.has_localaccess &&
                                     WritesProvenLocal(offload, config);
      }
      offload.arrays.push_back(config);
    }

    for (const VarDecl* decl : scalar_order) {
      ScalarArg arg;
      arg.decl = decl;
      offload.scalars.push_back(arg);
    }

    // --- lower to IR ---
    compiled.offloads.push_back(std::move(offload));
    KernelLowering lowering(compiled.offloads.back());
    lowering.Lower();
    compiled.offload_of_stmt[&loop] =
        static_cast<int>(compiled.offloads.size()) - 1;

    if (options_.check_directives) {
      CheckOffloadDirectives(compiled.offloads.back(), local_access_directive);
    }
  }

  const Function& function_;
  const CompileOptions& options_;
};

}  // namespace

bool ExprStructurallyEqual(const Expr& x, const Expr& y) {
  if (x.kind != y.kind) return false;
  switch (x.kind) {
    case ExprKind::kIntLiteral:
      return As<frontend::IntLiteral>(x).value ==
             As<frontend::IntLiteral>(y).value;
    case ExprKind::kFloatLiteral:
      return As<frontend::FloatLiteral>(x).value ==
             As<frontend::FloatLiteral>(y).value;
    case ExprKind::kVarRef:
      return As<frontend::VarRef>(x).decl == As<frontend::VarRef>(y).decl;
    case ExprKind::kSubscript:
      return ExprStructurallyEqual(*As<frontend::SubscriptExpr>(x).base,
                                   *As<frontend::SubscriptExpr>(y).base) &&
             ExprStructurallyEqual(*As<frontend::SubscriptExpr>(x).index,
                                   *As<frontend::SubscriptExpr>(y).index);
    case ExprKind::kUnary:
      return As<frontend::UnaryExpr>(x).op == As<frontend::UnaryExpr>(y).op &&
             ExprStructurallyEqual(*As<frontend::UnaryExpr>(x).operand,
                                   *As<frontend::UnaryExpr>(y).operand);
    case ExprKind::kBinary:
      return As<frontend::BinaryExpr>(x).op ==
                 As<frontend::BinaryExpr>(y).op &&
             ExprStructurallyEqual(*As<frontend::BinaryExpr>(x).lhs,
                                   *As<frontend::BinaryExpr>(y).lhs) &&
             ExprStructurallyEqual(*As<frontend::BinaryExpr>(x).rhs,
                                   *As<frontend::BinaryExpr>(y).rhs);
    default:
      return false;
  }
}

bool MatchAffine(const Expr& expr, const VarDecl& induction, std::int64_t* a,
                 std::int64_t* b) {
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      *a = 0;
      *b = As<frontend::IntLiteral>(expr).value;
      return true;
    case ExprKind::kVarRef:
      if (As<frontend::VarRef>(expr).decl == &induction) {
        *a = 1;
        *b = 0;
        return true;
      }
      return false;
    case ExprKind::kCast:
      return MatchAffine(*As<frontend::CastExpr>(expr).operand, induction, a,
                         b);
    case ExprKind::kUnary: {
      const auto& unary = As<frontend::UnaryExpr>(expr);
      std::int64_t ia, ib;
      if (unary.op == frontend::UnaryOp::kNeg &&
          MatchAffine(*unary.operand, induction, &ia, &ib)) {
        *a = -ia;
        *b = -ib;
        return true;
      }
      return false;
    }
    case ExprKind::kBinary: {
      const auto& binary = As<frontend::BinaryExpr>(expr);
      std::int64_t la, lb, ra, rb;
      const bool lhs_ok = MatchAffine(*binary.lhs, induction, &la, &lb);
      const bool rhs_ok = MatchAffine(*binary.rhs, induction, &ra, &rb);
      if (!lhs_ok || !rhs_ok) return false;
      switch (binary.op) {
        case frontend::BinaryOp::kAdd:
          *a = la + ra;
          *b = lb + rb;
          return true;
        case frontend::BinaryOp::kSub:
          *a = la - ra;
          *b = lb - rb;
          return true;
        case frontend::BinaryOp::kMul:
          // One side must be a pure constant for the result to stay affine.
          if (la == 0) {
            *a = lb * ra;
            *b = lb * rb;
            return true;
          }
          if (ra == 0) {
            *a = la * rb;
            *b = lb * rb;
            return true;
          }
          return false;
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

CompiledProgram Compile(const frontend::Program& program) {
  return Compile(program, CompileOptions{});
}

CompiledProgram Compile(const frontend::Program& program,
                        const CompileOptions& options) {
  CompiledProgram compiled;
  compiled.program = &program;
  for (const auto& function : program.functions) {
    FunctionCompiler compiler(*function, options);
    compiled.functions.push_back(compiler.Run());
    if (options.opt_level > 0) {
      OptimizeFunction(compiled.functions.back(), options);
    }
    for (LoopOffload& offload : compiled.functions.back().offloads) {
      offload.decoded = ir::DecodedKernel(offload.kernel);
    }
  }
  return compiled;
}

}  // namespace accmg::translator
