#include "translator/check.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "translator/eval.h"

namespace accmg::translator {

using accmg::CompileError;
using frontend::Access;
using frontend::As;
using frontend::Directive;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ForStmt;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::VarDecl;

namespace {

[[noreturn]] void Fail(frontend::SourceLocation loc,
                       const std::string& message) {
  throw CompileError(loc.ToString() + ": " + message);
}

// --- symbolic linear-combination form ---------------------------------------
//
// A Poly maps monomials (sorted multisets of VarDecl ids; the empty monomial
// is the constant term) to integer coefficients. Only +, -, * of integers
// and scalar variables build polys; anything else (subscripts, calls,
// divisions, floats) makes the expression unanalyzable.

using Monomial = std::vector<int>;
using Poly = std::map<Monomial, std::int64_t>;

constexpr std::size_t kMaxTerms = 32;
constexpr std::size_t kMaxDegree = 4;

void Prune(Poly& poly) {
  for (auto it = poly.begin(); it != poly.end();) {
    it = it->second == 0 ? poly.erase(it) : std::next(it);
  }
}

bool MulPoly(const Poly& a, const Poly& b, Poly* out) {
  for (const auto& [ma, ca] : a) {
    for (const auto& [mb, cb] : b) {
      Monomial m;
      m.reserve(ma.size() + mb.size());
      std::merge(ma.begin(), ma.end(), mb.begin(), mb.end(),
                 std::back_inserter(m));
      if (m.size() > kMaxDegree) return false;
      (*out)[m] += ca * cb;
      if (out->size() > kMaxTerms) return false;
    }
  }
  Prune(*out);
  return true;
}

/// Accumulates `scale * expr` into `*out`; records every variable seen in
/// `decls`. Returns false when the expression is not a linear combination of
/// integer scalars.
bool AddExpr(const Expr& expr, std::int64_t scale, Poly* out,
             std::unordered_map<int, const VarDecl*>& decls) {
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      (*out)[Monomial{}] += scale * As<frontend::IntLiteral>(expr).value;
      return true;
    case ExprKind::kVarRef: {
      const VarDecl* decl = As<frontend::VarRef>(expr).decl;
      if (decl == nullptr || decl->type.is_pointer) return false;
      decls[decl->id] = decl;
      (*out)[Monomial{decl->id}] += scale;
      return true;
    }
    case ExprKind::kCast:
      return AddExpr(*As<frontend::CastExpr>(expr).operand, scale, out,
                     decls);
    case ExprKind::kUnary: {
      const auto& unary = As<frontend::UnaryExpr>(expr);
      if (unary.op != frontend::UnaryOp::kNeg) return false;
      return AddExpr(*unary.operand, -scale, out, decls);
    }
    case ExprKind::kBinary: {
      const auto& binary = As<frontend::BinaryExpr>(expr);
      switch (binary.op) {
        case frontend::BinaryOp::kAdd:
          return AddExpr(*binary.lhs, scale, out, decls) &&
                 AddExpr(*binary.rhs, scale, out, decls);
        case frontend::BinaryOp::kSub:
          return AddExpr(*binary.lhs, scale, out, decls) &&
                 AddExpr(*binary.rhs, -scale, out, decls);
        case frontend::BinaryOp::kMul: {
          Poly lhs, rhs, product;
          if (!AddExpr(*binary.lhs, 1, &lhs, decls) ||
              !AddExpr(*binary.rhs, 1, &rhs, decls) ||
              !MulPoly(lhs, rhs, &product)) {
            return false;
          }
          for (const auto& [m, c] : product) (*out)[m] += scale * c;
          return true;
        }
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

bool MonomialContains(const Monomial& m, int id) {
  return std::find(m.begin(), m.end(), id) != m.end();
}

// --- iteration-space bounds -------------------------------------------------

struct VarBounds {
  const Expr* lower = nullptr;
  const Expr* upper = nullptr;
  bool upper_inclusive = false;
};

/// Collects [lower, upper) bounds for every canonical (unit-stride,
/// initialized, `v < bound` / `v <= bound`) for-loop variable inside the
/// body, dropping any variable that is also assigned outside its loop
/// header. Non-canonical loops simply leave their variable unbounded.
class BoundsCollector {
 public:
  explicit BoundsCollector(const LoopOffload& offload) {
    bounds_[offload.induction->id] =
        VarBounds{offload.lower_bound, offload.upper_bound,
                  offload.upper_inclusive};
    Walk(*offload.loop->body);
    for (int id : assigned_) bounds_.erase(id);
  }

  const VarBounds* Find(int id) const {
    auto it = bounds_.find(id);
    return it == bounds_.end() ? nullptr : &it->second;
  }

 private:
  void Walk(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kFor: {
        const auto& loop = As<ForStmt>(stmt);
        NoteLoop(loop);
        if (loop.init != nullptr) Walk(*loop.init);
        Walk(*loop.body);
        break;
      }
      case StmtKind::kIf: {
        const auto& s = As<frontend::IfStmt>(stmt);
        Walk(*s.then_stmt);
        if (s.else_stmt != nullptr) Walk(*s.else_stmt);
        break;
      }
      case StmtKind::kWhile:
        Walk(*As<frontend::WhileStmt>(stmt).body);
        break;
      case StmtKind::kCompound:
        for (const auto& child : As<frontend::CompoundStmt>(stmt).body) {
          Walk(*child);
        }
        break;
      case StmtKind::kAssign: {
        const auto& assign = As<frontend::AssignStmt>(stmt);
        if (assign.target->kind == ExprKind::kVarRef) {
          const VarDecl* decl = As<frontend::VarRef>(*assign.target).decl;
          if (decl != nullptr) assigned_.insert(decl->id);
        }
        break;
      }
      default:
        break;
    }
  }

  void NoteLoop(const ForStmt& loop) {
    const VarDecl* var = nullptr;
    const Expr* lower = nullptr;
    if (loop.init != nullptr && loop.init->kind == StmtKind::kDecl) {
      const auto& decl = As<frontend::DeclStmt>(*loop.init);
      var = decl.decl.get();
      lower = decl.init.get();
    } else if (loop.init != nullptr && loop.init->kind == StmtKind::kAssign) {
      const auto& assign = As<frontend::AssignStmt>(*loop.init);
      if (assign.target->kind == ExprKind::kVarRef &&
          assign.op == frontend::AssignOp::kAssign) {
        var = As<frontend::VarRef>(*assign.target).decl;
        lower = assign.value.get();
      }
    }
    if (var == nullptr || lower == nullptr) return;

    if (loop.cond == nullptr || loop.cond->kind != ExprKind::kBinary) return;
    const auto& cond = As<frontend::BinaryExpr>(*loop.cond);
    if ((cond.op != frontend::BinaryOp::kLt &&
         cond.op != frontend::BinaryOp::kLe) ||
        cond.lhs->kind != ExprKind::kVarRef ||
        As<frontend::VarRef>(*cond.lhs).decl != var) {
      return;
    }

    if (loop.step == nullptr || loop.step->kind != StmtKind::kAssign) return;
    const auto& step = As<frontend::AssignStmt>(*loop.step);
    const bool unit = step.target->kind == ExprKind::kVarRef &&
                      As<frontend::VarRef>(*step.target).decl == var &&
                      step.op == frontend::AssignOp::kAddAssign &&
                      step.value->kind == ExprKind::kIntLiteral &&
                      As<frontend::IntLiteral>(*step.value).value == 1;
    if (!unit) return;

    bounds_[var->id] = VarBounds{lower, cond.rhs.get(),
                                 cond.op == frontend::BinaryOp::kLe};
  }

  std::unordered_map<int, VarBounds> bounds_;
  std::unordered_set<int> assigned_;
};

// --- slack minimization -----------------------------------------------------

enum class Verdict { kCovered, kViolated, kUnknown };

/// Lower-bounds `slack` over the iteration space by repeatedly substituting
/// a bounded variable with the bound that minimizes the poly (its lower
/// bound when the coefficient is positive, its inclusive maximum when
/// negative). Only variables that occur in exactly one monomial, alone and
/// linearly, are eliminated — anything else stays symbolic and the result is
/// kUnknown. When the poly collapses to a constant c, the verdict is
/// kCovered for c >= 0 (the minimum slack is non-negative: every executed
/// iteration stays in the window) and kViolated for c < 0 (some iteration
/// provably leaves it, assuming the loops run at all).
Verdict MinimizeSlack(Poly slack, const BoundsCollector& bounds,
                      std::unordered_map<int, const VarDecl*>& decls,
                      std::int64_t* min_slack) {
  for (int round = 0; round < 16; ++round) {
    Prune(slack);
    if (slack.empty()) {
      *min_slack = 0;
      return Verdict::kCovered;
    }
    if (slack.size() == 1 && slack.begin()->first.empty()) {
      *min_slack = slack.begin()->second;
      return *min_slack >= 0 ? Verdict::kCovered : Verdict::kViolated;
    }

    bool progressed = false;
    for (const auto& [monomial, coeff] : slack) {
      if (monomial.size() != 1) continue;
      const int var = monomial[0];
      bool elsewhere = false;
      for (const auto& [other, c2] : slack) {
        if (other != monomial && MonomialContains(other, var)) {
          elsewhere = true;
        }
      }
      if (elsewhere) continue;
      const VarBounds* vb = bounds.Find(var);
      if (vb == nullptr) continue;
      const Expr* bound = coeff > 0 ? vb->lower : vb->upper;
      if (bound == nullptr) continue;
      Poly substitute;
      if (!AddExpr(*bound, 1, &substitute, decls)) continue;
      if (coeff < 0 && !vb->upper_inclusive) {
        substitute[Monomial{}] -= 1;  // exclusive bound: max value is ub - 1
      }
      Prune(substitute);
      bool self_referential = false;
      for (const auto& [m, c] : substitute) {
        if (MonomialContains(m, var)) self_referential = true;
      }
      if (self_referential) continue;

      // Erasing frees the node `monomial` and `coeff` are bound to.
      const Monomial eliminated = monomial;
      const std::int64_t factor = coeff;
      slack.erase(eliminated);
      for (const auto& [m, c] : substitute) slack[m] += factor * c;
      progressed = true;
      break;
    }
    if (!progressed) return Verdict::kUnknown;
  }
  return Verdict::kUnknown;
}

// --- subscript collection ---------------------------------------------------

struct SubscriptUse {
  const frontend::SubscriptExpr* subscript = nullptr;
  bool write_only = false;  ///< pure store target (never read back)
};

std::string WindowText(const ArrayConfig& config) {
  auto term = [](const Expr* e, const char* name, const char* dflt) {
    std::int64_t v;
    if (e == nullptr) return std::string(dflt);
    if (TryFoldConstant(*e, &v)) return std::to_string(v);
    return std::string(name);
  };
  if (config.cols != nullptr) {
    return "[" + term(config.cols, "cols", "cols") + "*(i - " +
           term(config.left, "left", "0") + "), " +
           term(config.cols, "cols", "cols") + "*(i + 1 + " +
           term(config.right, "right", "0") + ") - 1]";
  }
  return "[" + term(config.stride, "stride", "1") + "*i - " +
         term(config.left, "left", "0") + ", " +
         term(config.stride, "stride", "1") + "*(i+1) - 1 + " +
         term(config.right, "right", "0") + "]";
}

}  // namespace

void CheckOffloadDirectives(const LoopOffload& offload,
                            const Directive* local_access) {
  // A localaccess spec naming an array the loop never touches is harmless
  // (the loader simply has nothing to distribute) but often a typo'd name,
  // so flag it without rejecting.
  if (local_access != nullptr) {
    for (const auto& spec : local_access->local_access) {
      if (offload.FindArray(spec.array) == nullptr) {
        ACCMG_LOG(kWarn) << spec.loc.ToString() << ": localaccess names array '"
                         << spec.array
                         << "' which is not used in the parallel loop";
      }
    }
  }

  BoundsCollector bounds(offload);
  std::vector<SubscriptUse> uses;
  frontend::WalkStmts(*offload.loop->body, [&](const Stmt& stmt) {
    frontend::ForEachArrayAccess(
        stmt, [&](const frontend::SubscriptExpr& sub, Access access) {
          uses.push_back(SubscriptUse{&sub, access == Access::kWrite});
        });
  });

  for (const auto& config : offload.arrays) {
    if (!config.has_localaccess) continue;

    // Reduction destinations stay replicated so that the combined result
    // folds into the pre-kernel value exactly once; a localaccess spec on
    // one contradicts that placement and would silently be ignored.
    if (config.is_reduction_dest) {
      frontend::SourceLocation loc = offload.loop->loc;
      if (local_access != nullptr) {
        for (const auto& spec : local_access->local_access) {
          if (spec.array == config.name) loc = spec.loc;
        }
      }
      Fail(loc, "array '" + config.name +
                    "' is a reductiontoarray destination and cannot also "
                    "have a localaccess declaration (reduction destinations "
                    "are replicated)");
    }

    // Constant-foldable window parameters must be sane.
    std::int64_t folded;
    if (config.stride != nullptr && TryFoldConstant(*config.stride, &folded) &&
        folded < 1) {
      Fail(config.stride->loc, "localaccess stride of '" + config.name +
                                   "' must be >= 1 (got " +
                                   std::to_string(folded) + ")");
    }
    if (config.left != nullptr && TryFoldConstant(*config.left, &folded) &&
        folded < 0) {
      Fail(config.left->loc, "localaccess left halo of '" + config.name +
                                 "' must be >= 0 (got " +
                                 std::to_string(folded) + ")");
    }
    if (config.right != nullptr && TryFoldConstant(*config.right, &folded) &&
        folded < 0) {
      Fail(config.right->loc, "localaccess right halo of '" + config.name +
                                  "' must be >= 0 (got " +
                                  std::to_string(folded) + ")");
    }
    if (config.cols != nullptr && TryFoldConstant(*config.cols, &folded) &&
        folded < 1) {
      Fail(config.cols->loc, "localaccess cols of '" + config.name +
                                 "' must be >= 1 (got " +
                                 std::to_string(folded) + ")");
    }

    // Coverage: for every subscript of this array, the slack polynomials
    //   lo_slack = index - (stride*i - left)
    //   hi_slack = (stride*(i+1) - 1 + right) - index
    // must both be provably >= 0 over the iteration space.
    for (const auto& use : uses) {
      const auto& subscript = *use.subscript;
      if (subscript.base->kind != ExprKind::kVarRef ||
          As<frontend::VarRef>(*subscript.base).decl != config.decl) {
        continue;
      }

      std::unordered_map<int, const VarDecl*> decls;
      Poly index, stride, halo_left, halo_right;
      bool analyzable = AddExpr(*subscript.index, 1, &index, decls);
      if (config.cols != nullptr) {
        // 2-D row window: the effective element stride is the row length,
        // and left/right count whole rows, so the element halos are
        // left*cols and right*cols.
        analyzable &= AddExpr(*config.cols, 1, &stride, decls);
        if (analyzable && config.left != nullptr) {
          Poly rows, scaled;
          analyzable = AddExpr(*config.left, 1, &rows, decls) &&
                       MulPoly(rows, stride, &scaled);
          halo_left = std::move(scaled);
        }
        if (analyzable && config.right != nullptr) {
          Poly rows, scaled;
          analyzable = AddExpr(*config.right, 1, &rows, decls) &&
                       MulPoly(rows, stride, &scaled);
          halo_right = std::move(scaled);
        }
      } else {
        if (config.stride != nullptr) {
          analyzable &= AddExpr(*config.stride, 1, &stride, decls);
        } else {
          stride[Monomial{}] = 1;
        }
        if (config.left != nullptr) {
          analyzable &= AddExpr(*config.left, 1, &halo_left, decls);
        }
        if (config.right != nullptr) {
          analyzable &= AddExpr(*config.right, 1, &halo_right, decls);
        }
      }
      if (!analyzable) continue;  // undecidable: runtime is the backstop

      Poly stride_i;
      Poly induction;
      induction[Monomial{offload.induction->id}] = 1;
      decls[offload.induction->id] = offload.induction;
      if (!MulPoly(stride, induction, &stride_i)) continue;

      // lo_slack = index - stride*i + left
      Poly lo_slack = index;
      for (const auto& [m, c] : stride_i) lo_slack[m] -= c;
      for (const auto& [m, c] : halo_left) lo_slack[m] += c;
      // hi_slack = stride*i + stride - 1 + right - index
      Poly hi_slack = stride_i;
      for (const auto& [m, c] : stride) hi_slack[m] += c;
      hi_slack[Monomial{}] -= 1;
      for (const auto& [m, c] : halo_right) hi_slack[m] += c;
      for (const auto& [m, c] : index) hi_slack[m] -= c;

      for (const auto& [slack, side] :
           {std::pair<Poly, const char*>{lo_slack, "left"},
            std::pair<Poly, const char*>{hi_slack, "right"}}) {
        std::int64_t min_slack = 0;
        if (MinimizeSlack(slack, bounds, decls, &min_slack) !=
            Verdict::kViolated) {
          continue;
        }
        const std::string message =
            "localaccess window " + WindowText(config) + " of '" +
            config.name + "' does not cover this " +
            (use.write_only ? "write" : "read") + " in kernel '" +
            offload.name + "': the index provably escapes the window's " +
            side + " edge by " + std::to_string(-min_slack) + " element(s)";
        if (use.write_only) {
          // Legal — the write-miss buffer replays it on the owner — but a
          // sign the declaration is loose, so it is worth a warning.
          ACCMG_LOG(kWarn) << subscript.loc.ToString() << ": " << message
                           << " (handled by write-miss replay)";
        } else {
          Fail(subscript.loc, message);
        }
      }
    }
  }
}

bool ProveWritesRowLocal(const LoopOffload& offload,
                         const ArrayConfig& config) {
  if (config.cols == nullptr) return false;
  BoundsCollector bounds(offload);

  // Collect every store index of this array (plain and compound assigns).
  std::vector<const Expr*> write_indices;
  frontend::WalkStmts(*offload.loop->body, [&](const Stmt& stmt) {
    frontend::ForEachArrayAccess(
        stmt, [&](const frontend::SubscriptExpr& sub, Access access) {
          if (access != Access::kRead &&
              As<frontend::VarRef>(*sub.base).decl == config.decl) {
            write_indices.push_back(sub.index.get());
          }
        });
  });
  if (write_indices.empty()) return false;

  for (const Expr* index_expr : write_indices) {
    std::unordered_map<int, const VarDecl*> decls;
    Poly index, cols;
    if (!AddExpr(*index_expr, 1, &index, decls)) return false;
    if (!AddExpr(*config.cols, 1, &cols, decls)) return false;
    Poly induction;
    induction[Monomial{offload.induction->id}] = 1;
    decls[offload.induction->id] = offload.induction;
    Poly cols_i;
    if (!MulPoly(cols, induction, &cols_i)) return false;

    // lo = index - cols*i and hi = cols*i + cols - 1 - index must both be
    // provably >= 0: the store stays inside row i. Unlike the coverage
    // check, kUnknown is a failure here — this proof REMOVES the write-miss
    // safety net, so only a definite answer counts.
    Poly lo = index;
    for (const auto& [m, c] : cols_i) lo[m] -= c;
    Poly hi = cols_i;
    for (const auto& [m, c] : cols) hi[m] += c;
    hi[Monomial{}] -= 1;
    for (const auto& [m, c] : index) hi[m] -= c;

    std::int64_t min_slack = 0;
    if (MinimizeSlack(lo, bounds, decls, &min_slack) != Verdict::kCovered) {
      return false;
    }
    if (MinimizeSlack(hi, bounds, decls, &min_slack) != Verdict::kCovered) {
      return false;
    }
  }
  return true;
}

}  // namespace accmg::translator
