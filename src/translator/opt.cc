#include "translator/opt.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "translator/eval.h"
#include "translator/lowering.h"

namespace accmg::translator {

using frontend::As;
using frontend::CompoundStmt;
using frontend::DirectiveKind;
using frontend::Expr;
using frontend::ExprKind;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::VarDecl;
using ir::IsBranch;
using ir::Opcode;
using ir::ProducesValue;

namespace {

// ---------------------------------------------------------------------------
// AST helpers
// ---------------------------------------------------------------------------

bool ExprMentionsAny(const Expr* e,
                     const std::unordered_set<const VarDecl*>& decls) {
  if (e == nullptr || decls.empty()) return false;
  bool hit = false;
  frontend::WalkExprs(*e, [&](const Expr& x) {
    hit = hit || (x.kind == ExprKind::kVarRef &&
                  decls.count(As<frontend::VarRef>(x).decl) != 0);
  });
  return hit;
}

/// Null-tolerant structural equality for directive sub-expressions, where
/// null means the spec's default value.
bool ExprEqualOrBothNull(const Expr* x, const Expr* y) {
  if (x == nullptr || y == nullptr) return x == y;
  return ExprStructurallyEqual(*x, *y);
}

/// Picks the wider of two halo-window expressions (null = 0) when that is
/// statically decidable: structurally equal, or both constant-foldable.
bool PickWiderWindow(const Expr* x, const Expr* y, const Expr** out) {
  if (ExprEqualOrBothNull(x, y)) {
    *out = x;
    return true;
  }
  std::int64_t xv = 0, yv = 0;
  if (x != nullptr && !TryFoldConstant(*x, &xv)) return false;
  if (y != nullptr && !TryFoldConstant(*y, &yv)) return false;
  *out = (xv >= yv) ? x : y;
  return true;
}

/// Matching localaccess strides: structurally equal or same folded constant.
bool StridesMatch(const Expr* x, const Expr* y) {
  if (ExprEqualOrBothNull(x, y)) return true;
  std::int64_t xv = 1, yv = 1;
  if (x != nullptr && !TryFoldConstant(*x, &xv)) return false;
  if (y != nullptr && !TryFoldConstant(*y, &yv)) return false;
  return xv == yv;
}

/// Host-level directives whose position relative to the loop matters; a
/// candidate carrying any of these cannot be moved into / merged with a
/// neighbouring offload.
bool CarriesHostDirectives(const Stmt& s) {
  return s.HasDirective(DirectiveKind::kData) ||
         s.HasDirective(DirectiveKind::kEnterData) ||
         s.HasDirective(DirectiveKind::kExitData) ||
         s.HasDirective(DirectiveKind::kUpdate);
}

// ---------------------------------------------------------------------------
// Fusion legality
// ---------------------------------------------------------------------------

/// The union of one side's affine read/write offset intervals for a shared
/// array, with their common coefficient.
struct AccessSummary {
  std::int64_t coeff = 0;
  std::int64_t min_off = 0;
  std::int64_t max_off = 0;
};

bool SummarizeAccesses(const ArrayConfig& c, AccessSummary* out) {
  if (c.is_read && !c.has_affine_reads) return false;
  if (c.is_written && !c.has_affine_writes) return false;
  if (!c.is_read && !c.is_written) return false;
  if (c.is_read && c.is_written && c.read_coeff != c.write_coeff) return false;
  out->coeff = c.is_written ? c.write_coeff : c.read_coeff;
  if (out->coeff == 0) return false;
  if (c.is_read && c.is_written) {
    out->min_off = std::min(c.read_min_off, c.write_min_off);
    out->max_off = std::max(c.read_max_off, c.write_max_off);
  } else if (c.is_written) {
    out->min_off = c.write_min_off;
    out->max_off = c.write_max_off;
  } else {
    out->min_off = c.read_min_off;
    out->max_off = c.read_max_off;
  }
  return true;
}

/// Proves that every pair of accesses to the shared array from loop
/// iterations i (in A) and j (in B) with i != j touches distinct elements:
/// all indexes are coeff*i + off with one common coeff, and every cross
/// offset difference is smaller than |coeff|, so equal elements force i == j
/// (same fused thread, where program order is preserved).
bool SameElementImpliesSameThread(const AccessSummary& a,
                                  const AccessSummary& b) {
  if (a.coeff != b.coeff) return false;
  const std::int64_t c = a.coeff < 0 ? -a.coeff : a.coeff;
  const std::int64_t spread =
      std::max(a.max_off - b.min_off, b.max_off - a.min_off);
  return spread < c;
}

void MergeAffineSummary(bool a_used, bool a_has, std::int64_t ac,
                        std::int64_t amin, std::int64_t amax, bool b_used,
                        bool b_has, std::int64_t bc, std::int64_t bmin,
                        std::int64_t bmax, bool* out_has, std::int64_t* oc,
                        std::int64_t* omin, std::int64_t* omax) {
  if (a_used && b_used) {
    if (a_has && b_has && ac == bc) {
      *out_has = true;
      *oc = ac;
      *omin = std::min(amin, bmin);
      *omax = std::max(amax, bmax);
    } else {
      *out_has = false;
    }
  } else if (a_used) {
    *out_has = a_has;
    *oc = ac;
    *omin = amin;
    *omax = amax;
  } else if (b_used) {
    *out_has = b_has;
    *oc = bc;
    *omin = bmin;
    *omax = bmax;
  } else {
    *out_has = false;
  }
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Checks every fusion precondition for adjacent offloads `a` (first) and
/// `b` (second). On success fills `merged` with everything except the
/// constituent list and the kernel, which the caller sets and lowers once
/// per run. `a` may itself be a planned merge: every check reads only
/// analysis facts, and Lower() reassigns every index and slot copied here.
bool PlanFusion(const LoopOffload& a, const LoopOffload& b,
                LoopOffload* merged) {
  // Host-position-sensitive directives pin a loop in place.
  if (CarriesHostDirectives(*a.loop) || CarriesHostDirectives(*b.loop)) {
    return false;
  }

  // Identical iteration spaces, proven structurally. The hazard scan below
  // additionally rules out A changing a bound's value between the two
  // evaluations.
  if (a.upper_inclusive != b.upper_inclusive) return false;
  if (!ExprEqualOrBothNull(a.lower_bound, b.lower_bound)) return false;
  if (!ExprEqualOrBothNull(a.upper_bound, b.upper_bound)) return false;

  // Shadowing: one identifier bound to two different parameter declarations
  // across the candidates would make the merged kernel signature (and the
  // launch environment) ambiguous. Induction variables are exempt — every
  // constituent's induction is aliased to the shared thread id in its own
  // scope — but a B-side parameter named like the fused kernel's primary
  // induction would collide with it at CUDA function scope.
  std::unordered_map<std::string, const VarDecl*> names;
  auto note_param = [&](const VarDecl* decl) {
    if (decl == nullptr) return true;
    auto [it, inserted] = names.emplace(decl->name, decl);
    return inserted || it->second == decl;
  };
  bool names_ok = true;
  for (const auto& cfg : a.arrays) names_ok = names_ok && note_param(cfg.decl);
  for (const auto& cfg : b.arrays) names_ok = names_ok && note_param(cfg.decl);
  for (const auto& s : a.scalars) names_ok = names_ok && note_param(s.decl);
  for (const auto& s : b.scalars) names_ok = names_ok && note_param(s.decl);
  for (const auto& r : a.scalar_reds) names_ok = names_ok && note_param(r.decl);
  for (const auto& r : b.scalar_reds) names_ok = names_ok && note_param(r.decl);
  if (!names_ok) return false;
  if (names.count(a.induction->name) != 0) return false;

  // Hazard scan: values A changes on the host (reduction results, written
  // arrays) must not feed anything B evaluates at launch time — bounds,
  // localaccess windows, reduction sections, or scalar arguments — because
  // fusing moves those evaluations before A's results land.
  std::unordered_set<const VarDecl*> a_mutates;
  for (const auto& red : a.scalar_reds) a_mutates.insert(red.decl);
  for (const auto& red : a.array_reds) a_mutates.insert(red.decl);
  for (const auto& cfg : a.arrays) {
    if (cfg.is_written || cfg.is_reduction_dest) a_mutates.insert(cfg.decl);
  }
  if (ExprMentionsAny(b.lower_bound, a_mutates) ||
      ExprMentionsAny(b.upper_bound, a_mutates)) {
    return false;
  }
  for (const auto& cfg : b.arrays) {
    if (ExprMentionsAny(cfg.stride, a_mutates) ||
        ExprMentionsAny(cfg.cols, a_mutates) ||
        ExprMentionsAny(cfg.left, a_mutates) ||
        ExprMentionsAny(cfg.right, a_mutates)) {
      return false;
    }
  }
  for (const auto& red : b.array_reds) {
    if (ExprMentionsAny(red.lower, a_mutates) ||
        ExprMentionsAny(red.length, a_mutates)) {
      return false;
    }
  }
  for (const auto& s : b.scalars) {
    if (a_mutates.count(s.decl) != 0) return false;
  }

  // Scalar reductions may repeat across the sides only with matching ops
  // (then B's accumulation folds into A's slot; add/mul/min/max are
  // commutative and associative, so the combined result is unchanged).
  for (const auto& br : b.scalar_reds) {
    for (const auto& ar : a.scalar_reds) {
      if (ar.decl == br.decl && ar.op != br.op) return false;
    }
  }

  // Per shared array: reduction destinations never fuse; localaccess specs
  // must agree; any cross dependence must be proven same-thread-only.
  merged->arrays = a.arrays;
  for (const auto& bc : b.arrays) {
    ArrayConfig* ac = nullptr;
    for (auto& cfg : merged->arrays) {
      if (cfg.decl == bc.decl) {
        ac = &cfg;
        break;
      }
    }
    if (ac == nullptr) {
      merged->arrays.push_back(bc);
      merged->arrays.back().kernel_array_index = -1;
      continue;
    }
    if (ac->is_reduction_dest || bc.is_reduction_dest) return false;
    if (ac->has_localaccess != bc.has_localaccess) return false;
    if (ac->has_localaccess) {
      if (!StridesMatch(ac->stride, bc.stride)) return false;
      // cols folds null to 1, so a 2-D spec only matches another 2-D spec
      // with the same row length (or a degenerate cols(1) against 1-D).
      if (!StridesMatch(ac->cols, bc.cols)) return false;
      const Expr* left = nullptr;
      const Expr* right = nullptr;
      if (!PickWiderWindow(ac->left, bc.left, &left)) return false;
      if (!PickWiderWindow(ac->right, bc.right, &right)) return false;
      ac->left = left;
      ac->right = right;
    }
    const bool cross_dep = (ac->is_written && bc.is_read) ||
                           (ac->is_read && bc.is_written) ||
                           (ac->is_written && bc.is_written);
    if (cross_dep) {
      AccessSummary sa, sb;
      if (!SummarizeAccesses(*ac, &sa)) return false;
      if (!SummarizeAccesses(bc, &sb)) return false;
      if (!SameElementImpliesSameThread(sa, sb)) return false;
      // A write that may land outside the local shard is spilled to the
      // miss buffer and only replayed after the kernel, so a same-thread
      // read in B would see the stale element. Bail unless A's writes are
      // proven local.
      if (ac->has_localaccess && ac->is_written && !ac->writes_proven_local &&
          bc.is_read) {
        return false;
      }
    }
    // Merge the per-side facts. Windows only ever widen, so each side's
    // locality proof survives the merge.
    ArrayConfig fused = *ac;
    fused.is_read = ac->is_read || bc.is_read;
    fused.is_written = ac->is_written || bc.is_written;
    fused.writes_proven_local =
        (!ac->is_written || ac->writes_proven_local) &&
        (!bc.is_written || bc.writes_proven_local) &&
        (ac->is_written || bc.is_written);
    MergeAffineSummary(ac->is_written, ac->has_affine_writes, ac->write_coeff,
                       ac->write_min_off, ac->write_max_off, bc.is_written,
                       bc.has_affine_writes, bc.write_coeff, bc.write_min_off,
                       bc.write_max_off, &fused.has_affine_writes,
                       &fused.write_coeff, &fused.write_min_off,
                       &fused.write_max_off);
    MergeAffineSummary(ac->is_read, ac->has_affine_reads, ac->read_coeff,
                       ac->read_min_off, ac->read_max_off, bc.is_read,
                       bc.has_affine_reads, bc.read_coeff, bc.read_min_off,
                       bc.read_max_off, &fused.has_affine_reads,
                       &fused.read_coeff, &fused.read_min_off,
                       &fused.read_max_off);
    fused.kernel_array_index = -1;
    *ac = fused;
  }

  merged->id = a.id;
  merged->name = EndsWith(a.name, "_fused") ? a.name : a.name + "_fused";
  merged->loop = a.loop;
  merged->induction = a.induction;
  merged->lower_bound = a.lower_bound;
  merged->upper_bound = a.upper_bound;
  merged->upper_inclusive = a.upper_inclusive;

  merged->scalars = a.scalars;
  for (const auto& s : b.scalars) {
    bool present = false;
    for (const auto& e : merged->scalars) present = present || e.decl == s.decl;
    if (!present) merged->scalars.push_back(s);
  }
  for (auto& s : merged->scalars) s.kernel_scalar_index = -1;

  merged->scalar_reds = a.scalar_reds;
  for (const auto& r : b.scalar_reds) {
    bool present = false;
    for (const auto& e : merged->scalar_reds) {
      present = present || (e.decl == r.decl && e.op == r.op);
    }
    if (!present) merged->scalar_reds.push_back(r);
  }
  for (auto& r : merged->scalar_reds) r.slot = -1;

  merged->array_reds = a.array_reds;
  merged->array_reds.insert(merged->array_reds.end(), b.array_reds.begin(),
                            b.array_reds.end());
  for (auto& r : merged->array_reds) r.slot = -1;

  return true;
}

// ---------------------------------------------------------------------------
// Fusion driver
// ---------------------------------------------------------------------------

/// Lowers the planned merge of the offloads at `members` (indexes into
/// `fn.offloads`, in source order) and installs it in place of the first.
/// Returns false, leaving the run unfused, if lowering throws.
bool LowerRun(CompiledFunction& fn, const std::vector<int>& members,
              LoopOffload& merged) {
  for (const int m : members) {
    const LoopOffload& part = fn.offloads[static_cast<std::size_t>(m)];
    merged.fused.push_back({part.loop, part.induction});
  }
  try {
    KernelLowering lowering(merged);
    lowering.Lower();
  } catch (const Error&) {
    // Lowering the concatenated bodies should always succeed (each part
    // lowered on its own); if it does not, refuse the run rather than fail
    // the compile.
    return false;
  }
  fn.offloads[static_cast<std::size_t>(members[0])] = std::move(merged);
  return true;
}

/// One left-to-right pass per compound statement: each maximal run of
/// adjacent offloads is grown by planning one more loop onto the merge so
/// far, then lowered once. A refused boundary is final: PlanFusion is
/// monotone in its right side (a loop that later absorbs its successors
/// only gains accesses, names and wider windows), so the refused loop
/// starts the next run and the refusal is counted once.
void FuseAdjacentOffloads(CompiledFunction& fn, OptStats* stats) {
  std::vector<const CompoundStmt*> compounds;
  frontend::WalkStmts(*fn.function->body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kCompound) {
      compounds.push_back(&As<CompoundStmt>(s));
    }
  });
  std::vector<char> absorbed(fn.offloads.size(), 0);
  bool any = false;
  for (const CompoundStmt* compound : compounds) {
    const auto& body = compound->body;
    std::size_t i = 0;
    while (i < body.size()) {
      auto head = fn.offload_of_stmt.find(body[i].get());
      if (head == fn.offload_of_stmt.end()) {
        ++i;
        continue;
      }
      std::vector<int> members = {head->second};
      LoopOffload merged;
      std::size_t j = i + 1;
      for (; j < body.size(); ++j) {
        auto next = fn.offload_of_stmt.find(body[j].get());
        if (next == fn.offload_of_stmt.end()) break;
        const LoopOffload& left =
            members.size() == 1
                ? fn.offloads[static_cast<std::size_t>(members[0])]
                : merged;
        const LoopOffload& right =
            fn.offloads[static_cast<std::size_t>(next->second)];
        LoopOffload grown;
        if (!PlanFusion(left, right, &grown)) {
          ++stats->bailouts;
          break;
        }
        merged = std::move(grown);
        members.push_back(next->second);
      }
      i = j;
      if (members.size() < 2) continue;
      const int planned = static_cast<int>(members.size()) - 1;
      if (!LowerRun(fn, members, merged)) {
        stats->bailouts += planned;
        continue;
      }
      stats->fusions += planned;
      for (std::size_t k = 1; k < members.size(); ++k) {
        const auto m = static_cast<std::size_t>(members[k]);
        fn.fused_away.insert(fn.offloads[m].loop);
        absorbed[m] = 1;
      }
      any = true;
    }
  }
  if (!any) return;

  std::size_t kept = 0;
  for (std::size_t m = 0; m < fn.offloads.size(); ++m) {
    if (absorbed[m]) continue;
    if (kept != m) fn.offloads[kept] = std::move(fn.offloads[m]);
    ++kept;
  }
  fn.offloads.resize(kept);
  fn.offload_of_stmt.clear();
  for (std::size_t m = 0; m < fn.offloads.size(); ++m) {
    fn.offloads[m].id = static_cast<int>(m);
    fn.offload_of_stmt[fn.offloads[m].loop] = static_cast<int>(m);
  }
}

// ---------------------------------------------------------------------------
// Kernel IR facts
// ---------------------------------------------------------------------------

bool ReadsA(Opcode op) {
  switch (op) {
    case Opcode::kConstI:
    case Opcode::kConstF:
    case Opcode::kBr:
    case Opcode::kRet:
      return false;
    default:
      return true;
  }
}

bool ReadsB(Opcode op) {
  switch (op) {
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kDivI:
    case Opcode::kModI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kXorI:
    case Opcode::kShlI:
    case Opcode::kShrI:
    case Opcode::kMinI:
    case Opcode::kMaxI:
    case Opcode::kAddF:
    case Opcode::kSubF:
    case Opcode::kMulF:
    case Opcode::kDivF:
    case Opcode::kPowF:
    case Opcode::kFminF:
    case Opcode::kFmaxF:
    case Opcode::kCmpLtI:
    case Opcode::kCmpLeI:
    case Opcode::kCmpEqI:
    case Opcode::kCmpNeI:
    case Opcode::kCmpLtF:
    case Opcode::kCmpLeF:
    case Opcode::kCmpEqF:
    case Opcode::kCmpNeF:
    case Opcode::kStore:
    case Opcode::kRedArray:
      return true;
    default:
      return false;
  }
}

/// Integer ops where swapping operands is a bit-exact identity. Float ops
/// are excluded: a NaN payload can depend on operand order.
bool CommutesExactly(Opcode op) {
  switch (op) {
    case Opcode::kAddI:
    case Opcode::kMulI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kXorI:
    case Opcode::kMinI:
    case Opcode::kMaxI:
    case Opcode::kCmpEqI:
    case Opcode::kCmpNeI:
      return true;
    default:
      return false;
  }
}

int RedArrayTarget(const ir::KernelIR& kernel, const ir::Instr& in) {
  const auto slot = static_cast<std::size_t>(in.imm.i);
  if (slot < kernel.array_reductions.size()) {
    return kernel.array_reductions[slot].array_index;
  }
  return -1;
}

/// Value-numbering key of one computation: opcode, operand values, and
/// the immediate (constants) or array and store epoch (loads).
struct ValueKey {
  Opcode op{};
  int arr = -1;
  std::int64_t va = 0;
  std::int64_t vb = 0;
  std::int64_t imm1 = 0;
  std::int64_t imm2 = 0;

  bool operator==(const ValueKey& o) const {
    return op == o.op && arr == o.arr && va == o.va && vb == o.vb &&
           imm1 == o.imm1 && imm2 == o.imm2;
  }
};

struct ValueKeyHash {
  std::size_t operator()(const ValueKey& k) const {
    std::uint64_t h = (static_cast<std::uint64_t>(k.op) << 32) ^
                      static_cast<std::uint32_t>(k.arr);
    for (const std::int64_t x : {k.va, k.vb, k.imm1, k.imm2}) {
      h ^= static_cast<std::uint64_t>(x) + 0x9E3779B97F4A7C15ULL + (h << 6) +
           (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Removes instructions marked dead and remaps branch targets. A deleted
/// instruction is always pure fall-through, so a target pointing at one is
/// redirected to the next surviving instruction.
void CompactCode(ir::KernelIR& kernel, const std::vector<char>& dead) {
  auto& code = kernel.code;
  std::vector<std::int64_t> newpc(code.size() + 1, 0);
  std::int64_t kept = 0;
  for (std::size_t p = 0; p < code.size(); ++p) {
    newpc[p] = kept;
    if (!dead[p]) ++kept;
  }
  newpc[code.size()] = kept;
  if (kept == static_cast<std::int64_t>(code.size())) return;
  std::vector<ir::Instr> out;
  out.reserve(static_cast<std::size_t>(kept));
  for (std::size_t p = 0; p < code.size(); ++p) {
    if (dead[p]) continue;
    ir::Instr in = code[p];
    if (IsBranch(in.op)) in.imm.i = newpc[static_cast<std::size_t>(in.imm.i)];
    out.push_back(in);
  }
  code = std::move(out);
}

}  // namespace

// ---------------------------------------------------------------------------
// CSE
// ---------------------------------------------------------------------------

int CsePass(ir::KernelIR& kernel) {
  auto& code = kernel.code;
  if (code.empty()) return 0;
  int hits = 0;

  std::vector<char> leader(code.size(), 0);
  leader[0] = 1;
  for (std::size_t p = 0; p < code.size(); ++p) {
    if (IsBranch(code[p].op)) {
      leader[static_cast<std::size_t>(code[p].imm.i)] = 1;
      if (p + 1 < code.size()) leader[p + 1] = 1;
    } else if (code[p].op == Opcode::kRet) {
      if (p + 1 < code.size()) leader[p + 1] = 1;
    }
  }

  // Per-block local value numbering. Unwritten registers carry the opaque
  // value -(reg+1); computed values are numbered 1, 2, ... per block. `rep`
  // maps a value to a register currently holding it, used both to rewrite
  // operands and to satisfy repeat computations; `held` is its reverse
  // index (0 = none), exact because a register represents at most one
  // value. Both are dense: opaque values take slots [0, num_regs) and
  // computed values the slots after, of which a block uses at most one per
  // instruction. Only registers written in a block are reset after it.
  const auto num_regs = static_cast<std::size_t>(kernel.num_regs);
  const auto opaque = [](std::size_t r) {
    return -static_cast<std::int64_t>(r) - 1;
  };
  const auto slot = [num_regs](std::int64_t v) {
    return v < 0 ? static_cast<std::size_t>(-v - 1)
                 : num_regs + static_cast<std::size_t>(v - 1);
  };
  std::vector<std::int64_t> regval(num_regs);
  for (std::size_t r = 0; r < num_regs; ++r) regval[r] = opaque(r);
  std::vector<int> rep(num_regs + code.size(), -1);
  std::vector<std::int64_t> held(num_regs, 0);
  std::vector<std::size_t> written;
  // Store epochs only ever grow, so keys from an earlier block (whose table
  // is gone) can never be confused with this block's.
  std::vector<std::int64_t> epoch(kernel.arrays.size(), 0);

  const auto invalidate_reg = [&](std::size_t r) {
    if (held[r] != 0) {
      rep[slot(held[r])] = -1;
      held[r] = 0;
    }
  };
  // Gives `dst` the value `v`. A newly numbered value is always held by
  // its defining register; a copy of an existing value becomes its holder
  // only when no other register holds it.
  const auto define = [&](int dst, std::int64_t v, bool claim) {
    const auto d = static_cast<std::size_t>(dst);
    invalidate_reg(d);
    regval[d] = v;
    written.push_back(d);
    int& holder = rep[slot(v)];
    if (claim || holder < 0) {
      holder = dst;
      held[d] = v;
    }
  };
  const auto canon = [&](int r) {
    const int holder = rep[slot(regval[static_cast<std::size_t>(r)])];
    return holder >= 0 ? holder : r;
  };

  std::size_t start = 0;
  while (start < code.size()) {
    std::size_t end = start + 1;
    while (end < code.size() && !leader[end]) ++end;

    std::unordered_map<ValueKey, std::int64_t, ValueKeyHash> table;
    std::int64_t next_value = 1;
    for (std::size_t p = start; p < end; ++p) {
      auto& in = code[p];
      if (ReadsA(in.op) && in.a >= 0) in.a = canon(in.a);
      if (ReadsB(in.op) && in.b >= 0) in.b = canon(in.b);
      if (in.op == Opcode::kStore) {
        if (in.arr >= 0) ++epoch[static_cast<std::size_t>(in.arr)];
        continue;
      }
      if (in.op == Opcode::kRedArray) {
        const int target = RedArrayTarget(kernel, in);
        if (target >= 0) ++epoch[static_cast<std::size_t>(target)];
        continue;
      }
      if (!ProducesValue(in.op) || in.dst < 0) continue;

      if (in.op == Opcode::kMov) {
        define(in.dst, regval[static_cast<std::size_t>(in.a)], false);
        continue;
      }

      ValueKey key;
      key.op = in.op;
      key.va = (ReadsA(in.op) && in.a >= 0)
                   ? regval[static_cast<std::size_t>(in.a)]
                   : 0;
      key.vb = (ReadsB(in.op) && in.b >= 0)
                   ? regval[static_cast<std::size_t>(in.b)]
                   : 0;
      if (in.op == Opcode::kConstI) {
        key.imm1 = in.imm.i;
      } else if (in.op == Opcode::kConstF) {
        std::memcpy(&key.imm1, &in.imm.f, sizeof(key.imm1));
      } else if (in.op == Opcode::kLoad) {
        key.arr = in.arr;
        key.imm2 = epoch[static_cast<std::size_t>(in.arr)];
      }
      if (CommutesExactly(in.op) && key.va > key.vb) std::swap(key.va, key.vb);

      auto [it, inserted] = table.try_emplace(key, 0);
      const int src = inserted ? -1 : rep[slot(it->second)];
      if (src >= 0) {
        in.op = Opcode::kMov;
        in.a = src;
        in.b = -1;
        in.arr = -1;
        in.imm.i = 0;
        define(in.dst, it->second, false);
        ++hits;
      } else {
        it->second = next_value++;
        define(in.dst, it->second, true);
      }
    }
    for (const std::size_t r : written) {
      regval[r] = opaque(r);
      invalidate_reg(r);
    }
    written.clear();
    start = end;
  }

  // Global dead-code sweep: delete pure instructions whose result no
  // surviving instruction reads (most of the kMov placeholders above become
  // dead once their uses were rewritten to the canonical register). Each
  // register keeps a count of live reads; when it drops to zero, every
  // definition of the register dies and releases its own operands, which
  // reaches the same fix point as rescanning until nothing changes.
  std::vector<char> dead(code.size(), 0);
  std::vector<int> reads(num_regs, 0);
  std::vector<int> first_def(num_regs, -1);
  std::vector<int> next_def(code.size(), -1);
  const auto for_each_read = [&](const ir::Instr& in, auto&& f) {
    if (ReadsA(in.op) && in.a >= 0) f(static_cast<std::size_t>(in.a));
    if (ReadsB(in.op) && in.b >= 0) f(static_cast<std::size_t>(in.b));
  };
  for (std::size_t p = 0; p < code.size(); ++p) {
    const auto& in = code[p];
    const bool defines = ProducesValue(in.op) && in.dst >= 0;
    if (defines && in.op == Opcode::kMov && in.a == in.dst) {
      dead[p] = 1;  // a self-copy neither defines nor reads anything new
      continue;
    }
    for_each_read(in, [&](std::size_t r) { ++reads[r]; });
    if (defines) {
      const auto d = static_cast<std::size_t>(in.dst);
      next_def[p] = first_def[d];
      first_def[d] = static_cast<int>(p);
    }
  }
  std::vector<std::size_t> unread;
  for (std::size_t r = 0; r < num_regs; ++r) {
    if (reads[r] == 0 && first_def[r] >= 0) unread.push_back(r);
  }
  while (!unread.empty()) {
    const std::size_t r = unread.back();
    unread.pop_back();
    for (int p = first_def[r]; p >= 0;
         p = next_def[static_cast<std::size_t>(p)]) {
      const auto q = static_cast<std::size_t>(p);
      dead[q] = 1;
      for_each_read(code[q], [&](std::size_t operand) {
        if (--reads[operand] == 0) unread.push_back(operand);
      });
    }
  }
  CompactCode(kernel, dead);
  return hits;
}

// ---------------------------------------------------------------------------
// Loop-invariant hoisting
// ---------------------------------------------------------------------------

namespace {

/// Folds the subset of integer ops that cannot trap, in wrap-around
/// arithmetic, for the entered-once proof.
bool FoldInt(Opcode op, std::int64_t x, std::int64_t y, std::int64_t* out) {
  const auto ux = static_cast<std::uint64_t>(x);
  const auto uy = static_cast<std::uint64_t>(y);
  switch (op) {
    case Opcode::kAddI: *out = static_cast<std::int64_t>(ux + uy); return true;
    case Opcode::kSubI: *out = static_cast<std::int64_t>(ux - uy); return true;
    case Opcode::kMulI: *out = static_cast<std::int64_t>(ux * uy); return true;
    case Opcode::kMinI: *out = std::min(x, y); return true;
    case Opcode::kMaxI: *out = std::max(x, y); return true;
    case Opcode::kCmpLtI: *out = x < y ? 1 : 0; return true;
    case Opcode::kCmpLeI: *out = x <= y ? 1 : 0; return true;
    case Opcode::kCmpEqI: *out = x == y ? 1 : 0; return true;
    case Opcode::kCmpNeI: *out = x != y ? 1 : 0; return true;
    default: return false;
  }
}

/// Proves the loop [t, p] runs its body at least once whenever control
/// reaches t for the first time, by constant-evaluating the head condition.
/// Constants come from the straight-line window immediately before t and
/// from the head prefix [t, z) itself.
bool ProvenEntered(const ir::KernelIR& kernel, std::size_t t, std::size_t z,
                   std::size_t p, const std::vector<char>& is_target) {
  const auto& code = kernel.code;
  std::size_t w = t;
  while (w > 0 && !IsBranch(code[w - 1].op) && code[w - 1].op != Opcode::kRet &&
         !is_target[w - 1]) {
    --w;
  }
  std::unordered_map<int, std::int64_t> consts;
  auto run = [&](std::size_t from, std::size_t to) {
    for (std::size_t q = from; q < to; ++q) {
      const auto& in = code[q];
      if (!ProducesValue(in.op) || in.dst < 0) continue;
      if (in.op == Opcode::kConstI) {
        consts[in.dst] = in.imm.i;
        continue;
      }
      if (in.op == Opcode::kMov) {
        auto it = consts.find(in.a);
        if (it != consts.end()) {
          consts[in.dst] = it->second;
        } else {
          consts.erase(in.dst);
        }
        continue;
      }
      std::int64_t folded = 0;
      auto ia = consts.find(in.a);
      auto ib = consts.find(in.b);
      if (ReadsA(in.op) && ReadsB(in.op) && ia != consts.end() &&
          ib != consts.end() &&
          FoldInt(in.op, ia->second, ib->second, &folded)) {
        consts[in.dst] = folded;
      } else {
        consts.erase(in.dst);
      }
    }
  };
  run(w, t);
  run(t, z);
  const auto& br = code[z];
  const auto inside = [&](std::int64_t target) {
    return target >= static_cast<std::int64_t>(t) &&
           target <= static_cast<std::int64_t>(p);
  };
  if (br.op == Opcode::kBr) return inside(br.imm.i);
  if (br.op != Opcode::kBrIf && br.op != Opcode::kBrIfNot) return false;
  auto it = consts.find(br.a);
  if (it == consts.end()) return false;
  const bool taken =
      br.op == Opcode::kBrIf ? it->second != 0 : it->second == 0;
  if (!taken) return true;  // falls through into the body
  return inside(br.imm.i);
}

}  // namespace

int HoistPass(ir::KernelIR& kernel) {
  int hoists = 0;
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    auto& code = kernel.code;
    std::vector<char> is_target(code.size(), 0);
    for (const auto& in : code) {
      if (IsBranch(in.op)) is_target[static_cast<std::size_t>(in.imm.i)] = 1;
    }
    for (std::size_t p = 0; p < code.size() && !changed; ++p) {
      if (!IsBranch(code[p].op)) continue;
      const std::int64_t target = code[p].imm.i;
      if (target > static_cast<std::int64_t>(p)) continue;
      const auto t = static_cast<std::size_t>(target);

      // Innermost natural loop only: no other back-edge inside [t, p).
      bool innermost = true;
      for (std::size_t q = t; q < p && innermost; ++q) {
        if (IsBranch(code[q].op) &&
            code[q].imm.i <= static_cast<std::int64_t>(q)) {
          innermost = false;
        }
      }
      if (!innermost) continue;

      // The hoisted block lands just before t, so the loop must only be
      // enterable by falling into t: no branch outside [t, p] may target
      // anything inside it.
      bool fallthrough_entry = true;
      for (std::size_t q = 0; q < code.size() && fallthrough_entry; ++q) {
        if (q >= t && q <= p) continue;
        if (IsBranch(code[q].op) &&
            code[q].imm.i >= static_cast<std::int64_t>(t) &&
            code[q].imm.i <= static_cast<std::int64_t>(p)) {
          fallthrough_entry = false;
        }
      }
      if (!fallthrough_entry) continue;

      // Zone 1 [t, z): the head prefix, executed unconditionally on every
      // arrival at t — hoisting from here never adds an execution.
      std::size_t z = t;
      while (z < p && !IsBranch(code[z].op) && code[z].op != Opcode::kRet) {
        ++z;
      }

      // Zone 2 (z, z2): the unconditional body prefix after a conditional
      // exit branch. Instructions here run once per iteration, so they may
      // move only when the loop provably iterates at least once.
      std::size_t z2_begin = z;
      std::size_t z2_end = z;
      if (z < p && (code[z].op == Opcode::kBrIf ||
                    code[z].op == Opcode::kBrIfNot) &&
          !(code[z].imm.i >= static_cast<std::int64_t>(t) &&
            code[z].imm.i <= static_cast<std::int64_t>(p)) &&
          ProvenEntered(kernel, t, z, p, is_target)) {
        z2_begin = z + 1;
        z2_end = z2_begin;
        while (z2_end < p && !IsBranch(code[z2_end].op) &&
               code[z2_end].op != Opcode::kRet && !is_target[z2_end]) {
          ++z2_end;
        }
      }

      auto in_zone = [&](std::size_t q) {
        return (q >= t && q < z) || (q >= z2_begin && q < z2_end);
      };

      std::vector<int> defcount(static_cast<std::size_t>(kernel.num_regs), 0);
      std::vector<char> arr_mutated(kernel.arrays.size(), 0);
      for (std::size_t q = t; q <= p; ++q) {
        const auto& in = code[q];
        if (ProducesValue(in.op) && in.dst >= 0) {
          ++defcount[static_cast<std::size_t>(in.dst)];
        }
        if (in.op == Opcode::kStore && in.arr >= 0) {
          arr_mutated[static_cast<std::size_t>(in.arr)] = 1;
        }
        if (in.op == Opcode::kRedArray) {
          const int ai = RedArrayTarget(kernel, in);
          if (ai >= 0) arr_mutated[static_cast<std::size_t>(ai)] = 1;
        }
      }

      std::vector<char> hoist(code.size(), 0);
      // A read operand is invariant if its only in-loop defs are themselves
      // hoisted instructions located before the candidate (so the hoisted
      // block, emitted in original order, defines it first).
      auto operand_ok = [&](int r, std::size_t q) {
        if (r < 0) return true;
        for (std::size_t d = t; d <= p; ++d) {
          const auto& in = code[d];
          if (!ProducesValue(in.op) || in.dst != r) continue;
          if (!(hoist[d] && d < q)) return false;
        }
        return true;
      };
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t q = t; q < z2_end; ++q) {
          if (!in_zone(q) || hoist[q]) continue;
          const auto& in = code[q];
          if (!ProducesValue(in.op) || in.dst < 0) continue;
          if (in.op == Opcode::kLoad &&
              (in.arr < 0 || arr_mutated[static_cast<std::size_t>(in.arr)])) {
            continue;
          }
          if (defcount[static_cast<std::size_t>(in.dst)] != 1) continue;
          if (ReadsA(in.op) && !operand_ok(in.a, q)) continue;
          if (ReadsB(in.op) && !operand_ok(in.b, q)) continue;
          // The first iteration must not observe the pre-loop value of dst.
          bool dst_read_before = false;
          for (std::size_t r = t; r < q && !dst_read_before; ++r) {
            const auto& rd = code[r];
            if ((ReadsA(rd.op) && rd.a == in.dst) ||
                (ReadsB(rd.op) && rd.b == in.dst)) {
              dst_read_before = true;
            }
          }
          if (dst_read_before) continue;
          hoist[q] = 1;
          progress = true;
        }
      }

      std::int64_t moved = 0;
      for (std::size_t q = t; q < z2_end; ++q) moved += hoist[q] ? 1 : 0;
      if (moved == 0) continue;

      // Rebuild: [0, t) + hoisted (original order) + the rest. Targets at or
      // after t shift past the hoisted block; a target that WAS a hoisted
      // instruction redirects to the next surviving one, which is correct
      // because the hoisted value is already in its register.
      std::vector<ir::Instr> out;
      out.reserve(code.size());
      for (std::size_t q = 0; q < t; ++q) out.push_back(code[q]);
      for (std::size_t q = t; q < z2_end; ++q) {
        if (hoist[q]) out.push_back(code[q]);
      }
      std::vector<std::int64_t> newpc(code.size() + 1, 0);
      for (std::size_t q = 0; q < t; ++q) {
        newpc[q] = static_cast<std::int64_t>(q);
      }
      std::int64_t pos = static_cast<std::int64_t>(t) + moved;
      for (std::size_t q = t; q < code.size(); ++q) {
        newpc[q] = pos;
        if (!(q < z2_end && hoist[q])) ++pos;
      }
      newpc[code.size()] = pos;
      for (std::size_t q = t; q < code.size(); ++q) {
        if (q < z2_end && hoist[q]) continue;
        out.push_back(code[q]);
      }
      for (auto& in : out) {
        if (IsBranch(in.op)) {
          in.imm.i = newpc[static_cast<std::size_t>(in.imm.i)];
        }
      }
      code = std::move(out);
      hoists += static_cast<int>(moved);
      changed = true;
    }
  }
  return hoists;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

OptStats OptimizeFunction(CompiledFunction& fn, const CompileOptions& options) {
  OptStats stats;
  if (options.opt_level <= 0) return stats;
  trace::Span span("optimize:" + fn.function->name, trace::category::kCompile);

  {
    trace::Span pass("opt.fuse", trace::category::kCompile);
    FuseAdjacentOffloads(fn, &stats);
  }
  {
    trace::Span pass("opt.cse", trace::category::kCompile);
    for (auto& offload : fn.offloads) {
      stats.cse_hits += CsePass(offload.kernel);
    }
  }
  if (options.opt_level >= 2) {
    trace::Span pass("opt.hoist", trace::category::kCompile);
    for (auto& offload : fn.offloads) {
      const int hoists = HoistPass(offload.kernel);
      stats.hoists += hoists;
      // Hoisting can expose new block-local redundancy (and dead copies).
      if (hoists > 0) stats.cse_hits += CsePass(offload.kernel);
    }
  }

  auto& registry = metrics::Registry::Global();
  registry.counter("opt.fusions").Add(static_cast<std::uint64_t>(stats.fusions));
  registry.counter("opt.hoists").Add(static_cast<std::uint64_t>(stats.hoists));
  registry.counter("opt.cse_hits")
      .Add(static_cast<std::uint64_t>(stats.cse_hits));
  registry.counter("opt.bailouts")
      .Add(static_cast<std::uint64_t>(stats.bailouts));
  return stats;
}

}  // namespace accmg::translator
