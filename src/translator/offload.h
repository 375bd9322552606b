// Translator output: one LoopOffload per annotated parallel loop, carrying
// the generated KernelIR plus the "array configuration information" of the
// paper (Section IV-B5) that the runtime's data loader and communication
// manager consume.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "frontend/ast.h"
#include "ir/exec.h"
#include "ir/ir.h"

namespace accmg::translator {

/// Placement-relevant facts about one array used in one parallel loop.
struct ArrayConfig {
  const frontend::VarDecl* decl = nullptr;
  std::string name;
  ir::ValType elem{};

  bool is_read = false;
  bool is_written = false;

  /// localaccess extension given for this array in this loop: iteration i
  /// reads [stride*i - left, stride*(i+1) - 1 + right]. Expressions are
  /// evaluated in the host environment at launch time.
  bool has_localaccess = false;
  const frontend::Expr* stride = nullptr;  ///< null = 1
  const frontend::Expr* left = nullptr;    ///< null = 0
  const frontend::Expr* right = nullptr;   ///< null = 0

  /// 2-D extension: non-null when the localaccess spec carried `cols(m)`.
  /// The array is a row-major 2-D view whose rows the loop iterates; at
  /// launch the executor evaluates it to the row length and scales the
  /// window to elements (stride = cols, halos = left*cols / right*cols), so
  /// row blocks stay contiguous and all 1-D placement machinery applies.
  /// Mutually exclusive with `stride`.
  const frontend::Expr* cols = nullptr;

  /// This array is the destination of a reductiontoarray statement.
  bool is_reduction_dest = false;

  /// Every write index was statically proven inside the localaccess range
  /// (index = stride*i + c with -left <= c <= stride-1+right), so the
  /// write-miss check is eliminated (paper Section IV-D2, last paragraph).
  bool writes_proven_local = false;

  /// Static affine write summary: set when every write index of this array
  /// in the loop is affine in the induction variable with one common
  /// coefficient (index = write_coeff*i + c, write_min_off <= c <=
  /// write_max_off). The async pipeline's boundary/interior splitter uses
  /// it to bound which iterations can touch another device's elements;
  /// absent (false) means writes are unanalyzable and the splitter must be
  /// conservative.
  bool has_affine_writes = false;
  std::int64_t write_coeff = 0;
  std::int64_t write_min_off = 0;
  std::int64_t write_max_off = 0;

  /// Static affine read summary, the read-side twin of the write summary:
  /// set when the loop reads this array and every read index (including
  /// compound-assignment targets) is affine in the induction variable with
  /// one common coefficient. The mid-end fusion pass uses read and write
  /// summaries together to prove that two adjacent loops never touch the
  /// same element from different iterations; absent means the reads are
  /// unanalyzable and fusion involving this array must bail out.
  bool has_affine_reads = false;
  std::int64_t read_coeff = 0;
  std::int64_t read_min_off = 0;
  std::int64_t read_max_off = 0;

  int kernel_array_index = -1;  ///< into KernelIR::arrays
};

/// A loop-invariant scalar passed to the kernel at launch.
struct ScalarArg {
  const frontend::VarDecl* decl = nullptr;
  int kernel_scalar_index = -1;
};

/// A scalar reduction target (OpenACC reduction clause).
struct ScalarRedTarget {
  const frontend::VarDecl* decl = nullptr;
  ir::RedOp op{};
  int slot = -1;
};

/// A reduction-to-array target (the paper's extension).
struct ArrayRedTarget {
  const frontend::VarDecl* decl = nullptr;
  ir::RedOp op{};
  int slot = -1;
  const frontend::Expr* lower = nullptr;   ///< null = 0
  const frontend::Expr* length = nullptr;  ///< null = whole array
};

/// One source loop folded into a fused offload. Every constituent's
/// induction variable aliases the kernel thread-id register, so the fused
/// kernel runs the concatenated bodies once per shared iteration.
struct FusedLoop {
  const frontend::ForStmt* loop = nullptr;
  const frontend::VarDecl* induction = nullptr;
};

struct LoopOffload {
  int id = -1;
  std::string name;
  const frontend::ForStmt* loop = nullptr;
  const frontend::VarDecl* induction = nullptr;
  const frontend::Expr* lower_bound = nullptr;  ///< loop starts at this value
  const frontend::Expr* upper_bound = nullptr;  ///< exclusive unless inclusive
  bool upper_inclusive = false;

  /// Non-empty iff the mid-end fused this offload out of several adjacent
  /// parallel loops; constituents are in source order and the first entry
  /// is `loop` itself. Empty for a one-to-one translation.
  std::vector<FusedLoop> fused;

  ir::KernelIR kernel;
  /// `kernel` decoded for execution; built once by Compile after the
  /// mid-end and shared read-only by every launch of this offload.
  ir::DecodedKernel decoded;
  std::vector<ArrayConfig> arrays;        ///< parallel to kernel.arrays
  std::vector<ScalarArg> scalars;         ///< parallel to kernel.scalars
  std::vector<ScalarRedTarget> scalar_reds;
  std::vector<ArrayRedTarget> array_reds;

  /// Canonical lookup, keyed on the resolved declaration. Use this from the
  /// runtime and dependence analysis: two VarDecls may share an identifier
  /// (shadowing across scopes), and a name-keyed lookup would resolve both
  /// to whichever config happens to come first.
  const ArrayConfig* FindArray(const frontend::VarDecl& decl) const {
    for (const auto& config : arrays) {
      if (config.decl == &decl) return &config;
    }
    return nullptr;
  }

  /// Name-keyed lookup, for resolving directive text (e.g. a localaccess
  /// spec names arrays by identifier) where only the source spelling is
  /// available. Ambiguous under shadowing — prefer the VarDecl overload
  /// whenever a resolved declaration is at hand.
  const ArrayConfig* FindArray(const std::string& array_name) const {
    for (const auto& config : arrays) {
      if (config.name == array_name) return &config;
    }
    return nullptr;
  }
};

struct CompiledFunction {
  const frontend::Function* function = nullptr;
  std::vector<LoopOffload> offloads;
  /// Statement (the annotated ForStmt) -> index into `offloads`.
  std::unordered_map<const frontend::Stmt*, int> offload_of_stmt;
  /// Loop statements the mid-end fused into a preceding offload. The host
  /// interpreter must treat these as no-ops: their work runs when the
  /// fused offload (keyed on the first constituent's statement) executes.
  std::unordered_set<const frontend::Stmt*> fused_away;
};

struct CompiledProgram {
  /// Owned by the caller of Compile; kept for convenient lookups.
  const frontend::Program* program = nullptr;
  std::vector<CompiledFunction> functions;

  const CompiledFunction* FindFunction(const std::string& name) const {
    for (const auto& f : functions) {
      if (f.function->name == name) return &f;
    }
    return nullptr;
  }
};

/// Knobs of the translation pipeline.
struct CompileOptions {
  /// Run the static directive checker (translator/check.h) on every offload:
  /// localaccess declarations must cover the loop's provable read indices,
  /// reductiontoarray destinations must not carry a localaccess spec, and
  /// every localaccess spec must name an array the loop uses. Proven
  /// violations become CompileErrors; anything the symbolic analysis cannot
  /// decide passes. Off switches the runtime back to trusting directives
  /// blindly (accmgc --no-directive-check).
  bool check_directives = true;

  /// Mid-end optimization level (accmgc --opt-level={0,1,2}):
  ///   0 — translate every parallel loop one-to-one (the paper's pipeline);
  ///   1 — dependence-proven fusion of adjacent parallel loops plus local
  ///       CSE over the generated kernel IR (default);
  ///   2 — additionally hoist loop-invariant IR out of provably-entered
  ///       inner loops.
  /// Every rewrite bails out conservatively: an unprovable candidate is
  /// left untouched, never compiled wrong.
  int opt_level = 1;
};

/// Translates every function of an analyzed program. Throws CompileError on
/// constructs the translator cannot offload.
CompiledProgram Compile(const frontend::Program& program);
CompiledProgram Compile(const frontend::Program& program,
                        const CompileOptions& options);

/// Matches `expr` as an affine function a*i + b of the induction variable
/// with constant a, b. Returns false when the expression is not affine in i.
bool MatchAffine(const frontend::Expr& expr,
                 const frontend::VarDecl& induction, std::int64_t* a,
                 std::int64_t* b);

/// Structural equality of two expressions: same shape, literals, operators
/// and resolved declarations. Used to recognize reduction patterns in the
/// lowering and to prove matching loop bounds / localaccess specs in the
/// mid-end fusion pass.
bool ExprStructurallyEqual(const frontend::Expr& x, const frontend::Expr& y);

}  // namespace accmg::translator
