// Kernel IR: the translator's output format, executed by the virtual GPU.
//
// A kernel is a small register machine program run once per logical GPU
// thread (= one iteration of the annotated parallel loop, as in the paper's
// translator). Registers are untyped 64-bit slots; opcodes carry the type.
// Float arithmetic is performed in double precision with explicit kRoundF32
// instructions wherever the source expression has float type, reproducing
// single-precision semantics bit-for-bit.
//
// Multi-GPU-specific instructions mirror the paper's instrumentation:
//  * kDirtyMark  — turn on the two-level dirty bits for a write to a
//    replicated array (Section IV-D1),
//  * stores to distributed arrays perform the write-miss check and spill
//    (index, value) records to the system buffer when the target element is
//    not resident (Section IV-D2),
//  * kRedScalar / kRedArray — privatized reduction accumulation, combined
//    hierarchically by the engine and the runtime (Section IV-B4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/kernel_ops.h"  // ValType, RedOp

namespace accmg::ir {

std::size_t ValTypeSize(ValType t);
const char* ValTypeName(ValType t);
bool IsFloat(ValType t);

const char* RedOpName(RedOp op);

enum class Opcode : std::uint8_t {
  // Immediates / moves.
  kConstI,   // dst = imm.i
  kConstF,   // dst = imm.f
  kMov,      // dst = a

  // Integer arithmetic (i64 semantics in registers).
  kAddI, kSubI, kMulI, kDivI, kModI, kNegI,
  kAndI, kOrI, kXorI, kShlI, kShrI, kNotI,
  kMinI, kMaxI, kAbsI,

  // Float arithmetic (f64 in registers).
  kAddF, kSubF, kMulF, kDivF, kNegF,
  kSqrtF, kFabsF, kExpF, kLogF, kPowF, kFminF, kFmaxF, kFloorF, kCeilF,

  // Comparisons produce 0/1 in dst.
  kCmpLtI, kCmpLeI, kCmpEqI, kCmpNeI,
  kCmpLtF, kCmpLeF, kCmpEqF, kCmpNeF,

  // Conversions.
  kTruncI32,  // dst = sign-extended low 32 bits of a
  kRoundF32,  // dst = (double)(float)a
  kI2F,       // dst = (double)a_int
  kF2I,       // dst = (int64)trunc(a_float)

  // Memory. `arr` names the kernel array parameter; index register holds the
  // GLOBAL element index — the engine applies the per-GPU layout offset, the
  // residency check and (for distributed arrays) the write-miss spill.
  kLoad,   // dst = arrays[arr][a]
  kStore,  // arrays[arr][a] = b

  // Multi-GPU instrumentation.
  kDirtyMark,  // mark element a of replicated array `arr` dirty

  // Reductions (privatized; combined after the kernel).
  kRedScalar,  // accumulators[imm.i] op= a   (slot's op/type fixed at build)
  kRedArray,   // array-reduction slot imm.i: partial[a - lower] op= b

  // Control flow (instruction-index targets).
  kBr,     // jump to imm.i
  kBrIf,   // if a != 0 jump to imm.i else fall through
  kBrIfNot,// if a == 0 jump to imm.i else fall through
  kRet,    // end of thread
};

const char* OpcodeName(Opcode op);

/// kBr, kBrIf and kBrIfNot: the ops whose imm.i is a branch target.
bool IsBranch(Opcode op);

/// Whether `op` writes its dst register (everything but stores, dirty
/// marks, reductions and control flow).
bool ProducesValue(Opcode op);

struct Instr {
  Opcode op{};
  std::int32_t dst = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t arr = -1;  ///< array-parameter index for kLoad/kStore/kDirtyMark
  union {
    std::int64_t i;
    double f;
  } imm{.i = 0};
};

/// An array parameter of the kernel.
struct ArrayParam {
  std::string name;
  ValType elem{};
  bool is_read = false;
  bool is_written = false;
  /// Replicated array written by the kernel: stores are followed by
  /// kDirtyMark instrumentation and the engine tracks dirty chunks.
  bool dirty_tracked = false;
  /// Distributed array with possibly-remote writes: stores perform the
  /// write-miss check (Section IV-D2). Cleared by the translator when the
  /// localaccess range proves every write local.
  bool miss_checked = false;
};

/// A scalar parameter (loop-invariant value passed from the host).
struct ScalarParam {
  std::string name;
  ValType type{};
};

/// A privatized scalar reduction output.
struct ScalarReduction {
  std::string name;
  RedOp op{};
  ValType type{};
};

/// A privatized reduction-to-array output (the paper's reductiontoarray).
struct ArrayReduction {
  std::string name;   ///< destination array parameter name
  int array_index = -1;  ///< into KernelIR::arrays
  RedOp op{};
  ValType type{};
  /// Destination section [lower, lower+length) — register-independent values
  /// supplied by the host at launch time (scalar param indices), or constants.
  std::int64_t lower = 0;   ///< resolved at launch; stored here when constant
  std::int64_t length = 0;  ///< 0 = resolved at launch from array extent
};

struct KernelIR {
  std::string name;
  std::vector<ArrayParam> arrays;
  std::vector<ScalarParam> scalars;
  std::vector<ScalarReduction> scalar_reductions;
  std::vector<ArrayReduction> array_reductions;
  int num_regs = 0;
  /// Register pre-loaded with the logical thread id (= loop iteration).
  int thread_id_reg = 0;
  std::vector<Instr> code;

  int FindArray(const std::string& name) const;
  int FindScalar(const std::string& name) const;
};

/// Renders the kernel as readable pseudo-assembly (golden-tested).
std::string Print(const KernelIR& kernel);

/// Structural validation: register/arr indices in range, branch targets valid,
/// code ends with kRet on every path. Throws InternalError on violations.
void Verify(const KernelIR& kernel);

/// Verify's checks in two parts, so a pass over the code that does other
/// work (DecodedKernel) runs them without a second pass: the kernel-level
/// checks, and the checks of the instruction at `pc`.
void VerifySignature(const KernelIR& kernel);
void VerifyInstr(const KernelIR& kernel, std::size_t pc);

}  // namespace accmg::ir
