// Execution of Kernel IR on the virtual GPU.
//
// DecodedKernel is the executable form of a KernelIR: decoded once per
// compiled kernel (translator::Compile stores it on the LoopOffload), then
// shared read-only by every launch. Decoding verifies the kernel, splits it
// into basic blocks whose static cost (instruction weight and count, load and
// store bytes) is charged once on block entry, specializes loads and stores
// by element type, and fuses an arithmetic op with the round.f32/trunc.i32 of
// its result into one dispatch.
//
// KernelExec adapts a DecodedKernel to sim::KernelBody. The runtime binds
// each array parameter to the resident segment on the launching device; the
// engine enforces residency (a read or unchecked write outside the bound
// segment throws DeviceError — on real hardware that is a corrupted result,
// here it is a loud failure), performs the paper's write-miss spilling for
// distributed arrays, marks two-level dirty bits for replicated arrays, and
// privatizes reductions and write-miss records per chunk of the engine's
// fixed grid (sim/kernel.h). Chunks fold into the launch's outputs in grid
// order, so float reductions and the miss replay order are the same on every
// host.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "sim/kernel.h"

namespace accmg::ir {

class NativeTier;
struct NativeSlot;

/// One write that missed the local segment: destination global index plus the
/// raw element bits (Section IV-D2's (address, data) record).
struct WriteMissRecord {
  std::int64_t index = 0;
  std::uint64_t raw = 0;
};

/// Per-device system buffer collecting write misses during a kernel, in
/// chunk order (chunk batches are appended as the launch folds).
struct MissBuffer {
  std::vector<WriteMissRecord> records;
};

/// Two-level dirty bit state for one replicated array (Section IV-D1).
/// Level 1 has one byte per element; level 2 one byte per chunk.
struct DirtyBits {
  std::uint8_t* level1 = nullptr;
  std::uint8_t* level2 = nullptr;
  std::int64_t chunk_elems = 0;  ///< elements per level-2 chunk
};

/// How one kernel array parameter is bound on the launching device.
///
/// [lo, hi) is the loaded (readable) range, including halo elements fetched
/// from neighbouring owners. [write_lo, write_hi) is the owned range this
/// device may write directly; writes outside it are spilled to the miss
/// buffer (distributed arrays) or faulted (a translator/runtime bug). For
/// replicated arrays both ranges cover the whole array.
struct ArrayBinding {
  std::byte* data = nullptr;      ///< base of the RESIDENT segment
  std::int64_t lo = 0;            ///< first resident global index
  std::int64_t hi = 0;            ///< one past last resident global index
  std::int64_t write_lo = 0;      ///< first owned (directly writable) index
  std::int64_t write_hi = 0;      ///< one past last owned index
  std::int64_t logical_size = 0;  ///< full array extent (diagnostics)
  DirtyBits dirty;                ///< level1 == nullptr when untracked
  MissBuffer* miss = nullptr;     ///< non-null for miss-checked arrays
};

/// Raw 64-bit register image of a scalar value of the given type.
std::uint64_t EncodeScalar(ValType type, double fval, std::int64_t ival);

/// The decoded ops, one row each: X(kind, shape, expression). The shape
/// names how operands are read and the result written, and the expression
/// is the op's whole semantics, written in kernel_ops.h's helpers. The
/// interpreter expands every row into its handler, and the native emitter
/// stringifies the same expression into the C++ it compiles, so both tiers
/// compute each op from one definition. Names the expressions read:
///   UNARY         x: operand bits; yields register bits
///   BIN_I         x, y: signed operands; yields a signed value
///   DIV_I, MOD_I  as BIN_I, after the divide-by-zero fault check
///   BIN_F         x, y: double operands; yields register bits
///   FUSED_ROUND   x, y: doubles; yields the double written to dst, whose
///                 RoundF32 goes to c
///   FUSED_TRUNC   x, y: operand bits; yields the bits written to dst,
///                 whose TruncI32 goes to c
///   LOAD          data, local: resident segment and local element index
///   STORE32/64    v: value register bits; yields the raw element bits
///   DIRTY         level1, level2, chunk_elems, idx, lo, hi; yields bytes
///   RED_SCALAR    red (RedSpec), acc: slot partial, v: value bits
///   RED_ARRAY     red (RedSpec), cell: section partial, v: value bits
///   BRANCH        x: condition bits; true takes c, false b
///   CONST, JUMP, RET: no operands
///
/// Register-to-register ops; each decodes one-to-one to the DecodedOpKind
/// of the same name.
#define ACCMG_ARITH_OPS(X)                                                 \
  X(kMov, UNARY, x)                                                        \
  X(kAddI, BIN_I, WrapAdd(x, y))                                           \
  X(kSubI, BIN_I, WrapSub(x, y))                                           \
  X(kMulI, BIN_I, WrapMul(x, y))                                           \
  X(kDivI, DIV_I, DivI(x, y))                                              \
  X(kModI, MOD_I, ModI(x, y))                                              \
  X(kNegI, UNARY, 0 - x)                                                   \
  X(kAndI, BIN_I, x & y)                                                   \
  X(kOrI, BIN_I, x | y)                                                    \
  X(kXorI, BIN_I, x ^ y)                                                   \
  X(kShlI, BIN_I, x << (y & 63))                                           \
  X(kShrI, BIN_I, x >> (y & 63))                                           \
  X(kNotI, UNARY, ~x)                                                      \
  X(kMinI, BIN_I, x < y ? x : y)                                           \
  X(kMaxI, BIN_I, x > y ? x : y)                                           \
  X(kAbsI, UNARY, FromI(AbsI(AsI(x))))                                     \
  X(kAddF, BIN_F, FromF(x + y))                                            \
  X(kSubF, BIN_F, FromF(x - y))                                            \
  X(kMulF, BIN_F, FromF(x * y))                                            \
  X(kDivF, BIN_F, FromF(x / y))                                            \
  X(kNegF, UNARY, FromF(-AsF(x)))                                          \
  X(kSqrtF, UNARY, FromF(__builtin_sqrt(AsF(x))))                          \
  X(kFabsF, UNARY, FromF(__builtin_fabs(AsF(x))))                          \
  X(kExpF, UNARY, FromF(Exp(AsF(x))))                                      \
  X(kLogF, UNARY, FromF(Log(AsF(x))))                                      \
  X(kPowF, BIN_F, FromF(Pow(x, y)))                                        \
  X(kFminF, BIN_F, FromF(Fmin(x, y)))                                      \
  X(kFmaxF, BIN_F, FromF(Fmax(x, y)))                                      \
  X(kFloorF, UNARY, FromF(__builtin_floor(AsF(x))))                        \
  X(kCeilF, UNARY, FromF(__builtin_ceil(AsF(x))))                          \
  X(kCmpLtI, BIN_I, x < y ? 1 : 0)                                         \
  X(kCmpLeI, BIN_I, x <= y ? 1 : 0)                                        \
  X(kCmpEqI, BIN_I, x == y ? 1 : 0)                                        \
  X(kCmpNeI, BIN_I, x != y ? 1 : 0)                                        \
  X(kCmpLtF, BIN_F, FromI(x < y ? 1 : 0))                                  \
  X(kCmpLeF, BIN_F, FromI(x <= y ? 1 : 0))                                 \
  X(kCmpEqF, BIN_F, FromI(x == y ? 1 : 0))                                 \
  X(kCmpNeF, BIN_F, FromI(x != y ? 1 : 0))                                 \
  X(kTruncI32, UNARY, FromI(TruncI32(AsI(x))))                             \
  X(kRoundF32, UNARY, FromF(RoundF32(AsF(x))))                             \
  X(kI2F, UNARY, FromF(static_cast<double>(AsI(x))))                       \
  X(kF2I, UNARY, FromI(F2I(AsF(x))))

/// Decoded operations: kConst (both constant opcodes), the arithmetic ops,
/// loads and stores specialized by element type (64-bit elements share one
/// raw path), kFall (charges the next block when a block ends without a
/// branch), and the fused ops, which run an arithmetic op and the
/// round.f32 / trunc.i32 of its result.
#define ACCMG_DECODED_OPS(X)                                               \
  X(kConst, CONST, )                                                       \
  ACCMG_ARITH_OPS(X)                                                       \
  X(kLoadI32, LOAD, LoadI32(data, local))                                  \
  X(kLoadF32, LOAD, LoadF32(data, local))                                  \
  X(kLoad64, LOAD, Load64(data, local))                                    \
  X(kStoreI32, STORE32, RegToRawI32(v))                                    \
  X(kStoreF32, STORE32, RegToRawF32(v))                                    \
  X(kStore64, STORE64, v)                                                  \
  X(kDirtyMark, DIRTY, MarkDirty(level1, level2, chunk_elems, idx, lo, hi)) \
  X(kRedScalar, RED_SCALAR,                                                \
    CombineRaw(red.op, red.type, acc, RegToElementRaw(v, red.type)))       \
  X(kRedArray, RED_ARRAY,                                                  \
    CombineRaw(red.op, red.type, cell, RegToElementRaw(v, red.type)))      \
  X(kBr, JUMP, )                                                           \
  X(kBrIf, BRANCH, x != 0)                                                 \
  X(kBrIfNot, BRANCH, x == 0)                                              \
  X(kFall, JUMP, )                                                         \
  X(kRet, RET, )                                                           \
  X(kAddFRound, FUSED_ROUND, x + y)                                        \
  X(kSubFRound, FUSED_ROUND, x - y)                                        \
  X(kMulFRound, FUSED_ROUND, x * y)                                        \
  X(kDivFRound, FUSED_ROUND, x / y)                                        \
  X(kAddITrunc, FUSED_TRUNC, x + y)                                        \
  X(kSubITrunc, FUSED_TRUNC, x - y)                                        \
  X(kMulITrunc, FUSED_TRUNC, x * y)

enum class DecodedOpKind : std::uint16_t {
#define ACCMG_DECODED_OP_ENUM(name, shape, expr) name,
  ACCMG_DECODED_OPS(ACCMG_DECODED_OP_ENUM)
#undef ACCMG_DECODED_OP_ENUM
};

struct DecodedOp {
  /// Address of the engine's handler for `kind`: each handler jumps
  /// straight to the next op's (direct threading).
  void* handler = nullptr;
  DecodedOpKind kind{};
  std::int32_t dst = -1;
  std::int32_t a = -1;
  /// Second operand; for kBrIf/kBrIfNot the fall-through block.
  std::int32_t b = -1;
  /// Array parameter (loads, stores, kDirtyMark), reduction slot, target
  /// block (kBr, kBrIf, kBrIfNot, kFall), or the second destination of a
  /// fused pair.
  std::int32_t c = -1;
  std::uint64_t imm = 0;  ///< kConst: the register bits
};

/// A basic block's static cost, charged once on entry.
struct DecodedBlock {
  std::uint32_t first_op = 0;  ///< index into DecodedKernel ops
  std::uint32_t count = 0;     ///< IR instructions (the budget unit)
  std::uint64_t weight = 0;    ///< summed instruction weights
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;  ///< stores; kDirtyMark bytes stay dynamic
};

class DecodedKernel {
 public:
  /// An empty kernel; KernelExec refuses to run it.
  DecodedKernel() = default;
  /// Verifies `kernel` (ir::Verify's checks, in the decoding pass) and
  /// decodes it. Throws InternalError on a malformed kernel.
  explicit DecodedKernel(const KernelIR& kernel);
  /// Decodes with its native slot taken from `tier` instead of the process
  /// tier (a test seam).
  DecodedKernel(const KernelIR& kernel, NativeTier& tier);

  bool empty() const { return ops_.empty(); }
  const std::vector<DecodedOp>& ops() const { return ops_; }
  /// The slot of the kernel's content key in its native tier; null for a
  /// kernel that only the interpreter runs (one whose threads read what
  /// other threads write, see exec.cc).
  NativeSlot* native_slot() const { return native_.get(); }

 private:
  friend class KernelExec;
  friend std::string NativeContentKey(const DecodedKernel& kernel);
  friend std::string EmitNativeSource(const DecodedKernel& kernel,
                                      const std::string& symbol);

  std::string name_;
  std::vector<ArrayParam> arrays_;
  std::size_t num_scalars_ = 0;
  std::vector<ScalarReduction> scalar_reductions_;
  std::vector<ArrayReduction> array_reductions_;
  int num_regs_ = 0;
  int thread_id_reg_ = 0;
  /// Scalar parameters whose register some instruction writes: reloaded for
  /// every thread. The others are loaded once per chunk.
  std::vector<std::size_t> reloaded_scalars_;
  std::vector<DecodedOp> ops_;
  std::vector<DecodedBlock> blocks_;  ///< block 0 is the entry
  std::shared_ptr<NativeSlot> native_;
};

class KernelExec final : public sim::KernelBody {
 public:
  /// `kernel` must outlive the KernelExec.
  explicit KernelExec(const DecodedKernel& kernel);
  KernelExec(DecodedKernel&&) = delete;

  /// --- launch configuration (set before Platform::LaunchKernels) ---
  std::vector<ArrayBinding> bindings;       ///< parallel to kernel.arrays
  std::vector<std::uint64_t> scalar_values; ///< parallel to kernel.scalars
  /// Added to the local thread id to form the loop iteration index
  /// (task-mapping offset of the launching GPU).
  std::int64_t iteration_offset = 0;
  /// Resolved reduction-to-array sections, parallel to
  /// kernel.array_reductions.
  std::vector<std::int64_t> array_red_lower;
  std::vector<std::int64_t> array_red_length;

  /// --- outputs (valid after the launch returns; chunks fold into them) ---
  /// Raw combined value per scalar reduction (initialized to the identity).
  const std::vector<std::uint64_t>& scalar_red_results() const {
    return scalar_red_results_;
  }
  /// Dense partial per array reduction (raw element bits, identity-filled).
  const std::vector<std::vector<std::uint64_t>>& array_red_partials() const {
    return array_red_partials_;
  }

  /// Resets outputs to identities; must be called before every launch.
  void ResetOutputs();

  std::unique_ptr<sim::ChunkOutput> RunChunk(
      std::int64_t tid_begin, std::int64_t tid_end) const override;

  /// Level 2 of the hierarchical reduction: combines the chunk's partials
  /// into the launch's outputs and appends its miss records to the buffers.
  void Fold(sim::ChunkOutput& chunk) override;

 private:
  friend class DecodedKernel;  // stores the engine's handler addresses

  /// The engine: runs threads [tid_begin, tid_end) of `exec` into `chunk`
  /// (an ExecChunk). With a null `exec` it runs nothing and returns its
  /// handler table, indexed by DecodedOpKind.
  static void* const* Engine(const KernelExec* exec, sim::ChunkOutput* chunk,
                             std::int64_t tid_begin, std::int64_t tid_end);

  /// Runs threads [tid_begin, tid_end) through the kernel's native
  /// function into `chunk` (an ExecChunk), raising its faults as the
  /// engine does.
  void RunNative(ops::NativeFn fn, sim::ChunkOutput& chunk,
                 std::int64_t tid_begin, std::int64_t tid_end) const;

  const DecodedKernel& kernel_;

  std::vector<std::uint64_t> scalar_red_results_;
  std::vector<std::vector<std::uint64_t>> array_red_partials_;
};

/// Identity element of a reduction, as raw bits of `type`.
std::uint64_t ReductionIdentity(RedOp op, ValType type);

/// Combines two raw values of `type` with `op`, returning raw bits (the
/// engine's own reduction combine).
using ops::CombineRaw;

/// Folds a dense reduction partial into the array elements it covers:
/// base[lower + j] = CombineRaw(op, type, base[lower + j], partial[j]), where
/// `base` holds elements of `type`.
void FoldPartialInto(RedOp op, ValType type, std::byte* base,
                     std::int64_t lower,
                     const std::vector<std::uint64_t>& partial);

/// In-place span combine: acc[j] = CombineRaw(op, type, acc[j], src[j]) for
/// j in [0, n). Bit-identical to the per-element calls, but the op/type
/// dispatch happens once so the inner loop is tight enough to vectorize —
/// this is the hot loop of multi-GPU array-reduction merges.
void CombineRawSpan(RedOp op, ValType type, std::uint64_t* acc,
                    const std::uint64_t* src, std::size_t n);

}  // namespace accmg::ir
