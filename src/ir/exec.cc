#include "ir/exec.h"

#include <cstring>
#include <limits>
#include <optional>

#include "common/error.h"
#include "common/metrics.h"
#include "ir/native_emit.h"
#include "ir/native_tier.h"

namespace accmg::ir {

using namespace ops;  // NOLINT: the engine is written in the shared helpers

namespace {

/// Cost weights, summed per basic block at decode time; transcendental ops
/// are an order of magnitude more expensive than simple ALU ops on
/// Fermi-class GPUs.
inline std::uint64_t InstrWeight(Opcode op) {
  switch (op) {
    case Opcode::kSqrtF:
    case Opcode::kExpF:
    case Opcode::kLogF:
    case Opcode::kPowF:
      return 8;
    case Opcode::kDivF:
    case Opcode::kDivI:
    case Opcode::kModI:
      return 4;
    default:
      return 1;
  }
}

}  // namespace

std::uint64_t EncodeScalar(ValType type, double fval, std::int64_t ival) {
  switch (type) {
    case ValType::kI32:
      return FromI(static_cast<std::int32_t>(ival));
    case ValType::kI64:
      return FromI(ival);
    case ValType::kF32:
      return FromF(static_cast<double>(static_cast<float>(fval)));
    case ValType::kF64:
      return FromF(fval);
  }
  return 0;
}

std::uint64_t ReductionIdentity(RedOp op, ValType type) {
  const bool is_float = IsFloat(type);
  switch (op) {
    case RedOp::kAdd:
      return is_float ? RegToElementRaw(FromF(0.0), type)
                      : RegToElementRaw(FromI(0), type);
    case RedOp::kMul:
      return is_float ? RegToElementRaw(FromF(1.0), type)
                      : RegToElementRaw(FromI(1), type);
    case RedOp::kMin:
      return is_float
                 ? RegToElementRaw(
                       FromF(std::numeric_limits<double>::infinity()), type)
                 : RegToElementRaw(
                       FromI(type == ValType::kI32
                                 ? std::numeric_limits<std::int32_t>::max()
                                 : std::numeric_limits<std::int64_t>::max()),
                       type);
    case RedOp::kMax:
      return is_float
                 ? RegToElementRaw(
                       FromF(-std::numeric_limits<double>::infinity()), type)
                 : RegToElementRaw(
                       FromI(type == ValType::kI32
                                 ? std::numeric_limits<std::int32_t>::min()
                                 : std::numeric_limits<std::int64_t>::min()),
                       type);
  }
  return 0;
}

namespace {

// Loop bodies for CombineRawSpan. Each mirrors CombineRaw exactly: floats
// are widened to double, combined, and narrowed back (for f32 the double
// op is exact, so the single narrowing rounds identically to a native
// float op); i32 combines in int64 and truncates with sign extension.
template <typename FloatOp>
inline void CombineSpanFloat(ValType type, std::uint64_t* acc,
                             const std::uint64_t* src, std::size_t n,
                             FloatOp op) {
  if (type == ValType::kF64) {
    for (std::size_t j = 0; j < n; ++j) {
      acc[j] = FromF(op(AsF(acc[j]), AsF(src[j])));
    }
  } else {  // kF32: element raw is the float bits in the low 32 bits
    for (std::size_t j = 0; j < n; ++j) {
      const auto xb = static_cast<std::uint32_t>(acc[j]);
      const auto yb = static_cast<std::uint32_t>(src[j]);
      float x;
      float y;
      std::memcpy(&x, &xb, 4);
      std::memcpy(&y, &yb, 4);
      const auto r = static_cast<float>(
          op(static_cast<double>(x), static_cast<double>(y)));
      std::uint32_t rb;
      std::memcpy(&rb, &r, 4);
      acc[j] = rb;
    }
  }
}

template <typename IntOp>
inline void CombineSpanInt(ValType type, std::uint64_t* acc,
                           const std::uint64_t* src, std::size_t n,
                           IntOp op) {
  if (type == ValType::kI64) {
    for (std::size_t j = 0; j < n; ++j) {
      acc[j] = FromI(op(AsI(acc[j]), AsI(src[j])));
    }
  } else {  // kI32: element raw is the sign-extended value
    for (std::size_t j = 0; j < n; ++j) {
      const auto x = static_cast<std::int64_t>(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(acc[j])));
      const auto y = static_cast<std::int64_t>(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(src[j])));
      acc[j] = FromI(static_cast<std::int32_t>(op(x, y)));
    }
  }
}

}  // namespace

void CombineRawSpan(RedOp op, ValType type, std::uint64_t* acc,
                    const std::uint64_t* src, std::size_t n) {
  if (IsFloat(type)) {
    switch (op) {
      case RedOp::kAdd:
        CombineSpanFloat(type, acc, src, n,
                         [](double x, double y) { return x + y; });
        break;
      case RedOp::kMul:
        CombineSpanFloat(type, acc, src, n,
                         [](double x, double y) { return x * y; });
        break;
      case RedOp::kMin:
        CombineSpanFloat(type, acc, src, n,
                         [](double x, double y) { return Fmin(x, y); });
        break;
      case RedOp::kMax:
        CombineSpanFloat(type, acc, src, n,
                         [](double x, double y) { return Fmax(x, y); });
        break;
    }
    return;
  }
  switch (op) {
    case RedOp::kAdd:
      CombineSpanInt(type, acc, src, n, [](std::int64_t x, std::int64_t y) {
        return WrapAdd(x, y);
      });
      break;
    case RedOp::kMul:
      CombineSpanInt(type, acc, src, n, [](std::int64_t x, std::int64_t y) {
        return WrapMul(x, y);
      });
      break;
    case RedOp::kMin:
      CombineSpanInt(type, acc, src, n,
                     [](std::int64_t x, std::int64_t y) { return x < y ? x : y; });
      break;
    case RedOp::kMax:
      CombineSpanInt(type, acc, src, n,
                     [](std::int64_t x, std::int64_t y) { return x > y ? x : y; });
      break;
  }
}

void FoldPartialInto(RedOp op, ValType type, std::byte* base,
                     std::int64_t lower,
                     const std::vector<std::uint64_t>& partial) {
  const std::size_t elem = ValTypeSize(type);
  std::byte* p = base + static_cast<std::size_t>(lower) * elem;
  for (const std::uint64_t value : partial) {
    std::uint64_t current = 0;
    std::memcpy(&current, p, elem);
    current = CombineRaw(op, type, current, value);
    std::memcpy(p, &current, elem);
    p += elem;
  }
}

namespace {

bool IsTerminator(Opcode op) { return IsBranch(op) || op == Opcode::kRet; }

/// Decoded kind of a register-to-register op.
DecodedOpKind ArithKind(Opcode op) {
  switch (op) {
#define ACCMG_ARITH_CASE(name, shape, expr) \
  case Opcode::name:           \
    return DecodedOpKind::name;
    ACCMG_ARITH_OPS(ACCMG_ARITH_CASE)
#undef ACCMG_ARITH_CASE
    default:
      throw InternalError(std::string("no arithmetic decoding for ") +
                          OpcodeName(op));
  }
}

/// The fused kind of `first` followed by `second`, when `second` is the
/// round.f32 of a float add/sub/mul/div or the trunc.i32 of an integer
/// add/sub/mul that `first` computes.
std::optional<DecodedOpKind> FusedKind(const Instr& first,
                                       const Instr& second) {
  if (second.a != first.dst) return std::nullopt;
  if (second.op == Opcode::kRoundF32) {
    switch (first.op) {
      case Opcode::kAddF: return DecodedOpKind::kAddFRound;
      case Opcode::kSubF: return DecodedOpKind::kSubFRound;
      case Opcode::kMulF: return DecodedOpKind::kMulFRound;
      case Opcode::kDivF: return DecodedOpKind::kDivFRound;
      default: return std::nullopt;
    }
  }
  if (second.op == Opcode::kTruncI32) {
    switch (first.op) {
      case Opcode::kAddI: return DecodedOpKind::kAddITrunc;
      case Opcode::kSubI: return DecodedOpKind::kSubITrunc;
      case Opcode::kMulI: return DecodedOpKind::kMulITrunc;
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

DecodedOpKind LoadKind(ValType elem) {
  switch (elem) {
    case ValType::kI32: return DecodedOpKind::kLoadI32;
    case ValType::kF32: return DecodedOpKind::kLoadF32;
    case ValType::kI64:
    case ValType::kF64: return DecodedOpKind::kLoad64;
  }
  return DecodedOpKind::kLoad64;
}

/// Whether a thread may read an element that another thread of the same
/// launch writes: some array is both loaded and stored, and not every
/// access to it indexes by the (never reassigned) thread id. Such reads
/// race with concurrent chunks (benign races, as in SHOC's BFS), so what
/// they see, and with it the kernel's instruction count and sim time,
/// depends on how chunks overlap in time.
bool ReadsAcrossThreads(const KernelIR& kernel,
                        const std::vector<char>& written) {
  const bool tid_stable =
      !written[static_cast<std::size_t>(kernel.thread_id_reg)];
  const std::size_t arrays = kernel.arrays.size();
  std::vector<char> loaded(arrays, 0), stored(arrays, 0), shared(arrays, 0);
  for (const Instr& in : kernel.code) {
    if (in.op != Opcode::kLoad && in.op != Opcode::kStore) continue;
    const auto a = static_cast<std::size_t>(in.arr);
    (in.op == Opcode::kLoad ? loaded : stored)[a] = 1;
    if (!tid_stable || in.a != kernel.thread_id_reg) shared[a] = 1;
  }
  for (std::size_t a = 0; a < arrays; ++a) {
    if (loaded[a] && stored[a] && shared[a]) return true;
  }
  return false;
}

DecodedOpKind StoreKind(ValType elem) {
  switch (elem) {
    case ValType::kI32: return DecodedOpKind::kStoreI32;
    case ValType::kF32: return DecodedOpKind::kStoreF32;
    case ValType::kI64:
    case ValType::kF64: return DecodedOpKind::kStore64;
  }
  return DecodedOpKind::kStore64;
}

}  // namespace

DecodedKernel::DecodedKernel(const KernelIR& kernel)
    : DecodedKernel(kernel, NativeTier::Process()) {}

DecodedKernel::DecodedKernel(const KernelIR& kernel, NativeTier& tier)
    : name_(kernel.name),
      arrays_(kernel.arrays),
      num_scalars_(kernel.scalars.size()),
      scalar_reductions_(kernel.scalar_reductions),
      array_reductions_(kernel.array_reductions),
      num_regs_(kernel.num_regs),
      thread_id_reg_(kernel.thread_id_reg) {
  VerifySignature(kernel);
  const std::vector<Instr>& code = kernel.code;
  const std::size_t n = code.size();

  // Pass 1: verify every instruction, mark block leaders (the entry, branch
  // targets, and whatever follows a branch or ret) and written registers.
  std::vector<char> leader(n, 0);
  std::vector<char> written(static_cast<std::size_t>(num_regs_), 0);
  leader[0] = 1;
  for (std::size_t pc = 0; pc < n; ++pc) {
    VerifyInstr(kernel, pc);
    const Instr& in = code[pc];
    if (IsBranch(in.op)) leader[static_cast<std::size_t>(in.imm.i)] = 1;
    if (IsTerminator(in.op) && pc + 1 < n) leader[pc + 1] = 1;
    if (ProducesValue(in.op)) written[static_cast<std::size_t>(in.dst)] = 1;
  }
  for (std::size_t s = 0; s < num_scalars_; ++s) {
    if (written[static_cast<std::size_t>(thread_id_reg_) + 1 + s]) {
      reloaded_scalars_.push_back(s);
    }
  }
  std::vector<std::int32_t> block_of(n, -1);
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (!leader[pc]) continue;
    block_of[pc] = static_cast<std::int32_t>(blocks_.size());
    blocks_.emplace_back();
  }

  // Pass 2: emit each block's ops and sum its static cost. The code ends in
  // ret or br (VerifySignature), so a non-terminator always has a successor.
  // At most one op per instruction plus one kFall per block.
  ops_.reserve(n + blocks_.size());
  DecodedBlock* block = nullptr;
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (leader[pc]) {
      block = &blocks_[static_cast<std::size_t>(block_of[pc])];
      block->first_op = static_cast<std::uint32_t>(ops_.size());
    }
    const Instr& in = code[pc];
    block->count += 1;
    block->weight += InstrWeight(in.op);
    DecodedOp op;
    op.dst = in.dst;
    op.a = in.a;
    op.b = in.b;
    switch (in.op) {
      case Opcode::kConstI:
        op.kind = DecodedOpKind::kConst;
        op.imm = FromI(in.imm.i);
        break;
      case Opcode::kConstF:
        op.kind = DecodedOpKind::kConst;
        op.imm = FromF(in.imm.f);
        break;
      case Opcode::kLoad: {
        const ValType elem = arrays_[static_cast<std::size_t>(in.arr)].elem;
        op.kind = LoadKind(elem);
        op.c = in.arr;
        block->bytes_read += ValTypeSize(elem);
        break;
      }
      case Opcode::kStore: {
        const ValType elem = arrays_[static_cast<std::size_t>(in.arr)].elem;
        op.kind = StoreKind(elem);
        op.c = in.arr;
        block->bytes_written += ValTypeSize(elem);
        break;
      }
      case Opcode::kDirtyMark:
        op.kind = DecodedOpKind::kDirtyMark;
        op.c = in.arr;
        break;
      case Opcode::kRedScalar:
        op.kind = DecodedOpKind::kRedScalar;
        op.c = static_cast<std::int32_t>(in.imm.i);
        break;
      case Opcode::kRedArray:
        op.kind = DecodedOpKind::kRedArray;
        op.c = static_cast<std::int32_t>(in.imm.i);
        break;
      case Opcode::kBr:
        op.kind = DecodedOpKind::kBr;
        op.c = block_of[static_cast<std::size_t>(in.imm.i)];
        break;
      case Opcode::kBrIf:
      case Opcode::kBrIfNot:
        op.kind = in.op == Opcode::kBrIf ? DecodedOpKind::kBrIf
                                         : DecodedOpKind::kBrIfNot;
        op.c = block_of[static_cast<std::size_t>(in.imm.i)];
        op.b = block_of[pc + 1];
        break;
      case Opcode::kRet:
        op.kind = DecodedOpKind::kRet;
        break;
      default: {
        op.kind = ArithKind(in.op);
        // Fuse with a round/trunc of the result inside the same block.
        if (leader[pc + 1]) break;
        const Instr& next = code[pc + 1];
        if (const auto fused = FusedKind(in, next)) {
          op.kind = *fused;
          op.c = next.dst;
          block->count += 1;
          block->weight += InstrWeight(next.op);
          ++pc;
        }
        break;
      }
    }
    ops_.push_back(op);
    if (!IsTerminator(in.op) && leader[pc + 1]) {
      DecodedOp fall;
      fall.kind = DecodedOpKind::kFall;
      fall.c = block_of[pc + 1];
      ops_.push_back(fall);
    }
  }
  void* const* handlers = KernelExec::Engine(nullptr, nullptr, 0, 0);
  for (DecodedOp& op : ops_) {
    op.handler = handlers[static_cast<std::size_t>(op.kind)];
  }
  // Kernels whose reads race with other threads' writes stay interpreted:
  // the native tier would shift how their chunks overlap, and with it
  // their counts, away from the interpreter's.
  if (!ReadsAcrossThreads(kernel, written)) {
    native_ = tier.Slot(NativeContentKey(*this), n);
  }
}

KernelExec::KernelExec(const DecodedKernel& kernel) : kernel_(kernel) {
  ACCMG_CHECK(!kernel.empty(),
              "kernel '" + kernel.name_ + "' launched without being decoded");
  bindings.resize(kernel.arrays_.size());
  scalar_values.resize(kernel.num_scalars_, 0);
  array_red_lower.resize(kernel.array_reductions_.size(), 0);
  array_red_length.resize(kernel.array_reductions_.size(), 0);
  ResetOutputs();
}

void KernelExec::ResetOutputs() {
  scalar_red_results_.clear();
  for (const auto& red : kernel_.scalar_reductions_) {
    scalar_red_results_.push_back(ReductionIdentity(red.op, red.type));
  }
  array_red_partials_.clear();
  for (std::size_t i = 0; i < kernel_.array_reductions_.size(); ++i) {
    const auto& red = kernel_.array_reductions_[i];
    array_red_partials_.emplace_back(
        static_cast<std::size_t>(array_red_length[i]),
        ReductionIdentity(red.op, red.type));
  }
}

namespace {

/// Private outputs of one chunk (level 1 of the paper's hierarchical
/// reduction: privatized per chunk of thread blocks).
struct ExecChunk final : sim::ChunkOutput {
  std::vector<std::uint64_t> scalar_red;
  std::vector<std::vector<std::uint64_t>> array_red;
  std::vector<std::vector<WriteMissRecord>> misses;  ///< per array binding
};

// Fault paths, kept out of line so the dispatch loop stays small.

[[noreturn]] [[gnu::noinline]] void ThrowBudgetExceeded(
    const std::string& kernel) {
  throw DeviceError("kernel '" + kernel +
                    "': per-thread instruction budget exceeded "
                    "(runaway loop?)");
}

[[noreturn]] [[gnu::noinline]] void ThrowDivideByZero(
    const std::string& kernel, const char* what) {
  throw DeviceError("kernel '" + kernel + "': integer " + what + " by zero");
}

[[noreturn]] [[gnu::noinline]] void ThrowNonResidentRead(
    const std::string& kernel, const ArrayParam& param,
    const ArrayBinding& binding, std::int64_t idx) {
  throw DeviceError("kernel '" + kernel + "': read of non-resident element " +
                    param.name + "[" + std::to_string(idx) + "], resident [" +
                    std::to_string(binding.lo) + ", " +
                    std::to_string(binding.hi) + ")");
}

/// A store outside the owned range: a write miss on a distributed array
/// buffers the (address, data) record for the communication manager
/// (Section IV-D2); anywhere else it is a fault.
[[gnu::noinline]] void SpillWriteMiss(const std::string& kernel,
                                      const ArrayParam& param,
                                      const ArrayBinding& binding,
                                      std::vector<WriteMissRecord>& misses,
                                      std::int64_t idx, std::uint64_t raw) {
  if (binding.miss == nullptr) {
    throw DeviceError("kernel '" + kernel +
                      "': write to non-resident element " + param.name + "[" +
                      std::to_string(idx) + "] without a write-miss buffer");
  }
  misses.push_back(WriteMissRecord{idx, raw});
}

[[noreturn]] [[gnu::noinline]] void ThrowOutsideSection(
    const std::string& kernel, std::int64_t idx, std::int64_t lower,
    std::int64_t length) {
  throw DeviceError("kernel '" + kernel + "': reductiontoarray index " +
                    std::to_string(idx) + " outside the declared section [" +
                    std::to_string(lower) + ", " +
                    std::to_string(lower + length) + ")");
}

}  // namespace

std::unique_ptr<sim::ChunkOutput> KernelExec::RunChunk(
    std::int64_t tid_begin, std::int64_t tid_end) const {
  ACCMG_CHECK(bindings.size() == kernel_.arrays_.size(),
              "kernel launch with unbound arrays");
  ACCMG_CHECK(scalar_values.size() == kernel_.num_scalars_,
              "kernel launch with missing scalar values");

  auto chunk = std::make_unique<ExecChunk>();
  for (const auto& red : kernel_.scalar_reductions_) {
    chunk->scalar_red.push_back(ReductionIdentity(red.op, red.type));
  }
  for (std::size_t i = 0; i < kernel_.array_reductions_.size(); ++i) {
    chunk->array_red.emplace_back(
        static_cast<std::size_t>(array_red_length[i]),
        ReductionIdentity(kernel_.array_reductions_[i].op,
                          kernel_.array_reductions_[i].type));
  }
  chunk->misses.resize(bindings.size());
  // The chunk's tier is chosen once, here.
  NativeSlot* const slot = kernel_.native_.get();
  if (const ops::NativeFn fn =
          slot != nullptr ? slot->tier->ChunkFunction(*slot, kernel_)
                          : nullptr) {
    static metrics::Counter& native_chunks =
        metrics::Registry::Global().counter("native.chunks");
    RunNative(fn, *chunk, tid_begin, tid_end);
    native_chunks.Add();
  } else {
    static metrics::Counter& interpreted_chunks =
        metrics::Registry::Global().counter("native.chunks_interpreted");
    Engine(this, chunk.get(), tid_begin, tid_end);
    interpreted_chunks.Add();
    if (slot != nullptr) {
      slot->tier->AddExecuted(*slot, kernel_, chunk->stats.instructions);
    }
  }
  return chunk;
}

void KernelExec::RunNative(ops::NativeFn fn, sim::ChunkOutput& out,
                           std::int64_t tid_begin,
                           std::int64_t tid_end) const {
  auto& chunk = static_cast<ExecChunk&>(out);
  std::vector<ops::NativeBinding> binds;
  binds.reserve(bindings.size());
  for (const ArrayBinding& b : bindings) {
    binds.push_back(ops::NativeBinding{
        reinterpret_cast<std::uint8_t*>(b.data), b.lo, b.hi, b.write_lo,
        b.write_hi, b.dirty.level1, b.dirty.level2, b.dirty.chunk_elems,
        b.miss != nullptr});
  }
  std::vector<std::uint64_t*> array_red;
  array_red.reserve(chunk.array_red.size());
  for (std::vector<std::uint64_t>& partial : chunk.array_red) {
    array_red.push_back(partial.data());
  }
  ops::NativeFrame frame{};
  frame.bindings = binds.data();
  frame.scalars = scalar_values.data();
  frame.iteration_offset = iteration_offset;
  frame.tid_begin = tid_begin;
  frame.tid_end = tid_end;
  frame.red_lower = array_red_lower.data();
  frame.red_length = array_red_length.data();
  frame.scalar_red = chunk.scalar_red.data();
  frame.array_red = array_red.data();
  frame.spill = [](void* target, std::int32_t array, std::int64_t index,
                   std::uint64_t raw) {
    static_cast<ExecChunk*>(target)
        ->misses[static_cast<std::size_t>(array)]
        .push_back(WriteMissRecord{index, raw});
  };
  frame.chunk = &chunk;

  const std::string& name = kernel_.name_;
  const int status = fn(&frame);
  const auto arg = static_cast<std::size_t>(frame.fault_arg);
  switch (status) {
    case ops::kNativeOk:
      break;
    case ops::kNativeBudget:
      ThrowBudgetExceeded(name);
    case ops::kNativeDivZero:
      ThrowDivideByZero(name, "division");
    case ops::kNativeModZero:
      ThrowDivideByZero(name, "modulo");
    case ops::kNativeRead:
      ThrowNonResidentRead(name, kernel_.arrays_[arg], bindings[arg],
                           frame.fault_index);
    case ops::kNativeWriteMiss: {
      std::vector<WriteMissRecord> unused;
      SpillWriteMiss(name, kernel_.arrays_[arg], bindings[arg], unused,
                     frame.fault_index, 0);
      throw InternalError("native write miss with a miss buffer");
    }
    case ops::kNativeSection:
      ThrowOutsideSection(name, frame.fault_index, array_red_lower[arg],
                          array_red_length[arg]);
    default:
      throw InternalError("native kernel '" + name + "' returned an unknown status");
  }
  chunk.stats = sim::KernelStats{frame.instructions, frame.bytes_read,
                                 frame.bytes_written};
}

// The engine is direct-threaded code: every decoded op carries its
// handler's address (GNU labels as values) and every handler ends by
// jumping straight to the next op's, so there is no central switch. Cost is
// charged when control enters a basic block: the block's static instruction
// weight, load and store bytes, and its instruction count against the
// per-thread budget. Stats are only read once a chunk succeeds, when every
// entered block ran to its end, so they equal per-instruction charging
// exactly. Only kDirtyMark bytes are dynamic: a mark is charged when its
// element is resident.
void* const* KernelExec::Engine(const KernelExec* exec,
                                sim::ChunkOutput* out, std::int64_t tid_begin,
                                std::int64_t tid_end) {
  static void* const kHandlers[] = {
#define ACCMG_DECODED_OP_LABEL(name, shape, expr) &&L_##name,
      ACCMG_DECODED_OPS(ACCMG_DECODED_OP_LABEL)
#undef ACCMG_DECODED_OP_LABEL
  };
  if (exec == nullptr) return kHandlers;

  const DecodedKernel& kernel = exec->kernel_;
  const std::vector<std::uint64_t>& scalar_values = exec->scalar_values;
  const std::vector<std::int64_t>& array_red_lower = exec->array_red_lower;
  const std::vector<std::int64_t>& array_red_length = exec->array_red_length;
  auto* const chunk = static_cast<ExecChunk*>(out);

  std::vector<std::uint64_t> regs(static_cast<std::size_t>(kernel.num_regs_));
  std::uint64_t* const R = regs.data();
  const ArrayBinding* const binds = exec->bindings.data();
  const DecodedOp* const ops = kernel.ops_.data();
  const DecodedBlock* const blocks = kernel.blocks_.data();
  const std::string& name = kernel.name_;
  const auto tid_reg = static_cast<std::size_t>(kernel.thread_id_reg_);

  // Scalar s lives in register tid_reg + 1 + s (the builder's launch
  // contract). Registers no instruction writes keep their value across the
  // chunk's threads, so they are loaded once.
  for (std::size_t s = 0; s < scalar_values.size(); ++s) {
    R[tid_reg + 1 + s] = scalar_values[s];
  }

  std::uint64_t instr = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t budget = 0;
  const DecodedOp* op = nullptr;

#define REG(x) R[static_cast<std::size_t>(x)]
#define DISPATCH() goto* op->handler
#define NEXT() \
  ++op;        \
  DISPATCH()
#define ENTER(block_index)                                         \
  {                                                                \
    const DecodedBlock& entered =                                  \
        blocks[static_cast<std::size_t>(block_index)];             \
    instr += entered.weight;                                       \
    bytes_read += entered.bytes_read;                              \
    bytes_written += entered.bytes_written;                        \
    budget += entered.count;                                       \
    if (budget > kMaxInstrPerThread) [[unlikely]] {                \
      ThrowBudgetExceeded(name);                                   \
    }                                                              \
    op = ops + entered.first_op;                                   \
  }                                                                \
  DISPATCH()
// One macro per shape of ACCMG_DECODED_OPS: it binds the names the row's
// expression reads and stores what the expression yields.
#define CONST(expr)          \
  REG(op->dst) = op->imm;    \
  NEXT()
#define UNARY(expr)                     \
  {                                     \
    const std::uint64_t x = REG(op->a); \
    REG(op->dst) = (expr);              \
  }                                     \
  NEXT()
#define BIN_I(expr)                          \
  {                                          \
    const std::int64_t x = AsI(REG(op->a));  \
    const std::int64_t y = AsI(REG(op->b));  \
    REG(op->dst) = FromI(expr);              \
  }                                          \
  NEXT()
#define DIV_I(expr)                                                        \
  if (AsI(REG(op->b)) == 0) [[unlikely]] ThrowDivideByZero(name, "division"); \
  BIN_I(expr)
#define MOD_I(expr)                                                      \
  if (AsI(REG(op->b)) == 0) [[unlikely]] ThrowDivideByZero(name, "modulo"); \
  BIN_I(expr)
#define BIN_F(expr)                          \
  {                                          \
    const double x = AsF(REG(op->a));        \
    const double y = AsF(REG(op->b));        \
    REG(op->dst) = (expr);                   \
  }                                          \
  NEXT()
#define FUSED_ROUND(expr)                      \
  {                                            \
    const double x = AsF(REG(op->a));          \
    const double y = AsF(REG(op->b));          \
    const double t = (expr);                   \
    REG(op->dst) = FromF(t);                   \
    REG(op->c) = FromF(RoundF32(t));           \
  }                                            \
  NEXT()
#define FUSED_TRUNC(expr)                             \
  {                                                   \
    const std::uint64_t x = REG(op->a);               \
    const std::uint64_t y = REG(op->b);               \
    const std::uint64_t t = (expr);                   \
    REG(op->dst) = t;                                 \
    REG(op->c) = FromI(TruncI32(AsI(t)));             \
  }                                                   \
  NEXT()
#define LOAD(expr)                                                     \
  {                                                                    \
    const ArrayBinding& binding = binds[op->c];                        \
    const std::int64_t idx = AsI(REG(op->a));                          \
    if (idx < binding.lo || idx >= binding.hi) [[unlikely]] {          \
      ThrowNonResidentRead(name, kernel.arrays_[op->c], binding, idx); \
    }                                                                  \
    const std::byte* const data = binding.data;                        \
    const std::int64_t local = idx - binding.lo;                       \
    REG(op->dst) = (expr);                                             \
  }                                                                    \
  NEXT()
#define STORE(expr, store)                                              \
  {                                                                     \
    const ArrayBinding& binding = binds[op->c];                         \
    const std::int64_t idx = AsI(REG(op->a));                           \
    const std::uint64_t v = REG(op->b);                                 \
    const std::uint64_t raw = (expr);                                   \
    if (idx >= binding.write_lo && idx < binding.write_hi) [[likely]] { \
      store(binding.data, idx - binding.lo, raw);                       \
    } else {                                                            \
      SpillWriteMiss(name, kernel.arrays_[op->c], binding,              \
                     chunk->misses[op->c], idx, raw);                   \
    }                                                                   \
  }                                                                     \
  NEXT()
#define STORE32(expr) STORE(expr, Store32)
#define STORE64(expr) STORE(expr, Store64)
#define DIRTY(expr)                                            \
  {                                                            \
    const ArrayBinding& binding = binds[op->c];                \
    std::uint8_t* const level1 = binding.dirty.level1;         \
    std::uint8_t* const level2 = binding.dirty.level2;         \
    const std::int64_t chunk_elems = binding.dirty.chunk_elems; \
    const std::int64_t idx = AsI(REG(op->a));                  \
    const std::int64_t lo = binding.lo;                        \
    const std::int64_t hi = binding.hi;                        \
    bytes_written += (expr);                                   \
  }                                                            \
  NEXT()
#define RED_SCALAR(expr)                                        \
  {                                                             \
    const auto slot = static_cast<std::size_t>(op->c);          \
    const ScalarReduction& red = kernel.scalar_reductions_[slot]; \
    std::uint64_t& acc = chunk->scalar_red[slot];               \
    const std::uint64_t v = REG(op->a);                         \
    acc = (expr);                                               \
  }                                                             \
  NEXT()
#define RED_ARRAY(expr)                                              \
  {                                                                  \
    const auto slot = static_cast<std::size_t>(op->c);               \
    const ArrayReduction& red = kernel.array_reductions_[slot];      \
    const std::int64_t idx = AsI(REG(op->a));                        \
    const std::int64_t lower = array_red_lower[slot];                \
    const std::int64_t length = array_red_length[slot];              \
    if (idx < lower || idx >= lower + length) [[unlikely]] {         \
      ThrowOutsideSection(name, idx, lower, length);                 \
    }                                                                \
    std::uint64_t& cell =                                            \
        chunk->array_red[slot][static_cast<std::size_t>(idx - lower)]; \
    const std::uint64_t v = REG(op->b);                              \
    cell = (expr);                                                   \
  }                                                                  \
  NEXT()
#define JUMP(expr) ENTER(op->c)
// Each direction enters its successor through its own dispatch jump, so
// the host predicts the two targets apart (a select feeding one shared
// jump costs md-like loops about a fifth of their speed).
#define BRANCH(expr)                    \
  {                                     \
    const std::uint64_t x = REG(op->a); \
    if (expr) {                         \
      ENTER(op->c);                     \
    }                                   \
  }                                     \
  ENTER(op->b)
#define RET(expr) continue
#define ACCMG_DECODED_OP_HANDLER(name, shape, expr) \
  L_##name:                                         \
  shape(expr);

  for (std::int64_t tid = tid_begin; tid < tid_end; ++tid) {
    for (const std::size_t s : kernel.reloaded_scalars_) {
      R[tid_reg + 1 + s] = scalar_values[s];
    }
    R[tid_reg] = FromI(exec->iteration_offset + tid);
    budget = 0;
    ENTER(0);

    ACCMG_DECODED_OPS(ACCMG_DECODED_OP_HANDLER)
  }
#undef ACCMG_DECODED_OP_HANDLER
#undef REG
#undef DISPATCH
#undef NEXT
#undef ENTER
#undef CONST
#undef UNARY
#undef BIN_I
#undef DIV_I
#undef MOD_I
#undef BIN_F
#undef FUSED_ROUND
#undef FUSED_TRUNC
#undef LOAD
#undef STORE
#undef STORE32
#undef STORE64
#undef DIRTY
#undef RED_SCALAR
#undef RED_ARRAY
#undef JUMP
#undef BRANCH
#undef RET

  chunk->stats = sim::KernelStats{instr, bytes_read, bytes_written};
  return nullptr;
}

void KernelExec::Fold(sim::ChunkOutput& output) {
  auto& chunk = static_cast<ExecChunk&>(output);
  for (std::size_t s = 0; s < chunk.scalar_red.size(); ++s) {
    const auto& red = kernel_.scalar_reductions_[s];
    scalar_red_results_[s] = CombineRaw(red.op, red.type,
                                        scalar_red_results_[s],
                                        chunk.scalar_red[s]);
  }
  for (std::size_t r = 0; r < chunk.array_red.size(); ++r) {
    const auto& red = kernel_.array_reductions_[r];
    CombineRawSpan(red.op, red.type, array_red_partials_[r].data(),
                   chunk.array_red[r].data(), array_red_partials_[r].size());
  }
  for (std::size_t a = 0; a < chunk.misses.size(); ++a) {
    if (chunk.misses[a].empty()) continue;
    ACCMG_CHECK(bindings[a].miss != nullptr, "miss records without buffer");
    std::vector<WriteMissRecord>& records = bindings[a].miss->records;
    records.insert(records.end(), chunk.misses[a].begin(),
                   chunk.misses[a].end());
  }
}

}  // namespace accmg::ir
