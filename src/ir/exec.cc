#include "ir/exec.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace accmg::ir {

namespace {

inline double AsF(std::uint64_t raw) { return std::bit_cast<double>(raw); }
inline std::uint64_t FromF(double v) { return std::bit_cast<std::uint64_t>(v); }
inline std::int64_t AsI(std::uint64_t raw) {
  return static_cast<std::int64_t>(raw);
}
inline std::uint64_t FromI(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

/// Integer reduction add/mul in two's-complement arithmetic: the result
/// bits of a signed op that does not overflow, without the undefined
/// behaviour of one that does.
inline std::int64_t WrapAdd(std::int64_t x, std::int64_t y) {
  return AsI(FromI(x) + FromI(y));
}
inline std::int64_t WrapMul(std::int64_t x, std::int64_t y) {
  return AsI(FromI(x) * FromI(y));
}

/// Reads element `local` of a segment as raw register bits. Loads are
/// relaxed-atomic: GPU kernels may legally race on the same element (benign
/// races as in SHOC's BFS), which plain loads would make UB on the host.
inline std::uint64_t LoadElement(const std::byte* base, std::int64_t local,
                                 ValType elem) {
  switch (elem) {
    case ValType::kI32: {
      auto* p = reinterpret_cast<const std::uint32_t*>(base + local * 4);
      const std::uint32_t bits = std::atomic_ref<const std::uint32_t>(*p).load(
          std::memory_order_relaxed);
      return FromI(static_cast<std::int32_t>(bits));
    }
    case ValType::kI64: {
      auto* p = reinterpret_cast<const std::uint64_t*>(base + local * 8);
      const std::uint64_t bits = std::atomic_ref<const std::uint64_t>(*p).load(
          std::memory_order_relaxed);
      return FromI(static_cast<std::int64_t>(bits));
    }
    case ValType::kF32: {
      auto* p = reinterpret_cast<const std::uint32_t*>(base + local * 4);
      const std::uint32_t bits = std::atomic_ref<const std::uint32_t>(*p).load(
          std::memory_order_relaxed);
      float v;
      std::memcpy(&v, &bits, 4);
      return FromF(static_cast<double>(v));
    }
    case ValType::kF64: {
      auto* p = reinterpret_cast<const std::uint64_t*>(base + local * 8);
      const std::uint64_t bits = std::atomic_ref<const std::uint64_t>(*p).load(
          std::memory_order_relaxed);
      return FromF(std::bit_cast<double>(bits));
    }
  }
  return 0;
}

/// Converts register bits to element bits (the value actually stored).
inline std::uint64_t RegToElementRaw(std::uint64_t reg, ValType elem) {
  switch (elem) {
    case ValType::kI32: {
      const auto v = static_cast<std::int32_t>(AsI(reg));
      return FromI(v);
    }
    case ValType::kI64:
      return reg;
    case ValType::kF32: {
      const auto v = static_cast<float>(AsF(reg));
      std::uint32_t bits;
      std::memcpy(&bits, &v, 4);
      return bits;
    }
    case ValType::kF64:
      return reg;
  }
  return 0;
}

/// Writes raw element bits (as produced by RegToElementRaw) to memory.
/// Relaxed-atomic for the same reason LoadElement is.
inline void StoreElementRaw(std::byte* base, std::int64_t local, ValType elem,
                            std::uint64_t raw) {
  switch (elem) {
    case ValType::kI32:
    case ValType::kF32: {
      auto* p = reinterpret_cast<std::uint32_t*>(base + local * 4);
      std::atomic_ref<std::uint32_t>(*p).store(
          static_cast<std::uint32_t>(raw), std::memory_order_relaxed);
      break;
    }
    case ValType::kI64:
    case ValType::kF64: {
      auto* p = reinterpret_cast<std::uint64_t*>(base + local * 8);
      std::atomic_ref<std::uint64_t>(*p).store(raw,
                                               std::memory_order_relaxed);
      break;
    }
  }
}

/// Converts raw *element* bits back to register bits.
inline std::uint64_t ElementRawToReg(std::uint64_t raw, ValType elem) {
  switch (elem) {
    case ValType::kI32:
      return FromI(static_cast<std::int32_t>(static_cast<std::uint32_t>(raw)));
    case ValType::kI64:
      return raw;
    case ValType::kF32: {
      const auto bits = static_cast<std::uint32_t>(raw);
      float v;
      std::memcpy(&v, &bits, 4);
      return FromF(static_cast<double>(v));
    }
    case ValType::kF64:
      return raw;
  }
  return 0;
}

/// Dynamic cost weights; transcendental ops are an order of magnitude more
/// expensive than simple ALU ops on Fermi-class GPUs.
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

constexpr std::uint64_t kMaxInstrPerThread = 400'000'000;

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

std::uint64_t CombineRaw(RedOp op, ValType type, std::uint64_t a,
                         std::uint64_t b) {
  if (IsFloat(type)) {
    const double x = AsF(ElementRawToReg(a, type));
    const double y = AsF(ElementRawToReg(b, type));
    double r = 0;
    switch (op) {
      case RedOp::kAdd: r = x + y; break;
      case RedOp::kMul: r = x * y; break;
      case RedOp::kMin: r = std::fmin(x, y); break;
      case RedOp::kMax: r = std::fmax(x, y); break;
    }
    return RegToElementRaw(FromF(r), type);
  }
  const std::int64_t x = AsI(ElementRawToReg(a, type));
  const std::int64_t y = AsI(ElementRawToReg(b, type));
  std::int64_t r = 0;
  switch (op) {
    case RedOp::kAdd: r = WrapAdd(x, y); break;
    case RedOp::kMul: r = WrapMul(x, y); break;
    case RedOp::kMin: r = x < y ? x : y; break;
    case RedOp::kMax: r = x > y ? x : y; break;
  }
  return RegToElementRaw(FromI(r), type);
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
                         [](double x, double y) { return std::fmin(x, y); });
        break;
      case RedOp::kMax:
        CombineSpanFloat(type, acc, src, n,
                         [](double x, double y) { return std::fmax(x, y); });
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

KernelExec::KernelExec(const KernelIR& kernel) : kernel_(kernel) {
  Verify(kernel);
  bindings.resize(kernel.arrays.size());
  scalar_values.resize(kernel.scalars.size(), 0);
  array_red_lower.resize(kernel.array_reductions.size(), 0);
  array_red_length.resize(kernel.array_reductions.size(), 0);
  ResetOutputs();
}

void KernelExec::ResetOutputs() {
  scalar_red_results_.clear();
  for (const auto& red : kernel_.scalar_reductions) {
    scalar_red_results_.push_back(ReductionIdentity(red.op, red.type));
  }
  array_red_partials_.clear();
  for (std::size_t i = 0; i < kernel_.array_reductions.size(); ++i) {
    const auto& red = kernel_.array_reductions[i];
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

}  // namespace

std::unique_ptr<sim::ChunkOutput> KernelExec::RunChunk(
    std::int64_t tid_begin, std::int64_t tid_end) const {
  ACCMG_CHECK(bindings.size() == kernel_.arrays.size(),
              "kernel launch with unbound arrays");
  ACCMG_CHECK(scalar_values.size() == kernel_.scalars.size(),
              "kernel launch with missing scalar values");

  std::vector<std::uint64_t> regs(static_cast<std::size_t>(kernel_.num_regs));

  auto chunk = std::make_unique<ExecChunk>();
  for (const auto& red : kernel_.scalar_reductions) {
    chunk->scalar_red.push_back(ReductionIdentity(red.op, red.type));
  }
  for (std::size_t i = 0; i < kernel_.array_reductions.size(); ++i) {
    chunk->array_red.emplace_back(
        static_cast<std::size_t>(array_red_length[i]),
        ReductionIdentity(kernel_.array_reductions[i].op,
                          kernel_.array_reductions[i].type));
  }
  chunk->misses.resize(bindings.size());

  std::uint64_t instr = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  const Instr* code = kernel_.code.data();
  for (std::int64_t tid = tid_begin; tid < tid_end; ++tid) {
    // Pre-load scalar parameters and the iteration index.
    for (std::size_t s = 0; s < scalar_values.size(); ++s) {
      // Scalars occupy the first registers after the thread id register by
      // convention established in the builder; the builder emits explicit
      // register numbers, so we just honour the launch contract:
      // scalar s lives in register (thread_id_reg + 1 + s).
      regs[static_cast<std::size_t>(kernel_.thread_id_reg) + 1 + s] =
          scalar_values[s];
    }
    regs[static_cast<std::size_t>(kernel_.thread_id_reg)] =
        FromI(iteration_offset + tid);

    std::uint64_t budget = 0;
    std::size_t pc = 0;
    while (true) {
      const Instr& in = code[pc];
      instr += InstrWeight(in.op);
      if (++budget > kMaxInstrPerThread) {
        throw DeviceError("kernel '" + kernel_.name +
                          "': per-thread instruction budget exceeded "
                          "(runaway loop?)");
      }
      switch (in.op) {
        case Opcode::kConstI:
          regs[static_cast<std::size_t>(in.dst)] = FromI(in.imm.i);
          break;
        case Opcode::kConstF:
          regs[static_cast<std::size_t>(in.dst)] = FromF(in.imm.f);
          break;
        case Opcode::kMov:
          regs[static_cast<std::size_t>(in.dst)] =
              regs[static_cast<std::size_t>(in.a)];
          break;

#define REG(x) regs[static_cast<std::size_t>(x)]
#define BIN_I(expr)                                           \
  {                                                           \
    const std::int64_t x = AsI(REG(in.a));                    \
    const std::int64_t y = AsI(REG(in.b));                    \
    (void)x; (void)y;                                         \
    REG(in.dst) = FromI(expr);                                \
  }                                                           \
  break
#define BIN_F(expr)                                           \
  {                                                           \
    const double x = AsF(REG(in.a));                          \
    const double y = AsF(REG(in.b));                          \
    (void)x; (void)y;                                         \
    REG(in.dst) = FromF(expr);                                \
  }                                                           \
  break

        case Opcode::kAddI: BIN_I(x + y);
        case Opcode::kSubI: BIN_I(x - y);
        case Opcode::kMulI: BIN_I(x * y);
        case Opcode::kDivI: {
          const std::int64_t y = AsI(REG(in.b));
          if (y == 0) {
            throw DeviceError("kernel '" + kernel_.name +
                              "': integer division by zero");
          }
          REG(in.dst) = FromI(AsI(REG(in.a)) / y);
          break;
        }
        case Opcode::kModI: {
          const std::int64_t y = AsI(REG(in.b));
          if (y == 0) {
            throw DeviceError("kernel '" + kernel_.name +
                              "': integer modulo by zero");
          }
          REG(in.dst) = FromI(AsI(REG(in.a)) % y);
          break;
        }
        case Opcode::kNegI:
          REG(in.dst) = FromI(-AsI(REG(in.a)));
          break;
        case Opcode::kAndI: BIN_I(x & y);
        case Opcode::kOrI: BIN_I(x | y);
        case Opcode::kXorI: BIN_I(x ^ y);
        case Opcode::kShlI: BIN_I(x << (y & 63));
        case Opcode::kShrI: BIN_I(x >> (y & 63));
        case Opcode::kNotI:
          REG(in.dst) = FromI(~AsI(REG(in.a)));
          break;
        case Opcode::kMinI: BIN_I(x < y ? x : y);
        case Opcode::kMaxI: BIN_I(x > y ? x : y);
        case Opcode::kAbsI:
          REG(in.dst) = FromI(std::llabs(AsI(REG(in.a))));
          break;

        case Opcode::kAddF: BIN_F(x + y);
        case Opcode::kSubF: BIN_F(x - y);
        case Opcode::kMulF: BIN_F(x * y);
        case Opcode::kDivF: BIN_F(x / y);
        case Opcode::kNegF:
          REG(in.dst) = FromF(-AsF(REG(in.a)));
          break;
        case Opcode::kSqrtF:
          REG(in.dst) = FromF(std::sqrt(AsF(REG(in.a))));
          break;
        case Opcode::kFabsF:
          REG(in.dst) = FromF(std::fabs(AsF(REG(in.a))));
          break;
        case Opcode::kExpF:
          REG(in.dst) = FromF(std::exp(AsF(REG(in.a))));
          break;
        case Opcode::kLogF:
          REG(in.dst) = FromF(std::log(AsF(REG(in.a))));
          break;
        case Opcode::kPowF: BIN_F(std::pow(x, y));
        case Opcode::kFminF: BIN_F(std::fmin(x, y));
        case Opcode::kFmaxF: BIN_F(std::fmax(x, y));
        case Opcode::kFloorF:
          REG(in.dst) = FromF(std::floor(AsF(REG(in.a))));
          break;
        case Opcode::kCeilF:
          REG(in.dst) = FromF(std::ceil(AsF(REG(in.a))));
          break;

        case Opcode::kCmpLtI: BIN_I((x < y) ? 1 : 0);
        case Opcode::kCmpLeI: BIN_I((x <= y) ? 1 : 0);
        case Opcode::kCmpEqI: BIN_I((x == y) ? 1 : 0);
        case Opcode::kCmpNeI: BIN_I((x != y) ? 1 : 0);
        case Opcode::kCmpLtF: {
          const double x = AsF(REG(in.a));
          const double y = AsF(REG(in.b));
          REG(in.dst) = FromI((x < y) ? 1 : 0);
          break;
        }
        case Opcode::kCmpLeF: {
          const double x = AsF(REG(in.a));
          const double y = AsF(REG(in.b));
          REG(in.dst) = FromI((x <= y) ? 1 : 0);
          break;
        }
        case Opcode::kCmpEqF: {
          const double x = AsF(REG(in.a));
          const double y = AsF(REG(in.b));
          REG(in.dst) = FromI((x == y) ? 1 : 0);
          break;
        }
        case Opcode::kCmpNeF: {
          const double x = AsF(REG(in.a));
          const double y = AsF(REG(in.b));
          REG(in.dst) = FromI((x != y) ? 1 : 0);
          break;
        }

        case Opcode::kTruncI32:
          REG(in.dst) = FromI(static_cast<std::int32_t>(AsI(REG(in.a))));
          break;
        case Opcode::kRoundF32:
          REG(in.dst) =
              FromF(static_cast<double>(static_cast<float>(AsF(REG(in.a)))));
          break;
        case Opcode::kI2F:
          REG(in.dst) = FromF(static_cast<double>(AsI(REG(in.a))));
          break;
        case Opcode::kF2I:
          REG(in.dst) = FromI(static_cast<std::int64_t>(AsF(REG(in.a))));
          break;

        case Opcode::kLoad: {
          const auto& binding = bindings[static_cast<std::size_t>(in.arr)];
          const auto& param = kernel_.arrays[static_cast<std::size_t>(in.arr)];
          const std::int64_t idx = AsI(REG(in.a));
          if (idx < binding.lo || idx >= binding.hi) {
            throw DeviceError(
                "kernel '" + kernel_.name + "': read of non-resident element " +
                param.name + "[" + std::to_string(idx) + "], resident [" +
                std::to_string(binding.lo) + ", " +
                std::to_string(binding.hi) + ")");
          }
          REG(in.dst) =
              LoadElement(binding.data, idx - binding.lo, param.elem);
          bytes_read += ValTypeSize(param.elem);
          break;
        }
        case Opcode::kStore: {
          const auto& binding = bindings[static_cast<std::size_t>(in.arr)];
          const auto& param = kernel_.arrays[static_cast<std::size_t>(in.arr)];
          const std::int64_t idx = AsI(REG(in.a));
          const std::uint64_t raw = RegToElementRaw(REG(in.b), param.elem);
          if (idx >= binding.write_lo && idx < binding.write_hi) {
            StoreElementRaw(binding.data, idx - binding.lo, param.elem, raw);
          } else if (binding.miss != nullptr) {
            // Write miss on a distributed array: buffer the (address, data)
            // record for the communication manager (Section IV-D2).
            chunk->misses[static_cast<std::size_t>(in.arr)].push_back(
                WriteMissRecord{idx, raw});
          } else {
            throw DeviceError(
                "kernel '" + kernel_.name +
                "': write to non-resident element " + param.name + "[" +
                std::to_string(idx) + "] without a write-miss buffer");
          }
          bytes_written += ValTypeSize(param.elem);
          break;
        }
        case Opcode::kDirtyMark: {
          const auto& binding = bindings[static_cast<std::size_t>(in.arr)];
          if (binding.dirty.level1 != nullptr) {
            const std::int64_t idx = AsI(REG(in.a));
            if (idx >= binding.lo && idx < binding.hi) {
              const std::int64_t local = idx - binding.lo;
              std::atomic_ref<std::uint8_t>(binding.dirty.level1[local])
                  .store(1, std::memory_order_relaxed);
              std::atomic_ref<std::uint8_t>(
                  binding.dirty.level2[local / binding.dirty.chunk_elems])
                  .store(1, std::memory_order_relaxed);
              bytes_written += 2;
            }
          }
          break;
        }

        case Opcode::kRedScalar: {
          const auto slot = static_cast<std::size_t>(in.imm.i);
          const auto& red = kernel_.scalar_reductions[slot];
          const std::uint64_t value =
              RegToElementRaw(REG(in.a), red.type);
          chunk->scalar_red[slot] =
              CombineRaw(red.op, red.type, chunk->scalar_red[slot], value);
          break;
        }
        case Opcode::kRedArray: {
          const auto slot = static_cast<std::size_t>(in.imm.i);
          const auto& red = kernel_.array_reductions[slot];
          const std::int64_t idx = AsI(REG(in.a));
          const std::int64_t lower = array_red_lower[slot];
          const std::int64_t length = array_red_length[slot];
          if (idx < lower || idx >= lower + length) {
            throw DeviceError("kernel '" + kernel_.name +
                              "': reductiontoarray index " +
                              std::to_string(idx) +
                              " outside the declared section [" +
                              std::to_string(lower) + ", " +
                              std::to_string(lower + length) + ")");
          }
          auto& cell =
              chunk->array_red[slot][static_cast<std::size_t>(idx - lower)];
          cell = CombineRaw(red.op, red.type, cell,
                            RegToElementRaw(REG(in.b), red.type));
          break;
        }

        case Opcode::kBr:
          pc = static_cast<std::size_t>(in.imm.i);
          continue;
        case Opcode::kBrIf:
          if (AsI(REG(in.a)) != 0) {
            pc = static_cast<std::size_t>(in.imm.i);
            continue;
          }
          break;
        case Opcode::kBrIfNot:
          if (AsI(REG(in.a)) == 0) {
            pc = static_cast<std::size_t>(in.imm.i);
            continue;
          }
          break;
        case Opcode::kRet:
          goto thread_done;
      }
      ++pc;
    }
  thread_done:;
#undef REG
#undef BIN_I
#undef BIN_F
  }

  chunk->stats = sim::KernelStats{instr, bytes_read, bytes_written};
  return chunk;
}

void KernelExec::Fold(sim::ChunkOutput& output) {
  auto& chunk = static_cast<ExecChunk&>(output);
  for (std::size_t s = 0; s < chunk.scalar_red.size(); ++s) {
    const auto& red = kernel_.scalar_reductions[s];
    scalar_red_results_[s] = CombineRaw(red.op, red.type,
                                        scalar_red_results_[s],
                                        chunk.scalar_red[s]);
  }
  for (std::size_t r = 0; r < chunk.array_red.size(); ++r) {
    const auto& red = kernel_.array_reductions[r];
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
