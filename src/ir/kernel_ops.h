// Register and element semantics of the kernel engine, shared by both tiers.
//
// This header is the single definition of what every decoded op computes:
// the direct-threaded interpreter (exec.cc) compiles it in, and the native
// tier (native_emit.cc) embeds its text verbatim at the top of every
// emitted kernel file. It therefore includes no header and names no
// standard-library entity: it uses compiler builtins only, and declares the
// libm functions it calls, so that both tiers resolve to the same glibc
// symbols. Float math is IEEE double with explicit rounding to float where
// the source has float type; the emitted file is compiled with
// -ffp-contract=off and -fno-builtin so that no multiply-add is fused and
// no libm call is folded at compile time.
#ifndef ACCMG_IR_KERNEL_OPS_H_
#define ACCMG_IR_KERNEL_OPS_H_

extern "C" {
double exp(double) noexcept;
double log(double) noexcept;
double pow(double, double) noexcept;
double fmin(double, double) noexcept;
double fmax(double, double) noexcept;
}

namespace accmg::ir {

enum class ValType : __UINT8_TYPE__ { kI32, kI64, kF32, kF64 };

enum class RedOp : __UINT8_TYPE__ { kAdd, kMul, kMin, kMax };

namespace ops {

using U8 = __UINT8_TYPE__;
using U32 = __UINT32_TYPE__;
using I32 = __INT32_TYPE__;
using U64 = __UINT64_TYPE__;
using I64 = __INT64_TYPE__;

/// Per-thread budget of executed IR instructions; a thread past it faults.
inline constexpr U64 kMaxInstrPerThread = 400'000'000;

inline double AsF(U64 raw) { return __builtin_bit_cast(double, raw); }
inline U64 FromF(double v) { return __builtin_bit_cast(U64, v); }
inline I64 AsI(U64 raw) { return static_cast<I64>(raw); }
inline U64 FromI(I64 v) { return static_cast<U64>(v); }

/// Integer add/sub/mul in two's-complement arithmetic: the result bits of a
/// signed op that does not overflow, without the undefined behaviour of one
/// that does.
inline I64 WrapAdd(I64 x, I64 y) { return AsI(FromI(x) + FromI(y)); }
inline I64 WrapSub(I64 x, I64 y) { return AsI(FromI(x) - FromI(y)); }
inline I64 WrapMul(I64 x, I64 y) { return AsI(FromI(x) * FromI(y)); }

/// Division and remainder by a non-zero divisor (the caller faults on 0).
/// The one overflowing quotient, INT64_MIN / -1, wraps to INT64_MIN.
inline I64 DivI(I64 x, I64 y) { return y == -1 ? WrapSub(0, x) : x / y; }
inline I64 ModI(I64 x, I64 y) { return y == -1 ? 0 : x % y; }
inline I64 AbsI(I64 x) { return x < 0 ? WrapSub(0, x) : x; }

/// Float to integer truncation; NaN and out-of-range values give
/// INT64_MIN, as the x86-64 conversion instruction does.
inline I64 F2I(double v) {
  constexpr double kTwo63 = 9223372036854775808.0;
  return v >= -kTwo63 && v < kTwo63 ? static_cast<I64>(v)
                                    : static_cast<I64>(FromI(1) << 63);
}

inline double RoundF32(double v) {
  return static_cast<double>(static_cast<float>(v));
}
inline I64 TruncI32(I64 v) { return static_cast<I32>(v); }

inline double Exp(double v) { return ::exp(v); }
inline double Log(double v) { return ::log(v); }
inline double Pow(double x, double y) { return ::pow(x, y); }
inline double Fmin(double x, double y) { return ::fmin(x, y); }
inline double Fmax(double x, double y) { return ::fmax(x, y); }

/// Element `local` of a segment as register bits. Element accesses are
/// relaxed-atomic: GPU kernels may legally race on the same element (benign
/// races as in SHOC's BFS), which plain accesses would make UB on the host.
inline U64 LoadI32(const void* data, I64 local) {
  const U32 bits = __atomic_load_n(static_cast<const U32*>(data) + local,
                                   __ATOMIC_RELAXED);
  return FromI(static_cast<I32>(bits));
}
inline U64 LoadF32(const void* data, I64 local) {
  const U32 bits = __atomic_load_n(static_cast<const U32*>(data) + local,
                                   __ATOMIC_RELAXED);
  return FromF(static_cast<double>(__builtin_bit_cast(float, bits)));
}
inline U64 Load64(const void* data, I64 local) {
  return __atomic_load_n(static_cast<const U64*>(data) + local,
                         __ATOMIC_RELAXED);
}

/// Writes raw element bits (as produced by RegToElementRaw) to memory.
inline void Store32(void* data, I64 local, U64 raw) {
  __atomic_store_n(static_cast<U32*>(data) + local, static_cast<U32>(raw),
                   __ATOMIC_RELAXED);
}
inline void Store64(void* data, I64 local, U64 raw) {
  __atomic_store_n(static_cast<U64*>(data) + local, raw, __ATOMIC_RELAXED);
}

/// Register bits to element bits (the value actually stored).
inline U64 RegToRawI32(U64 reg) { return FromI(static_cast<I32>(AsI(reg))); }
inline U64 RegToRawF32(U64 reg) {
  return __builtin_bit_cast(U32, static_cast<float>(AsF(reg)));
}
inline U64 RegToElementRaw(U64 reg, ValType elem) {
  switch (elem) {
    case ValType::kI32: return RegToRawI32(reg);
    case ValType::kF32: return RegToRawF32(reg);
    case ValType::kI64:
    case ValType::kF64: return reg;
  }
  return 0;
}

/// Element bits back to register bits.
inline U64 ElementRawToReg(U64 raw, ValType elem) {
  switch (elem) {
    case ValType::kI32:
      return FromI(static_cast<I32>(static_cast<U32>(raw)));
    case ValType::kF32:
      return FromF(static_cast<double>(
          __builtin_bit_cast(float, static_cast<U32>(raw))));
    case ValType::kI64:
    case ValType::kF64: return raw;
  }
  return 0;
}

/// Combines two raw element values of `type` with `op`.
inline U64 CombineRaw(RedOp op, ValType type, U64 a, U64 b) {
  if (type == ValType::kF32 || type == ValType::kF64) {
    const double x = AsF(ElementRawToReg(a, type));
    const double y = AsF(ElementRawToReg(b, type));
    double r = 0;
    switch (op) {
      case RedOp::kAdd: r = x + y; break;
      case RedOp::kMul: r = x * y; break;
      case RedOp::kMin: r = Fmin(x, y); break;
      case RedOp::kMax: r = Fmax(x, y); break;
    }
    return RegToElementRaw(FromF(r), type);
  }
  const I64 x = AsI(ElementRawToReg(a, type));
  const I64 y = AsI(ElementRawToReg(b, type));
  I64 r = 0;
  switch (op) {
    case RedOp::kAdd: r = WrapAdd(x, y); break;
    case RedOp::kMul: r = WrapMul(x, y); break;
    case RedOp::kMin: r = x < y ? x : y; break;
    case RedOp::kMax: r = x > y ? x : y; break;
  }
  return RegToElementRaw(FromI(r), type);
}

/// Marks global element `idx` dirty in both levels when the array is
/// tracked and the element resident; returns the bytes charged for it.
inline U64 MarkDirty(U8* level1, U8* level2, I64 chunk_elems, I64 idx,
                     I64 lo, I64 hi) {
  if (level1 == nullptr || idx < lo || idx >= hi) return 0;
  const I64 local = idx - lo;
  __atomic_store_n(level1 + local, U8{1}, __ATOMIC_RELAXED);
  __atomic_store_n(level2 + local / chunk_elems, U8{1}, __ATOMIC_RELAXED);
  return 2;
}

/// A reduction slot's operator and element type.
struct RedSpec {
  RedOp op;
  ValType type;
};

// --- the native tier's calling convention --------------------------------

/// One array parameter as bound on the launching device (ArrayBinding).
struct NativeBinding {
  U8* data;
  I64 lo;
  I64 hi;
  I64 write_lo;
  I64 write_hi;
  U8* level1;
  U8* level2;
  I64 chunk_elems;
  bool has_miss_buffer;
};

/// How a native chunk ended. Every fault returns with its operands in the
/// frame, and exec.cc raises the interpreter's error from them.
enum NativeStatus : int {
  kNativeOk = 0,
  kNativeBudget,      ///< per-thread instruction budget exceeded
  kNativeDivZero,     ///< integer division by zero
  kNativeModZero,     ///< integer modulo by zero
  kNativeRead,        ///< non-resident read of array fault_arg at fault_index
  kNativeWriteMiss,   ///< non-owned write of array fault_arg, no miss buffer
  kNativeSection,     ///< reductiontoarray slot fault_arg, index fault_index
};

/// Inputs and outputs of one native chunk.
struct NativeFrame {
  const NativeBinding* bindings;
  const U64* scalars;
  I64 iteration_offset;
  I64 tid_begin;
  I64 tid_end;
  const I64* red_lower;
  const I64* red_length;
  U64* scalar_red;        ///< the chunk's scalar partials
  U64* const* array_red;  ///< the chunk's dense array partials
  /// Appends a write-miss record to the chunk's records of `array`.
  void (*spill)(void* chunk, I32 array, I64 index, U64 raw);
  void* chunk;
  // Outputs.
  U64 instructions;
  U64 bytes_read;
  U64 bytes_written;
  I64 fault_arg;
  I64 fault_index;
};

using NativeFn = int (*)(NativeFrame*);

inline int Fault(NativeFrame* f, NativeStatus status, I64 arg, I64 index) {
  f->fault_arg = arg;
  f->fault_index = index;
  return status;
}

}  // namespace ops
}  // namespace accmg::ir

#endif  // ACCMG_IR_KERNEL_OPS_H_
