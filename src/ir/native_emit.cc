#include "ir/native_emit.h"

#include <cinttypes>
#include <cstdio>


namespace accmg::ir {

extern const char kKernelOpsText[];  // kernel_ops.h, embedded at build time

namespace {

// The shapes of ACCMG_DECODED_OPS; each is emitted like the interpreter's
// macro of the same name.
enum class Shape {
  CONST, UNARY, BIN_I, DIV_I, MOD_I, BIN_F, FUSED_ROUND, FUSED_TRUNC, LOAD,
  STORE32, STORE64, DIRTY, RED_SCALAR, RED_ARRAY, JUMP, BRANCH, RET,
};

struct OpText {
  Shape shape;
  const char* expr;
};

constexpr OpText kOpText[] = {
#define ACCMG_OP_TEXT(name, shape, expr) {Shape::shape, #expr},
    ACCMG_DECODED_OPS(ACCMG_OP_TEXT)
#undef ACCMG_OP_TEXT
};

const char* RedOpEnum(RedOp op) {
  switch (op) {
    case RedOp::kAdd: return "RedOp::kAdd";
    case RedOp::kMul: return "RedOp::kMul";
    case RedOp::kMin: return "RedOp::kMin";
    case RedOp::kMax: return "RedOp::kMax";
  }
  return "";
}

const char* ValTypeEnum(ValType type) {
  switch (type) {
    case ValType::kI32: return "ValType::kI32";
    case ValType::kI64: return "ValType::kI64";
    case ValType::kF32: return "ValType::kF32";
    case ValType::kF64: return "ValType::kF64";
  }
  return "";
}

void AppendKey(std::string& key, std::uint64_t value) {
  key.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Appends printf-formatted text.
template <typename... Args>
void Put(std::string& out, const char* format, Args... args) {
  const std::size_t at = out.size();
  const auto n = static_cast<std::size_t>(
      std::snprintf(nullptr, 0, format, args...));
  out.resize(at + n + 1);
  std::snprintf(out.data() + at, n + 1, format, args...);
  out.resize(at + n);
}

std::string RedSpecText(RedOp op, ValType type) {
  return std::string("constexpr RedSpec red{") + RedOpEnum(op) + ", " +
         ValTypeEnum(type) + "};";
}

}  // namespace

std::string NativeContentKey(const DecodedKernel& kernel) {
  std::string key;
  key.reserve(64 + 32 * (kernel.ops_.size() + kernel.blocks_.size()) +
              8 * (kernel.arrays_.size() + kernel.reloaded_scalars_.size()));
  AppendKey(key, static_cast<std::uint64_t>(kernel.num_regs_));
  AppendKey(key, static_cast<std::uint64_t>(kernel.thread_id_reg_));
  AppendKey(key, kernel.num_scalars_);
  AppendKey(key, kernel.reloaded_scalars_.size());
  for (const std::size_t s : kernel.reloaded_scalars_) AppendKey(key, s);
  AppendKey(key, kernel.arrays_.size());
  for (const ArrayParam& array : kernel.arrays_) {
    AppendKey(key, static_cast<std::uint64_t>(array.elem));
  }
  AppendKey(key, kernel.scalar_reductions_.size());
  for (const ScalarReduction& red : kernel.scalar_reductions_) {
    AppendKey(key, static_cast<std::uint64_t>(red.op) << 8 |
                       static_cast<std::uint64_t>(red.type));
  }
  AppendKey(key, kernel.array_reductions_.size());
  for (const ArrayReduction& red : kernel.array_reductions_) {
    AppendKey(key, static_cast<std::uint64_t>(red.op) << 8 |
                       static_cast<std::uint64_t>(red.type));
  }
  AppendKey(key, kernel.ops_.size());
  for (const DecodedOp& op : kernel.ops_) {
    AppendKey(key, static_cast<std::uint64_t>(op.kind));
    AppendKey(key, static_cast<std::uint32_t>(op.dst) |
                       static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(op.a)) << 32);
    AppendKey(key, static_cast<std::uint32_t>(op.b) |
                       static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(op.c)) << 32);
    AppendKey(key, op.imm);
  }
  AppendKey(key, kernel.blocks_.size());
  for (const DecodedBlock& block : kernel.blocks_) {
    AppendKey(key, block.first_op |
                       static_cast<std::uint64_t>(block.count) << 32);
    AppendKey(key, block.weight);
    AppendKey(key, block.bytes_read);
    AppendKey(key, block.bytes_written);
  }
  return key;
}

std::string EmitNativeSource(const DecodedKernel& kernel,
                             const std::string& symbol) {
  std::string out = kKernelOpsText;
  out += "\nextern \"C\" int " + symbol +
         "(accmg::ir::ops::NativeFrame* f) {\n"
         "  using namespace accmg::ir;\n"
         "  using namespace accmg::ir::ops;\n";
  for (int r = 0; r < kernel.num_regs_; ++r) Put(out, "  U64 r%d = 0;\n", r);
  for (std::size_t a = 0; a < kernel.arrays_.size(); ++a) {
    Put(out,
        "  U8* const d%zu = f->bindings[%zu].data;\n"
        "  const I64 lo%zu = f->bindings[%zu].lo;\n"
        "  const I64 hi%zu = f->bindings[%zu].hi;\n"
        "  const I64 wlo%zu = f->bindings[%zu].write_lo;\n"
        "  const I64 whi%zu = f->bindings[%zu].write_hi;\n",
        a, a, a, a, a, a, a, a, a, a);
    Put(out,
        "  U8* const l1_%zu = f->bindings[%zu].level1;\n"
        "  U8* const l2_%zu = f->bindings[%zu].level2;\n"
        "  const I64 ce%zu = f->bindings[%zu].chunk_elems;\n"
        "  const bool miss%zu = f->bindings[%zu].has_miss_buffer;\n",
        a, a, a, a, a, a, a, a);
  }
  out +=
      "  U64* const scalar_red = f->scalar_red;\n"
      "  U64* const* const array_red = f->array_red;\n"
      "  const I64* const red_lower = f->red_lower;\n"
      "  const I64* const red_length = f->red_length;\n"
      "  void (*const spill)(void*, I32, I64, U64) = f->spill;\n"
      "  void* const chunk = f->chunk;\n";
  const auto tid_reg = static_cast<std::size_t>(kernel.thread_id_reg_);
  // Scalar s lives in register tid_reg + 1 + s; registers no instruction
  // writes are loaded once per chunk.
  for (std::size_t s = 0; s < kernel.num_scalars_; ++s) {
    Put(out, "  r%zu = f->scalars[%zu];\n", tid_reg + 1 + s, s);
  }
  out +=
      "  U64 instr = 0, bytes_read = 0, bytes_written = 0, budget = 0;\n"
      "  for (I64 tid = f->tid_begin; tid < f->tid_end; ++tid) {\n";
  for (const std::size_t s : kernel.reloaded_scalars_) {
    Put(out, "    r%zu = f->scalars[%zu];\n", tid_reg + 1 + s, s);
  }
  Put(out,
      "    r%zu = FromI(f->iteration_offset + tid);\n"
      "    budget = 0;\n",
      tid_reg);

  const std::vector<DecodedOp>& ops = kernel.ops_;
  for (std::size_t b = 0; b < kernel.blocks_.size(); ++b) {
    const DecodedBlock& block = kernel.blocks_[b];
    Put(out, "  b%zu:\n", b);
    Put(out,
        "    instr += %" PRIu64 "u; bytes_read += %" PRIu64
        "u; bytes_written += %" PRIu64 "u;\n"
        "    budget += %" PRIu32 "u;\n"
        "    if (budget > kMaxInstrPerThread) return Fault(f, kNativeBudget, "
        "0, 0);\n",
        block.weight, block.bytes_read, block.bytes_written, block.count);
    const std::size_t end = b + 1 < kernel.blocks_.size()
                                ? kernel.blocks_[b + 1].first_op
                                : ops.size();
    for (std::size_t i = block.first_op; i < end; ++i) {
      const DecodedOp& op = ops[i];
      const OpText& text = kOpText[static_cast<std::size_t>(op.kind)];
      const char* expr = text.expr;
      switch (text.shape) {
        case Shape::CONST:
          Put(out, "    r%d = 0x%016" PRIx64 "ull;\n", op.dst, op.imm);
          break;
        case Shape::UNARY:
          Put(out, "    { const U64 x = r%d; r%d = (%s); }\n", op.a, op.dst,
              expr);
          break;
        case Shape::DIV_I:
        case Shape::MOD_I:
          Put(out, "    if (AsI(r%d) == 0) return Fault(f, %s, 0, 0);\n",
              op.b,
              text.shape == Shape::DIV_I ? "kNativeDivZero"
                                         : "kNativeModZero");
          [[fallthrough]];
        case Shape::BIN_I:
          Put(out,
              "    { const I64 x = AsI(r%d); const I64 y = AsI(r%d); "
              "r%d = FromI(%s); }\n",
              op.a, op.b, op.dst, expr);
          break;
        case Shape::BIN_F:
          Put(out,
              "    { const double x = AsF(r%d); const double y = AsF(r%d); "
              "r%d = (%s); }\n",
              op.a, op.b, op.dst, expr);
          break;
        case Shape::FUSED_ROUND:
          Put(out,
              "    { const double x = AsF(r%d); const double y = AsF(r%d); "
              "const double t = (%s); r%d = FromF(t); "
              "r%d = FromF(RoundF32(t)); }\n",
              op.a, op.b, expr, op.dst, op.c);
          break;
        case Shape::FUSED_TRUNC:
          Put(out,
              "    { const U64 x = r%d; const U64 y = r%d; const U64 t = (%s); "
              "r%d = t; r%d = FromI(TruncI32(AsI(t))); }\n",
              op.a, op.b, expr, op.dst, op.c);
          break;
        case Shape::LOAD:
          Put(out,
              "    { const I64 idx = AsI(r%d);\n"
              "      if (idx < lo%d || idx >= hi%d) "
              "return Fault(f, kNativeRead, %d, idx);\n"
              "      const U8* const data = d%d; const I64 local = idx - lo%d;\n"
              "      r%d = (%s); }\n",
              op.a, op.c, op.c, op.c, op.c, op.c, op.dst, expr);
          break;
        case Shape::STORE32:
        case Shape::STORE64:
          Put(out,
              "    { const I64 idx = AsI(r%d); const U64 v = r%d; "
              "const U64 raw = (%s);\n"
              "      if (idx >= wlo%d && idx < whi%d) "
              "%s(d%d, idx - lo%d, raw);\n"
              "      else if (!miss%d) "
              "return Fault(f, kNativeWriteMiss, %d, idx);\n"
              "      else spill(chunk, %d, idx, raw); }\n",
              op.a, op.b, expr, op.c, op.c,
              text.shape == Shape::STORE32 ? "Store32" : "Store64", op.c,
              op.c, op.c, op.c, op.c);
          break;
        case Shape::DIRTY:
          Put(out,
              "    { U8* const level1 = l1_%d; U8* const level2 = l2_%d; "
              "const I64 chunk_elems = ce%d;\n"
              "      const I64 idx = AsI(r%d); const I64 lo = lo%d; "
              "const I64 hi = hi%d;\n"
              "      bytes_written += (%s); }\n",
              op.c, op.c, op.c, op.a, op.c, op.c, expr);
          break;
        case Shape::RED_SCALAR: {
          const ScalarReduction& red =
              kernel.scalar_reductions_[static_cast<std::size_t>(op.c)];
          Put(out,
              "    { %s U64& acc = scalar_red[%d]; const U64 v = r%d; "
              "acc = (%s); }\n",
              RedSpecText(red.op, red.type).c_str(), op.c, op.a, expr);
          break;
        }
        case Shape::RED_ARRAY: {
          const ArrayReduction& red =
              kernel.array_reductions_[static_cast<std::size_t>(op.c)];
          Put(out,
              "    { %s const I64 idx = AsI(r%d);\n"
              "      const I64 lower = red_lower[%d]; "
              "const I64 length = red_length[%d];\n"
              "      if (idx < lower || idx >= lower + length) "
              "return Fault(f, kNativeSection, %d, idx);\n"
              "      U64& cell = array_red[%d][idx - lower]; "
              "const U64 v = r%d; cell = (%s); }\n",
              RedSpecText(red.op, red.type).c_str(), op.a, op.c, op.c, op.c,
              op.c, op.b, expr);
          break;
        }
        case Shape::JUMP:
          Put(out, "    goto b%d;\n", op.c);
          break;
        case Shape::BRANCH:
          Put(out,
              "    { const U64 x = r%d; if (%s) goto b%d; goto b%d; }\n",
              op.a, expr, op.c, op.b);
          break;
        case Shape::RET:
          out += "    continue;\n";
          break;
      }
    }
  }
  out +=
      "  }\n"
      "  f->instructions = instr;\n"
      "  f->bytes_read = bytes_read;\n"
      "  f->bytes_written = bytes_written;\n"
      "  return kNativeOk;\n"
      "}\n";
  return out;
}

}  // namespace accmg::ir
