#include "ir/ir.h"

#include <charconv>
#include <sstream>

#include "common/error.h"

namespace accmg::ir {

std::size_t ValTypeSize(ValType t) {
  switch (t) {
    case ValType::kI32: return 4;
    case ValType::kI64: return 8;
    case ValType::kF32: return 4;
    case ValType::kF64: return 8;
  }
  return 0;
}

const char* ValTypeName(ValType t) {
  switch (t) {
    case ValType::kI32: return "i32";
    case ValType::kI64: return "i64";
    case ValType::kF32: return "f32";
    case ValType::kF64: return "f64";
  }
  return "?";
}

bool IsFloat(ValType t) { return t == ValType::kF32 || t == ValType::kF64; }

const char* RedOpName(RedOp op) {
  switch (op) {
    case RedOp::kAdd: return "add";
    case RedOp::kMul: return "mul";
    case RedOp::kMin: return "min";
    case RedOp::kMax: return "max";
  }
  return "?";
}

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kConstI: return "const.i";
    case Opcode::kConstF: return "const.f";
    case Opcode::kMov: return "mov";
    case Opcode::kAddI: return "add.i";
    case Opcode::kSubI: return "sub.i";
    case Opcode::kMulI: return "mul.i";
    case Opcode::kDivI: return "div.i";
    case Opcode::kModI: return "mod.i";
    case Opcode::kNegI: return "neg.i";
    case Opcode::kAndI: return "and.i";
    case Opcode::kOrI: return "or.i";
    case Opcode::kXorI: return "xor.i";
    case Opcode::kShlI: return "shl.i";
    case Opcode::kShrI: return "shr.i";
    case Opcode::kNotI: return "not.i";
    case Opcode::kMinI: return "min.i";
    case Opcode::kMaxI: return "max.i";
    case Opcode::kAbsI: return "abs.i";
    case Opcode::kAddF: return "add.f";
    case Opcode::kSubF: return "sub.f";
    case Opcode::kMulF: return "mul.f";
    case Opcode::kDivF: return "div.f";
    case Opcode::kNegF: return "neg.f";
    case Opcode::kSqrtF: return "sqrt.f";
    case Opcode::kFabsF: return "fabs.f";
    case Opcode::kExpF: return "exp.f";
    case Opcode::kLogF: return "log.f";
    case Opcode::kPowF: return "pow.f";
    case Opcode::kFminF: return "fmin.f";
    case Opcode::kFmaxF: return "fmax.f";
    case Opcode::kFloorF: return "floor.f";
    case Opcode::kCeilF: return "ceil.f";
    case Opcode::kCmpLtI: return "cmplt.i";
    case Opcode::kCmpLeI: return "cmple.i";
    case Opcode::kCmpEqI: return "cmpeq.i";
    case Opcode::kCmpNeI: return "cmpne.i";
    case Opcode::kCmpLtF: return "cmplt.f";
    case Opcode::kCmpLeF: return "cmple.f";
    case Opcode::kCmpEqF: return "cmpeq.f";
    case Opcode::kCmpNeF: return "cmpne.f";
    case Opcode::kTruncI32: return "trunc.i32";
    case Opcode::kRoundF32: return "round.f32";
    case Opcode::kI2F: return "i2f";
    case Opcode::kF2I: return "f2i";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kDirtyMark: return "dirty.mark";
    case Opcode::kRedScalar: return "red.scalar";
    case Opcode::kRedArray: return "red.array";
    case Opcode::kBr: return "br";
    case Opcode::kBrIf: return "br.if";
    case Opcode::kBrIfNot: return "br.ifnot";
    case Opcode::kRet: return "ret";
  }
  return "?";
}

int KernelIR::FindArray(const std::string& name) const {
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (arrays[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int KernelIR::FindScalar(const std::string& name) const {
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (scalars[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool IsBranch(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kBrIf || op == Opcode::kBrIfNot;
}

bool ProducesValue(Opcode op) {
  switch (op) {
    case Opcode::kStore:
    case Opcode::kDirtyMark:
    case Opcode::kRedScalar:
    case Opcode::kRedArray:
    case Opcode::kBr:
    case Opcode::kBrIf:
    case Opcode::kBrIfNot:
    case Opcode::kRet:
      return false;
    default:
      return true;
  }
}

namespace {

bool HasFloatImm(Opcode op) { return op == Opcode::kConstF; }

}  // namespace

std::string Print(const KernelIR& kernel) {
  std::ostringstream os;
  os << "kernel " << kernel.name << "(";
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    const auto& a = kernel.arrays[i];
    if (i != 0) os << ", ";
    os << ValTypeName(a.elem) << "* " << a.name;
    if (a.dirty_tracked) os << " /*dirty*/";
    if (a.miss_checked) os << " /*miss-check*/";
  }
  for (const auto& s : kernel.scalars) {
    os << ", " << ValTypeName(s.type) << " " << s.name;
  }
  os << ") regs=" << kernel.num_regs << " tid=r" << kernel.thread_id_reg
     << "\n";
  for (const auto& red : kernel.scalar_reductions) {
    os << "  reduce " << RedOpName(red.op) << " " << ValTypeName(red.type)
       << " " << red.name << "\n";
  }
  for (const auto& red : kernel.array_reductions) {
    os << "  reduce-to-array " << RedOpName(red.op) << " "
       << ValTypeName(red.type) << " " << red.name << "\n";
  }
  for (std::size_t pc = 0; pc < kernel.code.size(); ++pc) {
    const Instr& in = kernel.code[pc];
    os << "  " << pc << ": " << OpcodeName(in.op);
    if (in.dst >= 0) os << " r" << in.dst;
    if (in.arr >= 0) os << " @" << kernel.arrays[static_cast<std::size_t>(in.arr)].name;
    if (in.a >= 0) os << " r" << in.a;
    if (in.b >= 0) os << " r" << in.b;
    if (IsBranch(in.op)) {
      os << " -> " << in.imm.i;
    } else if (HasFloatImm(in.op)) {
      // Shortest text that reads back as the same double.
      char text[32];
      const auto end = std::to_chars(text, text + sizeof(text), in.imm.f).ptr;
      os << " #" << std::string_view(text, static_cast<std::size_t>(end - text));
    } else if (in.op == Opcode::kConstI || in.op == Opcode::kRedScalar ||
               in.op == Opcode::kRedArray) {
      os << " #" << in.imm.i;
    }
    os << "\n";
  }
  return os.str();
}

void VerifySignature(const KernelIR& kernel) {
  ACCMG_CHECK(!kernel.code.empty(), "kernel '" + kernel.name + "' has no code");
  ACCMG_CHECK(kernel.num_regs > 0, "kernel has no registers");
  ACCMG_CHECK(kernel.thread_id_reg >= 0 &&
                  kernel.thread_id_reg < kernel.num_regs,
              "thread id register out of range");
  // Scalar s is pre-loaded into register thread_id_reg + 1 + s.
  ACCMG_CHECK(kernel.thread_id_reg + 1 +
                      static_cast<std::int64_t>(kernel.scalars.size()) <=
                  kernel.num_regs,
              "scalar parameter registers out of range");
  // Last instruction must terminate (fallthrough off the end is a bug).
  const Opcode last = kernel.code.back().op;
  ACCMG_CHECK(last == Opcode::kRet || last == Opcode::kBr,
              "kernel code must end in ret or br");
  for (const auto& red : kernel.array_reductions) {
    ACCMG_CHECK(red.array_index >= 0 &&
                    red.array_index <
                        static_cast<int>(kernel.arrays.size()),
                "array reduction destination out of range");
  }
}

void VerifyInstr(const KernelIR& kernel, std::size_t pc) {
  const auto n_code = static_cast<std::int64_t>(kernel.code.size());
  auto check_reg = [&](std::int32_t r, const char* what) {
    ACCMG_CHECK(r >= 0 && r < kernel.num_regs,
                std::string("register out of range for ") + what);
  };
  auto check_arr = [&](std::int32_t arr, const char* what) {
    ACCMG_CHECK(
        arr >= 0 && arr < static_cast<std::int32_t>(kernel.arrays.size()),
        std::string(what) + " array index out of range");
  };
  const Instr& in = kernel.code[pc];
  switch (in.op) {
    case Opcode::kConstI:
    case Opcode::kConstF:
      check_reg(in.dst, "const dst");
      break;
    case Opcode::kMov:
    case Opcode::kNegI:
    case Opcode::kNotI:
    case Opcode::kAbsI:
    case Opcode::kNegF:
    case Opcode::kSqrtF:
    case Opcode::kFabsF:
    case Opcode::kExpF:
    case Opcode::kLogF:
    case Opcode::kFloorF:
    case Opcode::kCeilF:
    case Opcode::kTruncI32:
    case Opcode::kRoundF32:
    case Opcode::kI2F:
    case Opcode::kF2I:
      check_reg(in.dst, "unary dst");
      check_reg(in.a, "unary src");
      break;
    case Opcode::kAddI: case Opcode::kSubI: case Opcode::kMulI:
    case Opcode::kDivI: case Opcode::kModI: case Opcode::kAndI:
    case Opcode::kOrI: case Opcode::kXorI: case Opcode::kShlI:
    case Opcode::kShrI: case Opcode::kMinI: case Opcode::kMaxI:
    case Opcode::kAddF: case Opcode::kSubF: case Opcode::kMulF:
    case Opcode::kDivF: case Opcode::kPowF: case Opcode::kFminF:
    case Opcode::kFmaxF:
    case Opcode::kCmpLtI: case Opcode::kCmpLeI: case Opcode::kCmpEqI:
    case Opcode::kCmpNeI: case Opcode::kCmpLtF: case Opcode::kCmpLeF:
    case Opcode::kCmpEqF: case Opcode::kCmpNeF:
      check_reg(in.dst, "binary dst");
      check_reg(in.a, "binary lhs");
      check_reg(in.b, "binary rhs");
      break;
    case Opcode::kLoad:
      check_reg(in.dst, "load dst");
      check_reg(in.a, "load index");
      check_arr(in.arr, "load");
      break;
    case Opcode::kStore:
      check_reg(in.a, "store index");
      check_reg(in.b, "store value");
      check_arr(in.arr, "store");
      break;
    case Opcode::kDirtyMark:
      check_reg(in.a, "dirty index");
      check_arr(in.arr, "dirty");
      break;
    case Opcode::kRedScalar:
      check_reg(in.a, "reduction value");
      ACCMG_CHECK(in.imm.i >= 0 &&
                      in.imm.i < static_cast<std::int64_t>(
                                     kernel.scalar_reductions.size()),
                  "scalar reduction slot out of range");
      break;
    case Opcode::kRedArray:
      check_reg(in.a, "array reduction index");
      check_reg(in.b, "array reduction value");
      ACCMG_CHECK(in.imm.i >= 0 &&
                      in.imm.i < static_cast<std::int64_t>(
                                     kernel.array_reductions.size()),
                  "array reduction slot out of range");
      break;
    case Opcode::kBr:
    case Opcode::kBrIf:
    case Opcode::kBrIfNot:
      if (in.op != Opcode::kBr) check_reg(in.a, "branch condition");
      ACCMG_CHECK(in.imm.i >= 0 && in.imm.i < n_code,
                  "branch target out of range");
      break;
    case Opcode::kRet:
      break;
  }
}

void Verify(const KernelIR& kernel) {
  VerifySignature(kernel);
  for (std::size_t pc = 0; pc < kernel.code.size(); ++pc) {
    VerifyInstr(kernel, pc);
  }
}

}  // namespace accmg::ir
