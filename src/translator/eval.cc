#include "translator/eval.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "translator/type_map.h"

namespace accmg::translator {

using frontend::As;
using frontend::Expr;
using frontend::ExprKind;

namespace {

inline double RawToDouble(std::uint64_t raw) {
  return std::bit_cast<double>(raw);
}
inline std::uint64_t DoubleToRaw(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace

std::int64_t TypedValue::AsInt() const {
  if (ir::IsFloat(type)) {
    return static_cast<std::int64_t>(RawToDouble(raw));
  }
  return static_cast<std::int64_t>(raw);
}

double TypedValue::AsDouble() const {
  if (ir::IsFloat(type)) return RawToDouble(raw);
  return static_cast<double>(static_cast<std::int64_t>(raw));
}

TypedValue TypedValue::OfInt(std::int64_t v, ir::ValType t) {
  TypedValue value;
  value.type = t;
  if (t == ir::ValType::kI32) v = static_cast<std::int32_t>(v);
  value.raw = static_cast<std::uint64_t>(v);
  return value;
}

TypedValue TypedValue::OfDouble(double v, ir::ValType t) {
  TypedValue value;
  value.type = t;
  if (t == ir::ValType::kF32) v = static_cast<float>(v);
  value.raw = DoubleToRaw(v);
  return value;
}

std::uint64_t TypedValue::ToElementBits(ir::ValType elem) const {
  switch (elem) {
    case ir::ValType::kI32:
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(AsInt()));
    case ir::ValType::kI64:
      return static_cast<std::uint64_t>(AsInt());
    case ir::ValType::kF32:
      return std::bit_cast<std::uint32_t>(static_cast<float>(AsDouble()));
    case ir::ValType::kF64:
      return DoubleToRaw(AsDouble());
  }
  ACCMG_UNREACHABLE("bad element type");
}

TypedValue TypedValue::FromElementBits(ir::ValType elem, std::uint64_t bits) {
  switch (elem) {
    case ir::ValType::kI32:
      return OfInt(static_cast<std::int32_t>(static_cast<std::uint32_t>(bits)),
                   elem);
    case ir::ValType::kI64:
      return OfInt(static_cast<std::int64_t>(bits), elem);
    case ir::ValType::kF32:
      return OfDouble(std::bit_cast<float>(static_cast<std::uint32_t>(bits)),
                      elem);
    case ir::ValType::kF64:
      return OfDouble(RawToDouble(bits), elem);
  }
  ACCMG_UNREACHABLE("bad element type");
}

void HostEnv::SetScalar(const frontend::VarDecl& decl, TypedValue value) {
  scalars_[decl.id] = value;
}

TypedValue HostEnv::GetScalar(const frontend::VarDecl& decl) const {
  auto it = scalars_.find(decl.id);
  ACCMG_REQUIRE(it != scalars_.end(),
                "unbound scalar '" + decl.name + "' in host evaluation");
  return it->second;
}

bool HostEnv::HasScalar(const frontend::VarDecl& decl) const {
  return scalars_.contains(decl.id);
}

void HostEnv::BindArray(const frontend::VarDecl& decl, HostArray array) {
  arrays_[decl.id] = array;
}

const HostArray& HostEnv::GetArray(const frontend::VarDecl& decl) const {
  auto it = arrays_.find(decl.id);
  ACCMG_REQUIRE(it != arrays_.end(),
                "unbound array '" + decl.name + "' in host evaluation");
  return it->second;
}

bool HostEnv::HasArray(const frontend::VarDecl& decl) const {
  return arrays_.contains(decl.id);
}

namespace {

TypedValue ReadHostElement(const HostArray& array, std::int64_t index,
                           const std::string& name) {
  ACCMG_REQUIRE(index >= 0 && index < array.count,
                "host read out of range: " + name + "[" +
                    std::to_string(index) + "], extent " +
                    std::to_string(array.count));
  const std::size_t size = ir::ValTypeSize(array.elem);
  std::uint64_t bits = 0;
  std::memcpy(&bits, static_cast<const std::byte*>(array.data) + index * size,
              size);
  return TypedValue::FromElementBits(array.elem, bits);
}

TypedValue ApplyBinary(frontend::BinaryOp op, const TypedValue& lhs,
                       const TypedValue& rhs, ir::ValType result_type) {
  using frontend::BinaryOp;
  const bool float_op =
      ir::IsFloat(lhs.type) || ir::IsFloat(rhs.type);
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (float_op) {
        const double x = lhs.AsDouble();
        const double y = rhs.AsDouble();
        double r = 0;
        if (op == BinaryOp::kAdd) r = x + y;
        if (op == BinaryOp::kSub) r = x - y;
        if (op == BinaryOp::kMul) r = x * y;
        if (op == BinaryOp::kDiv) r = x / y;
        return TypedValue::OfDouble(r, result_type);
      }
      const std::int64_t x = lhs.AsInt();
      const std::int64_t y = rhs.AsInt();
      std::int64_t r = 0;
      if (op == BinaryOp::kAdd) r = x + y;
      if (op == BinaryOp::kSub) r = x - y;
      if (op == BinaryOp::kMul) r = x * y;
      if (op == BinaryOp::kDiv) {
        ACCMG_REQUIRE(y != 0, "host integer division by zero");
        r = x / y;
      }
      return TypedValue::OfInt(r, result_type);
    }
    case BinaryOp::kMod: {
      const std::int64_t y = rhs.AsInt();
      ACCMG_REQUIRE(y != 0, "host integer modulo by zero");
      return TypedValue::OfInt(lhs.AsInt() % y, result_type);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      bool r = false;
      if (float_op) {
        const double x = lhs.AsDouble();
        const double y = rhs.AsDouble();
        if (op == BinaryOp::kLt) r = x < y;
        if (op == BinaryOp::kLe) r = x <= y;
        if (op == BinaryOp::kGt) r = x > y;
        if (op == BinaryOp::kGe) r = x >= y;
        if (op == BinaryOp::kEq) r = x == y;
        if (op == BinaryOp::kNe) r = x != y;
      } else {
        const std::int64_t x = lhs.AsInt();
        const std::int64_t y = rhs.AsInt();
        if (op == BinaryOp::kLt) r = x < y;
        if (op == BinaryOp::kLe) r = x <= y;
        if (op == BinaryOp::kGt) r = x > y;
        if (op == BinaryOp::kGe) r = x >= y;
        if (op == BinaryOp::kEq) r = x == y;
        if (op == BinaryOp::kNe) r = x != y;
      }
      return TypedValue::OfInt(r ? 1 : 0, ir::ValType::kI32);
    }
    case BinaryOp::kLogicalAnd:
      return TypedValue::OfInt(
          (lhs.AsInt() != 0 && rhs.AsInt() != 0) ? 1 : 0, ir::ValType::kI32);
    case BinaryOp::kLogicalOr:
      return TypedValue::OfInt(
          (lhs.AsInt() != 0 || rhs.AsInt() != 0) ? 1 : 0, ir::ValType::kI32);
    case BinaryOp::kBitAnd:
      return TypedValue::OfInt(lhs.AsInt() & rhs.AsInt(), result_type);
    case BinaryOp::kBitOr:
      return TypedValue::OfInt(lhs.AsInt() | rhs.AsInt(), result_type);
    case BinaryOp::kBitXor:
      return TypedValue::OfInt(lhs.AsInt() ^ rhs.AsInt(), result_type);
    case BinaryOp::kShl:
      return TypedValue::OfInt(lhs.AsInt() << (rhs.AsInt() & 63), result_type);
    case BinaryOp::kShr:
      return TypedValue::OfInt(lhs.AsInt() >> (rhs.AsInt() & 63), result_type);
  }
  ACCMG_UNREACHABLE("bad binary op");
}

}  // namespace

TypedValue EvalHostExpr(const Expr& expr, const HostEnv& env) {
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      return TypedValue::OfInt(As<frontend::IntLiteral>(expr).value,
                               ToValType(expr.type.scalar));
    case ExprKind::kFloatLiteral:
      return TypedValue::OfDouble(As<frontend::FloatLiteral>(expr).value,
                                  ToValType(expr.type.scalar));
    case ExprKind::kVarRef: {
      const auto& ref = As<frontend::VarRef>(expr);
      ACCMG_CHECK(ref.decl != nullptr, "unresolved VarRef in host eval");
      ACCMG_REQUIRE(!ref.decl->type.is_pointer,
                    "array '" + ref.name + "' used as a scalar value");
      return env.GetScalar(*ref.decl);
    }
    case ExprKind::kSubscript: {
      const auto& subscript = As<frontend::SubscriptExpr>(expr);
      const auto& base = As<frontend::VarRef>(*subscript.base);
      ACCMG_CHECK(base.decl != nullptr, "unresolved array in host eval");
      const HostArray& array = env.GetArray(*base.decl);
      const std::int64_t index =
          EvalHostExpr(*subscript.index, env).AsInt();
      return ReadHostElement(array, index, base.name);
    }
    case ExprKind::kUnary: {
      const auto& unary = As<frontend::UnaryExpr>(expr);
      const TypedValue operand = EvalHostExpr(*unary.operand, env);
      switch (unary.op) {
        case frontend::UnaryOp::kNeg:
          if (ir::IsFloat(operand.type)) {
            return TypedValue::OfDouble(-operand.AsDouble(),
                                        ToValType(expr.type.scalar));
          }
          return TypedValue::OfInt(-operand.AsInt(),
                                   ToValType(expr.type.scalar));
        case frontend::UnaryOp::kNot:
          return TypedValue::OfInt(operand.AsInt() == 0 ? 1 : 0,
                                   ir::ValType::kI32);
        case frontend::UnaryOp::kBitNot:
          return TypedValue::OfInt(~operand.AsInt(),
                                   ToValType(expr.type.scalar));
      }
      ACCMG_UNREACHABLE("bad unary op");
    }
    case ExprKind::kBinary: {
      const auto& binary = As<frontend::BinaryExpr>(expr);
      // Short-circuit for logical operators.
      if (binary.op == frontend::BinaryOp::kLogicalAnd) {
        if (EvalHostExpr(*binary.lhs, env).AsInt() == 0) {
          return TypedValue::OfInt(0, ir::ValType::kI32);
        }
        return TypedValue::OfInt(
            EvalHostExpr(*binary.rhs, env).AsInt() != 0 ? 1 : 0,
            ir::ValType::kI32);
      }
      if (binary.op == frontend::BinaryOp::kLogicalOr) {
        if (EvalHostExpr(*binary.lhs, env).AsInt() != 0) {
          return TypedValue::OfInt(1, ir::ValType::kI32);
        }
        return TypedValue::OfInt(
            EvalHostExpr(*binary.rhs, env).AsInt() != 0 ? 1 : 0,
            ir::ValType::kI32);
      }
      const TypedValue lhs = EvalHostExpr(*binary.lhs, env);
      const TypedValue rhs = EvalHostExpr(*binary.rhs, env);
      return ApplyBinary(binary.op, lhs, rhs, ToValType(expr.type.scalar));
    }
    case ExprKind::kCall: {
      const auto& call = As<frontend::CallExpr>(expr);
      std::vector<TypedValue> args;
      args.reserve(call.args.size());
      for (const auto& arg : call.args) {
        args.push_back(EvalHostExpr(*arg, env));
      }
      const ir::ValType rt = ToValType(expr.type.scalar);
      using frontend::Builtin;
      switch (call.builtin) {
        case Builtin::kSqrt:
          return TypedValue::OfDouble(std::sqrt(args[0].AsDouble()), rt);
        case Builtin::kFabs:
          return TypedValue::OfDouble(std::fabs(args[0].AsDouble()), rt);
        case Builtin::kExp:
          return TypedValue::OfDouble(std::exp(args[0].AsDouble()), rt);
        case Builtin::kLog:
          return TypedValue::OfDouble(std::log(args[0].AsDouble()), rt);
        case Builtin::kPow:
          return TypedValue::OfDouble(
              std::pow(args[0].AsDouble(), args[1].AsDouble()), rt);
        case Builtin::kFmin:
          return TypedValue::OfDouble(
              std::fmin(args[0].AsDouble(), args[1].AsDouble()), rt);
        case Builtin::kFmax:
          return TypedValue::OfDouble(
              std::fmax(args[0].AsDouble(), args[1].AsDouble()), rt);
        case Builtin::kFloor:
          return TypedValue::OfDouble(std::floor(args[0].AsDouble()), rt);
        case Builtin::kCeil:
          return TypedValue::OfDouble(std::ceil(args[0].AsDouble()), rt);
        case Builtin::kAbs:
          return TypedValue::OfInt(std::llabs(args[0].AsInt()), rt);
        case Builtin::kMin:
          return TypedValue::OfInt(
              std::min(args[0].AsInt(), args[1].AsInt()), rt);
        case Builtin::kMax:
          return TypedValue::OfInt(
              std::max(args[0].AsInt(), args[1].AsInt()), rt);
      }
      ACCMG_UNREACHABLE("bad builtin");
    }
    case ExprKind::kCast: {
      const auto& cast = As<frontend::CastExpr>(expr);
      const TypedValue operand = EvalHostExpr(*cast.operand, env);
      const ir::ValType target = ToValType(cast.target.scalar);
      if (ir::IsFloat(target)) {
        return TypedValue::OfDouble(operand.AsDouble(), target);
      }
      return TypedValue::OfInt(
          ir::IsFloat(operand.type)
              ? static_cast<std::int64_t>(operand.AsDouble())
              : operand.AsInt(),
          target);
    }
    case ExprKind::kConditional: {
      const auto& cond = As<frontend::ConditionalExpr>(expr);
      return EvalHostExpr(*cond.cond, env).AsInt() != 0
                 ? EvalHostExpr(*cond.then_expr, env)
                 : EvalHostExpr(*cond.else_expr, env);
    }
  }
  ACCMG_UNREACHABLE("bad expr kind");
}

std::int64_t EvalIndexExpr(const Expr& expr, const HostEnv& env) {
  return EvalHostExpr(expr, env).AsInt();
}

void WriteHostElement(const HostArray& array, std::int64_t index,
                      const TypedValue& value, const std::string& name) {
  ACCMG_REQUIRE(index >= 0 && index < array.count,
                "host write out of range: " + name + "[" +
                    std::to_string(index) + "], extent " +
                    std::to_string(array.count));
  const std::size_t size = ir::ValTypeSize(array.elem);
  const std::uint64_t bits = value.ToElementBits(array.elem);
  std::memcpy(static_cast<std::byte*>(array.data) + index * size, &bits, size);
}

bool TryFoldConstant(const Expr& expr, std::int64_t* out) {
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      *out = As<frontend::IntLiteral>(expr).value;
      return true;
    case ExprKind::kUnary: {
      const auto& unary = As<frontend::UnaryExpr>(expr);
      std::int64_t v;
      if (unary.op == frontend::UnaryOp::kNeg &&
          TryFoldConstant(*unary.operand, &v)) {
        *out = -v;
        return true;
      }
      return false;
    }
    case ExprKind::kBinary: {
      const auto& binary = As<frontend::BinaryExpr>(expr);
      std::int64_t a, b;
      if (!TryFoldConstant(*binary.lhs, &a) ||
          !TryFoldConstant(*binary.rhs, &b)) {
        return false;
      }
      switch (binary.op) {
        case frontend::BinaryOp::kAdd: *out = a + b; return true;
        case frontend::BinaryOp::kSub: *out = a - b; return true;
        case frontend::BinaryOp::kMul: *out = a * b; return true;
        case frontend::BinaryOp::kDiv:
          if (b == 0) return false;
          *out = a / b;
          return true;
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

}  // namespace accmg::translator
