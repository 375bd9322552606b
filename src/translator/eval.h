// Host-side evaluation of mini-C expressions.
//
// Used for everything executed on the CPU: loop bounds, directive clause
// expressions (localaccess stride/halo, array sections), and the sequential
// statements of translated programs between parallel regions.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "frontend/ast.h"
#include "ir/ir.h"

namespace accmg::translator {

/// A typed runtime value, stored as raw 64-bit register bits (integers
/// sign-extended to 64 bits, floats widened to double).
struct TypedValue {
  ir::ValType type = ir::ValType::kI64;
  std::uint64_t raw = 0;

  std::int64_t AsInt() const;
  double AsDouble() const;

  static TypedValue OfInt(std::int64_t v,
                          ir::ValType t = ir::ValType::kI64);
  static TypedValue OfDouble(double v, ir::ValType t = ir::ValType::kF64);

  /// The value converted to `elem` as stored element bits (the low
  /// ValTypeSize(elem) bytes; i32 zero-extended) — the layout of array
  /// memory and of ir::CombineRaw operands.
  std::uint64_t ToElementBits(ir::ValType elem) const;
  /// Inverse of ToElementBits: element bits of `elem` as a typed value.
  static TypedValue FromElementBits(ir::ValType elem, std::uint64_t bits);
};

/// A host-resident array visible to evaluated code.
struct HostArray {
  void* data = nullptr;
  ir::ValType elem{};
  std::int64_t count = 0;
};

/// Variable environment for one function activation: scalar slots keyed by
/// VarDecl::id, arrays keyed by VarDecl::id.
class HostEnv {
 public:
  void SetScalar(const frontend::VarDecl& decl, TypedValue value);
  TypedValue GetScalar(const frontend::VarDecl& decl) const;
  bool HasScalar(const frontend::VarDecl& decl) const;

  void BindArray(const frontend::VarDecl& decl, HostArray array);
  const HostArray& GetArray(const frontend::VarDecl& decl) const;
  bool HasArray(const frontend::VarDecl& decl) const;

 private:
  std::unordered_map<int, TypedValue> scalars_;
  std::unordered_map<int, HostArray> arrays_;
};

/// Evaluates `expr` against `env`. Array subscripts read host memory.
/// Throws Error on missing bindings or out-of-range subscripts.
TypedValue EvalHostExpr(const frontend::Expr& expr, const HostEnv& env);

/// Evaluates an expression that must be a (host-computable) integer.
std::int64_t EvalIndexExpr(const frontend::Expr& expr, const HostEnv& env);

/// Folds `expr` to an integer constant without an environment; returns false
/// when the expression is not a compile-time constant.
bool TryFoldConstant(const frontend::Expr& expr, std::int64_t* out);

/// Writes `value` (converted to the array's element type) into host memory.
void WriteHostElement(const HostArray& array, std::int64_t index,
                      const TypedValue& value, const std::string& name);

}  // namespace accmg::translator
