#include "translator/cuda_codegen.h"

#include <charconv>
#include <sstream>

#include "common/error.h"
#include "frontend/ast.h"

namespace accmg::translator {

using frontend::As;
using frontend::Expr;
using frontend::ExprKind;
using frontend::Stmt;
using frontend::StmtKind;

namespace {

const char* CudaTypeName(frontend::ScalarType t) {
  switch (t) {
    case frontend::ScalarType::kInt32: return "int";
    case frontend::ScalarType::kInt64: return "long long";
    case frontend::ScalarType::kFloat32: return "float";
    case frontend::ScalarType::kFloat64: return "double";
    case frontend::ScalarType::kVoid: return "void";
  }
  return "?";
}

class KernelEmitter {
 public:
  explicit KernelEmitter(const LoopOffload& offload) : offload_(offload) {}

  std::string Emit() {
    EmitSignature();
    Line("{");
    ++indent_;
    Line("const long long " + offload_.induction->name +
         " = iter_lo + (long long)blockIdx.x * blockDim.x + threadIdx.x;");
    Line("if (" + offload_.induction->name + " >= iter_hi) return;");
    EmitReductionPrologue();
    if (offload_.fused.empty()) {
      EmitStmt(*offload_.loop->body);
    } else {
      // Fused offload: constituent bodies run back to back, each in its own
      // scope with its induction variable aliased to the shared one.
      for (const auto& part : offload_.fused) {
        Line("{");
        ++indent_;
        if (part.induction->name != offload_.induction->name) {
          Line("const long long " + part.induction->name + " = " +
               offload_.induction->name + ";");
        }
        EmitStmt(*part.loop->body);
        --indent_;
        Line("}");
      }
    }
    EmitReductionEpilogue();
    --indent_;
    Line("}");
    return out_.str();
  }

 private:
  void Line(const std::string& text) {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << text << '\n';
  }

  const ArrayConfig& ConfigOf(const frontend::VarDecl& decl) const {
    for (const auto& config : offload_.arrays) {
      if (config.decl == &decl) return config;
    }
    ACCMG_UNREACHABLE("array missing from offload");
  }

  const ir::ArrayParam& ParamOf(const ArrayConfig& config) const {
    return offload_.kernel
        .arrays[static_cast<std::size_t>(config.kernel_array_index)];
  }

  void EmitSignature() {
    out_ << "__global__ void " << offload_.name << "(\n";
    std::vector<std::string> params;
    for (const auto& config : offload_.arrays) {
      const auto& param = ParamOf(config);
      std::string decl = std::string("    ") +
                         CudaTypeName(config.decl->type.scalar) + "* " +
                         config.name + ", long long " + config.name + "_lo";
      if (param.miss_checked) {
        decl += ", long long " + config.name + "_own_lo, long long " +
                config.name + "_own_hi, accmg_miss_record* " + config.name +
                "_missbuf, int* " + config.name + "_misscount";
      }
      if (param.dirty_tracked) {
        // The level-2 chunk size is the loader's (its dirty_chunk_bytes
        // over the element size), known only at launch.
        decl += ", unsigned char* " + config.name +
                "_dirty1, unsigned char* " + config.name +
                "_dirty2, long long " + config.name + "_chunk_elems";
      }
      params.push_back(decl);
    }
    for (const auto& red : offload_.array_reds) {
      params.push_back(std::string("    ") +
                       CudaTypeName(red.decl->type.scalar) + "* " +
                       red.decl->name + "_partial, long long " +
                       red.decl->name + "_red_lo");
    }
    for (const auto& red : offload_.scalar_reds) {
      params.push_back(std::string("    ") +
                       CudaTypeName(red.decl->type.scalar) + "* " +
                       red.decl->name + "_partial");
    }
    for (const auto& scalar : offload_.scalars) {
      params.push_back(std::string("    ") +
                       CudaTypeName(scalar.decl->type.scalar) + " " +
                       scalar.decl->name);
    }
    params.push_back("    long long iter_lo, long long iter_hi");
    for (std::size_t i = 0; i < params.size(); ++i) {
      out_ << params[i] << (i + 1 < params.size() ? ",\n" : ")\n");
    }
  }

  void EmitReductionPrologue() {
    for (const auto& red : offload_.scalar_reds) {
      const char* identity =
          red.op == ir::RedOp::kAdd   ? "0"
          : red.op == ir::RedOp::kMul ? "1"
          : red.op == ir::RedOp::kMin ? "ACCMG_TYPE_MAX"
                                      : "ACCMG_TYPE_MIN";
      Line(std::string(CudaTypeName(red.decl->type.scalar)) + " " +
           red.decl->name + "_priv = " + identity +
           ";  /* privatized; combined per block, per GPU, across GPUs */");
    }
  }

  void EmitReductionEpilogue() {
    for (const auto& red : offload_.scalar_reds) {
      Line("accmg_block_reduce_" + std::string(ir::RedOpName(red.op)) + "(" +
           red.decl->name + "_partial, " + red.decl->name + "_priv);");
    }
  }

  // --- expressions ---

  std::string EmitExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kIntLiteral:
        return std::to_string(As<frontend::IntLiteral>(expr).value);
      case ExprKind::kFloatLiteral: {
        const auto& lit = As<frontend::FloatLiteral>(expr);
        // Shortest text that reads back as the same double, so the kernel
        // computes with the value the engine uses.
        char buf[32];
        const auto result = std::to_chars(buf, buf + sizeof(buf), lit.value);
        std::string text(buf, result.ptr);
        if (text.find('.') == std::string::npos &&
            text.find('e') == std::string::npos) {
          text += ".0";
        }
        if (lit.is_float32) text += "f";
        return text;
      }
      case ExprKind::kVarRef:
        return As<frontend::VarRef>(expr).name;
      case ExprKind::kSubscript: {
        const auto& subscript = As<frontend::SubscriptExpr>(expr);
        const auto& base = As<frontend::VarRef>(*subscript.base);
        // Layout rewriting: subscripts are global indices, the per-GPU
        // segment starts at <name>_lo (paper Section IV-B3).
        return base.name + "[(" + EmitExpr(*subscript.index) + ") - " +
               base.name + "_lo]";
      }
      case ExprKind::kUnary: {
        const auto& unary = As<frontend::UnaryExpr>(expr);
        return std::string(frontend::UnaryOpSpelling(unary.op)) + "(" +
               EmitExpr(*unary.operand) + ")";
      }
      case ExprKind::kBinary: {
        const auto& binary = As<frontend::BinaryExpr>(expr);
        return "(" + EmitExpr(*binary.lhs) + " " +
               frontend::BinaryOpSpelling(binary.op) + " " +
               EmitExpr(*binary.rhs) + ")";
      }
      case ExprKind::kCall: {
        const auto& call = As<frontend::CallExpr>(expr);
        std::string out = call.callee + "(";
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          if (i != 0) out += ", ";
          out += EmitExpr(*call.args[i]);
        }
        return out + ")";
      }
      case ExprKind::kCast: {
        const auto& cast = As<frontend::CastExpr>(expr);
        return std::string("(") + CudaTypeName(cast.target.scalar) + ")(" +
               EmitExpr(*cast.operand) + ")";
      }
      case ExprKind::kConditional: {
        const auto& cond = As<frontend::ConditionalExpr>(expr);
        return "(" + EmitExpr(*cond.cond) + " ? " +
               EmitExpr(*cond.then_expr) + " : " + EmitExpr(*cond.else_expr) +
               ")";
      }
    }
    ACCMG_UNREACHABLE("bad expr kind");
  }

  // --- statements ---

  void EmitStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kDecl: {
        const auto& decl = As<frontend::DeclStmt>(stmt);
        std::string line = std::string(CudaTypeName(decl.decl->type.scalar)) +
                           " " + decl.decl->name;
        if (decl.init != nullptr) line += " = " + EmitExpr(*decl.init);
        Line(line + ";");
        break;
      }
      case StmtKind::kAssign:
        EmitAssign(As<frontend::AssignStmt>(stmt));
        break;
      case StmtKind::kExpr:
        if (As<frontend::ExprStmt>(stmt).expr != nullptr) {
          Line(EmitExpr(*As<frontend::ExprStmt>(stmt).expr) + ";");
        }
        break;
      case StmtKind::kIf: {
        const auto& if_stmt = As<frontend::IfStmt>(stmt);
        Line("if (" + EmitExpr(*if_stmt.cond) + ") {");
        ++indent_;
        EmitStmt(*if_stmt.then_stmt);
        --indent_;
        if (if_stmt.else_stmt != nullptr) {
          Line("} else {");
          ++indent_;
          EmitStmt(*if_stmt.else_stmt);
          --indent_;
        }
        Line("}");
        break;
      }
      case StmtKind::kFor: {
        const auto& for_stmt = As<frontend::ForStmt>(stmt);
        std::string header = "for (";
        if (for_stmt.init != nullptr) {
          header += InlineSimpleStmt(*for_stmt.init);
        }
        header += "; ";
        if (for_stmt.cond != nullptr) header += EmitExpr(*for_stmt.cond);
        header += "; ";
        if (for_stmt.step != nullptr) {
          header += InlineSimpleStmt(*for_stmt.step);
        }
        Line(header + ") {");
        ++indent_;
        EmitStmt(*for_stmt.body);
        --indent_;
        Line("}");
        break;
      }
      case StmtKind::kWhile: {
        const auto& while_stmt = As<frontend::WhileStmt>(stmt);
        if (while_stmt.is_do_while) {
          Line("do {");
          ++indent_;
          EmitStmt(*while_stmt.body);
          --indent_;
          Line("} while (" + EmitExpr(*while_stmt.cond) + ");");
        } else {
          Line("while (" + EmitExpr(*while_stmt.cond) + ") {");
          ++indent_;
          EmitStmt(*while_stmt.body);
          --indent_;
          Line("}");
        }
        break;
      }
      case StmtKind::kCompound:
        for (const auto& child : As<frontend::CompoundStmt>(stmt).body) {
          EmitStmt(*child);
        }
        break;
      case StmtKind::kBreak:
        Line("break;");
        break;
      case StmtKind::kContinue:
        Line("continue;");
        break;
      case StmtKind::kReturn:
        Line("return;");
        break;
    }
  }

  std::string InlineSimpleStmt(const Stmt& stmt) {
    if (stmt.kind == StmtKind::kDecl) {
      const auto& decl = As<frontend::DeclStmt>(stmt);
      std::string out = std::string(CudaTypeName(decl.decl->type.scalar)) +
                        " " + decl.decl->name;
      if (decl.init != nullptr) out += " = " + EmitExpr(*decl.init);
      return out;
    }
    if (stmt.kind == StmtKind::kAssign) {
      const auto& assign = As<frontend::AssignStmt>(stmt);
      const char* op = "=";
      switch (assign.op) {
        case frontend::AssignOp::kAssign: op = "="; break;
        case frontend::AssignOp::kAddAssign: op = "+="; break;
        case frontend::AssignOp::kSubAssign: op = "-="; break;
        case frontend::AssignOp::kMulAssign: op = "*="; break;
        case frontend::AssignOp::kDivAssign: op = "/="; break;
      }
      return EmitExpr(*assign.target) + " " + op + " " +
             EmitExpr(*assign.value);
    }
    return "/* unsupported */";
  }

  void EmitAssign(const frontend::AssignStmt& stmt) {
    if (stmt.target->kind != ExprKind::kSubscript) {
      // Scalar reduction statements appear as privatized accumulation.
      for (const auto& red : offload_.scalar_reds) {
        if (stmt.target->kind == ExprKind::kVarRef &&
            As<frontend::VarRef>(*stmt.target).decl == red.decl) {
          Line(red.decl->name + "_priv " +
               (red.op == ir::RedOp::kMul ? "*=" : "+=") + " " +
               EmitExpr(*stmt.value) + ";");
          return;
        }
      }
      Line(InlineSimpleStmt(stmt) + ";");
      return;
    }
    const auto& subscript = As<frontend::SubscriptExpr>(*stmt.target);
    const auto& base = As<frontend::VarRef>(*subscript.base);
    const ArrayConfig& config = ConfigOf(*base.decl);
    const ir::ArrayParam& param = ParamOf(config);

    // Reduction-to-array statement: accumulate into the per-GPU partial.
    for (const auto& red : offload_.array_reds) {
      if (red.decl == base.decl) {
        std::string value;
        if (stmt.op != frontend::AssignOp::kAssign) {
          value = EmitExpr(*stmt.value);
        } else if (stmt.value->kind == ExprKind::kBinary) {
          value = EmitExpr(*As<frontend::BinaryExpr>(*stmt.value).rhs);
        } else {
          value = "/* see source */";
        }
        Line("accmg_red_" + std::string(ir::RedOpName(red.op)) + "(&" +
             base.name + "_partial[(" + EmitExpr(*subscript.index) + ") - " +
             base.name + "_red_lo], " + value + ");");
        return;
      }
    }

    const std::string index = EmitExpr(*subscript.index);
    const std::string store = InlineSimpleStmt(stmt) + ";";
    if (param.miss_checked) {
      // Write-miss check (Section IV-D2): non-resident destinations are
      // buffered as (address, data) records for the comm manager.
      Line("if ((" + index + ") >= " + base.name + "_own_lo && (" + index +
           ") < " + base.name + "_own_hi) {");
      ++indent_;
      Line(store);
      --indent_;
      Line("} else {");
      ++indent_;
      Line("accmg_record_miss(" + base.name + "_missbuf, " + base.name +
           "_misscount, " + index + ", " + EmitExpr(*stmt.value) + ");");
      --indent_;
      Line("}");
      return;
    }
    Line(store);
    if (param.dirty_tracked) {
      // Two-level dirty bits (Section IV-D1).
      Line(base.name + "_dirty1[" + index + "] = 1;");
      Line(base.name + "_dirty2[(" + index + ") / " + base.name +
           "_chunk_elems] = 1;");
    }
  }

  const LoopOffload& offload_;
  std::ostringstream out_;
  int indent_ = 0;
};

}  // namespace

std::string GenerateCudaKernel(const LoopOffload& offload) {
  KernelEmitter emitter(offload);
  return emitter.Emit();
}

std::string GenerateHostSketch(const CompiledFunction& function) {
  std::ostringstream os;
  os << "/* host code generated for " << function.function->name << " */\n";
  for (const auto& offload : function.offloads) {
    os << "/* parallel loop at line " << offload.loop->loc.line << " */\n";
    os << "accmg_task_map(num_gpus, iter_lo, iter_hi, tasks);\n";
    for (const auto& config : offload.arrays) {
      const auto& param =
          offload.kernel
              .arrays[static_cast<std::size_t>(config.kernel_array_index)];
      os << "accmg_load(\"" << config.name << "\", "
         << (config.has_localaccess ? "DISTRIBUTE" : "REPLICATE");
      if (param.dirty_tracked) os << " | DIRTY_TRACK";
      if (param.miss_checked) os << " | MISS_CHECK";
      os << ");\n";
    }
    os << "for (int g = 0; g < num_gpus; ++g) {\n"
       << "  cudaSetDevice(g);\n"
       << "  " << offload.name << "<<<grid(tasks[g]), block>>>(...);\n"
       << "}\n"
       << "accmg_sync_all();\n";
    bool any_comm = false;
    for (const auto& config : offload.arrays) {
      const auto& param =
          offload.kernel
              .arrays[static_cast<std::size_t>(config.kernel_array_index)];
      if (param.dirty_tracked) {
        os << "accmg_propagate_dirty(\"" << config.name << "\");\n";
        any_comm = true;
      }
      if (param.miss_checked) {
        os << "accmg_replay_misses(\"" << config.name << "\");\n";
        any_comm = true;
      }
    }
    for (const auto& red : offload.array_reds) {
      os << "accmg_combine_array_reduction(\"" << red.decl->name << "\");\n";
      any_comm = true;
    }
    for (const auto& red : offload.scalar_reds) {
      os << "accmg_combine_scalar_reduction(\"" << red.decl->name << "\");\n";
      any_comm = true;
    }
    if (!any_comm) os << "/* no inter-GPU communication required */\n";
    os << "\n";
  }
  return os.str();
}

std::string GenerateCudaProgram(const CompiledProgram& program) {
  std::ostringstream os;
  os << "/* generated by the accmg multi-GPU OpenACC translator */\n"
     << "#include \"accmg_device_runtime.cuh\"\n\n";
  for (const auto& function : program.functions) {
    for (const auto& offload : function.offloads) {
      os << GenerateCudaKernel(offload) << "\n";
    }
    os << GenerateHostSketch(function);
  }
  return os.str();
}

}  // namespace accmg::translator
