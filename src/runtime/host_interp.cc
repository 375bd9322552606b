#include "runtime/host_interp.h"

#include <algorithm>
#include <unordered_set>

#include "common/error.h"
#include "common/log.h"
#include "common/trace.h"
#include "frontend/sema.h"
#include "runtime/recovery.h"
#include "translator/type_map.h"

namespace accmg::runtime {

using frontend::As;
using frontend::DataClauseKind;
using frontend::Directive;
using frontend::DirectiveKind;
using frontend::ExprKind;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::VarDecl;
using translator::EvalHostExpr;
using translator::EvalIndexExpr;
using translator::HostArray;
using translator::HostEnv;
using translator::TypedValue;

HostInterpreter::HostInterpreter(ProgramRunner& runner,
                                 const translator::CompiledFunction& fn)
    : runner_(runner), fn_(fn) {
  // The CPU baseline (use_cpu) runs offloads by RunOffloadOnCpu instead.
  if (!runner_.config_.use_cpu) {
    sim::Platform& platform = *runner_.config_.platform;
    // An explicit device lease (service/arena.h) overrides the default
    // [0, num_gpus) prefix; the Executor validates the ids.
    std::vector<int> devices = runner_.config_.devices;
    if (devices.empty()) {
      ACCMG_REQUIRE(runner_.config_.num_gpus >= 1 &&
                        runner_.config_.num_gpus <= platform.num_devices(),
                    "num_gpus out of range for the platform");
      for (int d = 0; d < runner_.config_.num_gpus; ++d) devices.push_back(d);
    }
    gpu_ = std::make_unique<Executor>(platform, runner_.config_.options,
                                      std::move(devices));
    if (runner_.config_.options.async_pipeline) {
      depgraph_ = BuildDepGraph(fn_);
      gpu_->set_depgraph(&depgraph_);
    }
  }
}

const VarDecl* HostInterpreter::FindParam(const std::string& name) const {
  for (const auto& param : fn_.function->params) {
    if (param->name == name) return param.get();
  }
  return nullptr;
}

translator::HostArray HostInterpreter::HostArrayOf(const VarDecl& decl) {
  auto it = runner_.array_bindings_.find(decl.name);
  ACCMG_REQUIRE(it != runner_.array_bindings_.end(),
                "no host binding for array parameter '" + decl.name + "'");
  return it->second;
}

ManagedArray* HostInterpreter::FindManaged(const VarDecl& decl) {
  auto it = managed_.find(decl.id);
  return it == managed_.end() ? nullptr : it->second.get();
}

ManagedArray& HostInterpreter::Managed(const VarDecl& decl) {
  ManagedArray* existing = FindManaged(decl);
  ACCMG_CHECK(existing != nullptr,
              "array '" + decl.name + "' is not in a data region");
  return *existing;
}

RunReport HostInterpreter::Run() {
  trace::JobScope job_scope(runner_.config_.options.job_id);
  trace::Span run_span("run:" + fn_.function->name, trace::category::kHost);
  sim::Platform& platform = *runner_.config_.platform;
  platform.ResetAccounting();
  report_ = RunReport{};
  if (gpu_ != nullptr) gpu_->BeginRun();

  // Bind parameters.
  for (const auto& param : fn_.function->params) {
    if (param->type.is_pointer) {
      const HostArray host = HostArrayOf(*param);
      env_.BindArray(*param, host);
    } else {
      auto it = runner_.scalar_bindings_.find(param->name);
      ACCMG_REQUIRE(it != runner_.scalar_bindings_.end(),
                    "no binding for scalar parameter '" + param->name + "'");
      env_.SetScalar(*param, it->second);
    }
  }

  for (const auto& stmt : fn_.function->body->body) {
    if (ExecStmt(*stmt) == Flow::kReturn) break;
  }

  // Drain pipelined communication the program never waited on, so the
  // report's simulated time covers the full schedule.
  if (gpu_ != nullptr) gpu_->FinishPendingComm();

  // Any data regions still open (shouldn't happen) — close them.
  // Record final scalar values for ScalarAfterRun.
  runner_.scalar_results_.clear();
  for (const auto& param : fn_.function->params) {
    if (!param->type.is_pointer && env_.HasScalar(*param)) {
      runner_.scalar_results_[param->name] = env_.GetScalar(*param);
    }
  }

  report_.time = platform.clock().breakdown();
  report_.counters = platform.counters();
  report_.total_seconds = report_.time.Total();
  if (gpu_ != nullptr) {
    report_.loader = gpu_->loader().stats();
    report_.comm = gpu_->comm().stats();
    report_.kernel_executions = gpu_->stats().offload_runs;
    report_.kernel_stats = gpu_->stats().kernels;
    if (gpu_->validator() != nullptr) {
      report_.validator = gpu_->validator()->stats();
    }
  }
  return report_;
}

HostInterpreter::Flow HostInterpreter::ExecStmt(const Stmt& stmt) {
  // Per-statement interrupt point: a watchdog cancel or an expired
  // simulated deadline surfaces here as JobTimeoutError even when the
  // program never offloads again.
  if (gpu_ != nullptr) gpu_->CheckInterrupts();

  // 1. Directives that wrap or precede the statement.
  std::vector<RegionEntry> region;
  bool has_data_region = false;
  for (const auto& directive : stmt.directives) {
    switch (directive.kind) {
      case DirectiveKind::kData:
        if (gpu_ != nullptr) {
          EnterDataRegion(directive, region);
          has_data_region = true;
        }
        break;
      case DirectiveKind::kUpdate:
        if (gpu_ != nullptr) ApplyUpdate(directive);
        break;
      case DirectiveKind::kEnterData:
        if (gpu_ != nullptr) EnterDataUnstructured(directive);
        break;
      case DirectiveKind::kExitData:
        if (gpu_ != nullptr) ExitDataUnstructured(directive);
        break;
      default:
        break;  // parallel/loop/localaccess handled via offload table
    }
  }

  const Flow flow = ExecBody(stmt);

  if (has_data_region) ExitDataRegion(region);
  return flow;
}

HostInterpreter::Flow HostInterpreter::ExecBody(const Stmt& stmt) {
  // A loop the mid-end fused into a preceding offload already ran as part
  // of that offload's kernel; its statement is a no-op here.
  if (fn_.fused_away.count(&stmt) != 0) return Flow::kNext;

  // Offloaded loop?
  auto offload_it = fn_.offload_of_stmt.find(&stmt);
  if (offload_it != fn_.offload_of_stmt.end()) {
    RunOffloadStmt(As<frontend::ForStmt>(stmt), offload_it->second);
    return Flow::kNext;
  }

  // Host statement: keep host copies coherent first.
  if (gpu_ != nullptr) SyncForHostAccess(stmt);

  switch (stmt.kind) {
    case StmtKind::kDecl: {
      const auto& decl_stmt = As<frontend::DeclStmt>(stmt);
      TypedValue value{};
      const ir::ValType t =
          translator::TypedValue::OfInt(0).type;  // placeholder
      (void)t;
      if (decl_stmt.init != nullptr) {
        value = EvalHostExpr(*decl_stmt.init, env_);
      }
      // Convert to the declared type.
      if (frontend::IsFloatType(decl_stmt.decl->type.scalar)) {
        value = TypedValue::OfDouble(
            value.AsDouble(),
            translator::ToValType(decl_stmt.decl->type.scalar));
      } else {
        value = TypedValue::OfInt(
            value.AsInt(), translator::ToValType(decl_stmt.decl->type.scalar));
      }
      env_.SetScalar(*decl_stmt.decl, value);
      return Flow::kNext;
    }
    case StmtKind::kAssign:
      ExecAssign(As<frontend::AssignStmt>(stmt));
      return Flow::kNext;
    case StmtKind::kExpr:
      if (As<frontend::ExprStmt>(stmt).expr != nullptr) {
        EvalHostExpr(*As<frontend::ExprStmt>(stmt).expr, env_);
      }
      return Flow::kNext;
    case StmtKind::kIf: {
      const auto& if_stmt = As<frontend::IfStmt>(stmt);
      if (EvalHostExpr(*if_stmt.cond, env_).AsInt() != 0) {
        return ExecStmt(*if_stmt.then_stmt);
      }
      if (if_stmt.else_stmt != nullptr) return ExecStmt(*if_stmt.else_stmt);
      return Flow::kNext;
    }
    case StmtKind::kFor: {
      const auto& for_stmt = As<frontend::ForStmt>(stmt);
      if (for_stmt.init != nullptr) ExecStmt(*for_stmt.init);
      while (for_stmt.cond == nullptr ||
             EvalHostExpr(*for_stmt.cond, env_).AsInt() != 0) {
        // Re-sync per iteration: the loop condition and body may touch
        // managed arrays whose device copies advanced.
        const Flow flow = ExecStmt(*for_stmt.body);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn) return Flow::kReturn;
        if (for_stmt.step != nullptr) ExecStmt(*for_stmt.step);
        if (gpu_ != nullptr && for_stmt.cond != nullptr) {
          SyncForHostAccess(stmt);
        }
      }
      return Flow::kNext;
    }
    case StmtKind::kWhile: {
      const auto& while_stmt = As<frontend::WhileStmt>(stmt);
      bool first = true;
      while (true) {
        if (!(first && while_stmt.is_do_while) &&
            EvalHostExpr(*while_stmt.cond, env_).AsInt() == 0) {
          break;
        }
        first = false;
        const Flow flow = ExecStmt(*while_stmt.body);
        if (flow == Flow::kBreak) break;
        if (flow == Flow::kReturn) return Flow::kReturn;
        if (gpu_ != nullptr) SyncForHostAccess(stmt);
      }
      return Flow::kNext;
    }
    case StmtKind::kCompound:
      for (const auto& child : As<frontend::CompoundStmt>(stmt).body) {
        const Flow flow = ExecStmt(*child);
        if (flow != Flow::kNext) return flow;
      }
      return Flow::kNext;
    case StmtKind::kReturn:
      return Flow::kReturn;
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
  }
  return Flow::kNext;
}

void HostInterpreter::ExecAssign(const frontend::AssignStmt& stmt) {
  TypedValue value = EvalHostExpr(*stmt.value, env_);
  if (stmt.target->kind == ExprKind::kVarRef) {
    const auto& ref = As<frontend::VarRef>(*stmt.target);
    TypedValue result = value;
    if (stmt.op != frontend::AssignOp::kAssign) {
      const TypedValue current = env_.GetScalar(*ref.decl);
      const bool fp = ir::IsFloat(current.type);
      double d = current.AsDouble();
      std::int64_t i = current.AsInt();
      switch (stmt.op) {
        case frontend::AssignOp::kAddAssign:
          d += value.AsDouble();
          i += value.AsInt();
          break;
        case frontend::AssignOp::kSubAssign:
          d -= value.AsDouble();
          i -= value.AsInt();
          break;
        case frontend::AssignOp::kMulAssign:
          d *= value.AsDouble();
          i *= value.AsInt();
          break;
        case frontend::AssignOp::kDivAssign:
          d /= value.AsDouble();
          if (value.AsInt() != 0) i /= value.AsInt();
          break;
        default:
          break;
      }
      result = fp ? TypedValue::OfDouble(d, current.type)
                  : TypedValue::OfInt(i, current.type);
    } else {
      const ir::ValType t = translator::ToValType(ref.decl->type.scalar);
      result = ir::IsFloat(t) ? TypedValue::OfDouble(value.AsDouble(), t)
                              : TypedValue::OfInt(value.AsInt(), t);
    }
    env_.SetScalar(*ref.decl, result);
    return;
  }

  const auto& subscript = As<frontend::SubscriptExpr>(*stmt.target);
  const auto& base = As<frontend::VarRef>(*subscript.base);
  const HostArray array = env_.GetArray(*base.decl);
  const std::int64_t index = EvalIndexExpr(*subscript.index, env_);
  if (stmt.op != frontend::AssignOp::kAssign) {
    // Compound: read-modify-write on the host element.
    HostEnv scratch;
    const TypedValue current = EvalHostExpr(*stmt.target, env_);
    (void)scratch;
    double d = current.AsDouble();
    std::int64_t i = current.AsInt();
    switch (stmt.op) {
      case frontend::AssignOp::kAddAssign:
        d += value.AsDouble();
        i += value.AsInt();
        break;
      case frontend::AssignOp::kSubAssign:
        d -= value.AsDouble();
        i -= value.AsInt();
        break;
      case frontend::AssignOp::kMulAssign:
        d *= value.AsDouble();
        i *= value.AsInt();
        break;
      case frontend::AssignOp::kDivAssign:
        d /= value.AsDouble();
        if (value.AsInt() != 0) i /= value.AsInt();
        break;
      default:
        break;
    }
    value = ir::IsFloat(current.type) ? TypedValue::OfDouble(d, current.type)
                                      : TypedValue::OfInt(i, current.type);
  }
  translator::WriteHostElement(array, index, value, base.name);
}

void HostInterpreter::RunOffloadStmt(const frontend::ForStmt& loop,
                                     int offload_index) {
  (void)loop;  // the offload table already carries everything we need
  const translator::LoopOffload& offload =
      fn_.offloads[static_cast<std::size_t>(offload_index)];

  if (gpu_ == nullptr) {
    RunOffloadOnCpu(*runner_.config_.platform, offload, env_,
                    [this](const VarDecl& decl) { return HostArrayOf(decl); });
    return;
  }

  // Arrays used by the kernel but not in any enclosing data region get an
  // implicit per-region lifetime (OpenACC present_or_copy semantics).
  std::vector<const VarDecl*> implicit;
  for (const auto& config : offload.arrays) {
    if (FindManaged(*config.decl) == nullptr) {
      const HostArray host = HostArrayOf(*config.decl);
      managed_[config.decl->id] = std::make_unique<ManagedArray>(
          config.decl->name, host.elem, host.count, host.data,
          runner_.config_.platform->num_devices());
      implicit.push_back(config.decl);
    }
  }

  gpu_->RunOffload(offload, env_, [this](const VarDecl& decl) -> ManagedArray& {
    return Managed(decl);
  });
  UpdateMemoryPeaks();

  // The implicit-array gathers are host accesses; under the pipeline
  // everything else stays in flight so the next offload can pipeline
  // behind it.
  if (implicit.empty()) return;
  gpu_->FinishPendingComm();
  double end = runner_.config_.platform->clock().Now();
  for (const VarDecl* decl : implicit) {
    ManagedArray& array = *managed_[decl->id];
    end = std::max(end, GuardedGather(array));
    array.DropDeviceState();
    managed_.erase(decl->id);
  }
  gpu_->EndStage(sim::TimeCategory::kCpuGpu, end);
}

void HostInterpreter::EnterDataRegion(const Directive& directive,
                                      std::vector<RegionEntry>& entries) {
  for (const auto& clause : directive.data_clauses) {
    for (const auto& section : clause.sections) {
      const VarDecl* decl = FindParam(section.name);
      ACCMG_REQUIRE(decl != nullptr && decl->type.is_pointer,
                    "data clause names unknown array '" + section.name + "'");
      if (clause.kind == frontend::DataClauseKind::kPresent) {
        // present(): assert an enclosing region established the lifetime.
        ACCMG_REQUIRE(FindManaged(*decl) != nullptr,
                      "present clause: array '" + section.name +
                          "' is not in any enclosing data region");
        continue;
      }
      ACCMG_REQUIRE(FindManaged(*decl) == nullptr,
                    "array '" + section.name +
                        "' is already in an enclosing data region");
      const HostArray host = HostArrayOf(*decl);
      std::int64_t count = host.count;
      std::int64_t shape_rows = 0, shape_cols = 0;
      if (section.lower != nullptr) {
        const std::int64_t lo = EvalIndexExpr(*section.lower, env_);
        ACCMG_REQUIRE(lo == 0, "array sections must start at 0");
        count = EvalIndexExpr(*section.length, env_);
        if (section.lower2 != nullptr) {
          // 2-D section u[0:rows][0:cols]: a row-major grid flattened to
          // rows*cols contiguous elements.
          const std::int64_t lo2 = EvalIndexExpr(*section.lower2, env_);
          ACCMG_REQUIRE(lo2 == 0, "array sections must start at 0");
          shape_rows = count;
          shape_cols = EvalIndexExpr(*section.length2, env_);
          ACCMG_REQUIRE(shape_rows >= 1 && shape_cols >= 1,
                        "2-D array section dimensions must be >= 1");
          count = shape_rows * shape_cols;
        }
        ACCMG_REQUIRE(count >= 1 && count <= host.count,
                      "array section exceeds the bound host storage");
      }
      managed_[decl->id] = std::make_unique<ManagedArray>(
          decl->name, host.elem, count, host.data,
          runner_.config_.platform->num_devices());
      if (shape_cols > 0) managed_[decl->id]->SetShape(shape_rows, shape_cols);
      entries.push_back(RegionEntry{decl, clause.kind, false});
    }
  }
}

void HostInterpreter::ExitDataRegion(const std::vector<RegionEntry>& entries) {
  // Region exit is a host synchronization point: outstanding pipelined
  // communication must land before the arrays are gathered and released.
  gpu_->FinishPendingComm();
  double end = runner_.config_.platform->clock().Now();
  for (const auto& entry : entries) {
    ManagedArray& array = Managed(*entry.decl);
    if (entry.clause == DataClauseKind::kCopy ||
        entry.clause == DataClauseKind::kCopyOut) {
      end = std::max(end, GuardedGather(array));
    }
    array.DropDeviceState();
    managed_.erase(entry.decl->id);
  }
  gpu_->EndStage(sim::TimeCategory::kCpuGpu, end);
}

void HostInterpreter::EnterDataUnstructured(const Directive& directive) {
  // `enter data`: lifetimes begin here and persist until a matching
  // `exit data` (or the end of the run).
  std::vector<RegionEntry> entries;
  EnterDataRegion(directive, entries);
  // The entries map is all we need — unstructured lifetimes are tracked by
  // the managed_ registry itself; nothing closes them automatically.
}

void HostInterpreter::ExitDataUnstructured(const Directive& directive) {
  gpu_->FinishPendingComm();
  double end = runner_.config_.platform->clock().Now();
  for (const auto& clause : directive.data_clauses) {
    for (const auto& section : clause.sections) {
      const VarDecl* decl = FindParam(section.name);
      ACCMG_REQUIRE(decl != nullptr,
                    "exit data names unknown array '" + section.name + "'");
      ManagedArray* array = FindManaged(*decl);
      ACCMG_REQUIRE(array != nullptr,
                    "exit data: '" + section.name +
                        "' is not in any data region");
      if (clause.kind == frontend::DataClauseKind::kCopyOut) {
        end = std::max(end, GuardedGather(*array));
      }
      array->DropDeviceState();
      managed_.erase(decl->id);
    }
  }
  gpu_->EndStage(sim::TimeCategory::kCpuGpu, end);
}

void HostInterpreter::ApplyUpdate(const Directive& directive) {
  gpu_->FinishPendingComm();
  double end = runner_.config_.platform->clock().Now();
  for (const auto& update : directive.updates) {
    for (const auto& section : update.sections) {
      const VarDecl* decl = FindParam(section.name);
      ACCMG_REQUIRE(decl != nullptr,
                    "update names unknown array '" + section.name + "'");
      ManagedArray* array = FindManaged(*decl);
      if (array == nullptr) continue;  // not on any device: nothing to move
      if (update.to_host) {
        end = std::max(end, GuardedGather(*array));
      } else {
        end = std::max(end, GuardedScatter(*array));
      }
    }
  }
  gpu_->EndStage(sim::TimeCategory::kCpuGpu, end);
}

void HostInterpreter::SyncForHostAccess(const Stmt& stmt) {
  // Shallow: nested statements sync when they execute. Every array the
  // statement touches is gathered; the ones it stores to become host-owned.
  std::unordered_set<const VarDecl*> touched;
  std::unordered_set<const VarDecl*> writes;
  frontend::ForEachArrayAccess(
      stmt, [&](const frontend::SubscriptExpr& sub, frontend::Access access) {
        const VarDecl* decl = As<frontend::VarRef>(*sub.base).decl;
        touched.insert(decl);
        if (access != frontend::Access::kRead) writes.insert(decl);
      });
  bool moved = false;
  double end = runner_.config_.platform->clock().Now();
  for (const VarDecl* decl : touched) {
    ManagedArray* array = FindManaged(*decl);
    if (array == nullptr) continue;
    if (!array->host_valid()) {
      // First gather is a host synchronization point under the pipeline.
      if (!moved) gpu_->FinishPendingComm();
      end = std::max(end, GuardedGather(*array));
      moved = true;
    }
  }
  for (const VarDecl* decl : writes) {
    ManagedArray* array = FindManaged(*decl);
    if (array == nullptr) continue;
    // Host becomes authoritative; device copies are stale.
    for (int d = 0; d < array->num_shards(); ++d) {
      array->shard(d).valid = false;
    }
    array->set_host_valid(true);
  }
  if (moved) gpu_->EndStage(sim::TimeCategory::kCpuGpu, end);
}

double HostInterpreter::GuardedGather(ManagedArray& array) {
  return RetryTransfer(*runner_.config_.platform, "gather",
                       [&] { return gpu_->loader().GatherToHost(array); });
}

double HostInterpreter::GuardedScatter(ManagedArray& array) {
  return RetryTransfer(*runner_.config_.platform, "scatter",
                       [&] { return gpu_->loader().ScatterFromHost(array); });
}

void HostInterpreter::UpdateMemoryPeaks() {
  std::size_t user = 0;
  std::size_t system = 0;
  for (const auto& [id, array] : managed_) {
    user += array->UserBytes();
    system += array->SystemBytes();
  }
  report_.peak_user_bytes = std::max(report_.peak_user_bytes, user);
  report_.peak_system_bytes = std::max(report_.peak_system_bytes, system);
}

}  // namespace accmg::runtime
