// Host-side execution of a translated program: runs the sequential mini-C
// statements on the CPU, manages OpenACC data regions (creating ManagedArrays
// and honouring copy/copyin/copyout/create/update semantics), and dispatches
// offloaded loops to the multi-GPU Executor or the CPU baseline
// (RunOffloadOnCpu, runtime/launch.h).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/executor.h"
#include "runtime/program.h"

namespace accmg::runtime {

class HostInterpreter {
 public:
  HostInterpreter(ProgramRunner& runner, const translator::CompiledFunction& fn);

  RunReport Run();

 private:
  enum class Flow { kNext, kBreak, kContinue, kReturn };

  struct RegionEntry {
    const frontend::VarDecl* decl = nullptr;
    frontend::DataClauseKind clause{};
    bool implicit = false;  ///< created for a single parallel region
  };

  Flow ExecStmt(const frontend::Stmt& stmt);
  Flow ExecBody(const frontend::Stmt& stmt);
  void ExecAssign(const frontend::AssignStmt& stmt);
  void RunOffloadStmt(const frontend::ForStmt& loop, int offload_index);

  void EnterDataRegion(const frontend::Directive& directive,
                       std::vector<RegionEntry>& entries);
  void ExitDataRegion(const std::vector<RegionEntry>& entries);
  void EnterDataUnstructured(const frontend::Directive& directive);
  void ExitDataUnstructured(const frontend::Directive& directive);
  void ApplyUpdate(const frontend::Directive& directive);

  ManagedArray& Managed(const frontend::VarDecl& decl);
  ManagedArray* FindManaged(const frontend::VarDecl& decl);
  translator::HostArray HostArrayOf(const frontend::VarDecl& decl);
  const frontend::VarDecl* FindParam(const std::string& name) const;

  /// Before a host statement touches managed arrays: pull stale data back to
  /// the host, and invalidate device copies the statement will overwrite.
  void SyncForHostAccess(const frontend::Stmt& stmt);

  /// GatherToHost / ScatterFromHost under the fault-retry policy
  /// (runtime/recovery.h; a no-op while the injector is disarmed). These
  /// transfers run outside any offload, so the executor's checkpoint loop
  /// doesn't cover them; they are idempotent (billing precedes the memcpy)
  /// and therefore safe to re-issue as-is.
  double GuardedGather(ManagedArray& array);
  double GuardedScatter(ManagedArray& array);

  void UpdateMemoryPeaks();

  ProgramRunner& runner_;
  const translator::CompiledFunction& fn_;
  translator::HostEnv env_;
  std::unordered_map<int, std::unique_ptr<ManagedArray>> managed_;
  std::unique_ptr<Executor> gpu_;  ///< null for the CPU baseline (use_cpu)
  /// Inter-offload dependence graph of fn_, built once when the async
  /// pipeline is on; the executor holds a pointer into it.
  DepGraph depgraph_;
  RunReport report_;
};

}  // namespace accmg::runtime
