// BSP execution of one offloaded parallel loop on the multi-GPU platform
// (paper Section III-A), as five stages over one per-offload state:
//   map     split the iteration range into one contiguous task per GPU
//   place   load every array per its placement policy
//   launch  run the kernels on all GPUs (they overlap in simulated time)
//   reduce  combine scalar and array reduction partials across GPUs
//   cohere  dirty-bit propagation, write-miss replay, halo refresh
// and a global barrier closing each of place, launch and cohere.
//
// With ExecOptions::async_pipeline the barriers are replaced by per-array
// readiness times: distributed kernels with localaccess halos split into
// boundary and interior sub-tasks (runtime/depgraph.h), halo and dirty-chunk
// exchange rides the second DMA engine gated on the boundary sub-kernels,
// and the next offload's interior launches while the exchange is still in
// flight. Functional effects keep the synchronous issue order — results are
// bit-identical and billed bytes/transfer counts unchanged; only the
// simulated schedule differs.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/comm_manager.h"
#include "runtime/data_loader.h"
#include "runtime/depgraph.h"
#include "runtime/launch.h"
#include "runtime/managed_array.h"
#include "runtime/options.h"
#include "runtime/validator.h"
#include "sim/platform.h"
#include "translator/eval.h"
#include "translator/offload.h"

namespace accmg::runtime {

struct ExecutorStats {
  std::uint64_t offload_runs = 0;   ///< kernel executions (Table II column C)
  /// Dynamic kernel cost per offload name, summed over its launches on
  /// every device.
  std::map<std::string, sim::KernelStats> kernels;
};

class Executor {
 public:
  Executor(sim::Platform& platform, ExecOptions options,
           std::vector<int> devices);

  /// Executes the offloaded loop: evaluates bounds in `env`, splits the
  /// iteration space across the participating GPUs per ExecOptions::mapper,
  /// loads data per placement policy, launches the kernels, and runs the
  /// communication manager. Scalar reduction results are written back into
  /// `env`.
  ///
  /// When the platform's fault injector is armed this runs under recovery
  /// (docs/ROBUSTNESS.md): managed state is checkpointed at offload entry;
  /// an injected FaultError rolls back and retries with capped exponential
  /// backoff, a device loss shrinks the device set onto the survivors and
  /// retries without consuming the budget, and only an exhausted budget or
  /// the loss of every device escalates to the caller (typed FaultError /
  /// DeviceLostError — never a hang).
  void RunOffload(const translator::LoopOffload& offload,
                  translator::HostEnv& env, const ArrayResolver& resolve);

  /// Marks the start of one job's execution on the simulated clock;
  /// ExecOptions::deadline_sim_s is measured from here. Call once before
  /// interpreting a function (HostInterpreter::Run does).
  void BeginRun() { run_start_sim_ = platform_.clock().Now(); }

  /// Throws JobTimeoutError when the caller's cancel flag is set (service
  /// watchdog) or the simulated deadline has passed. Checked at offload
  /// entry, between recovery retry rounds, and per host statement.
  void CheckInterrupts() const;

  /// Installs the inter-offload dependence graph of the function being
  /// interpreted (the host interpreter does so under the async pipeline
  /// only): communication after each offload is issued so the arrays the
  /// next dependent offload reads go first. The graph must outlive the
  /// executor's use; pass nullptr to detach.
  void set_depgraph(const DepGraph* graph) { depgraph_ = graph; }

  /// Latest simulated end time of communication issued by the async
  /// pipeline that no one has waited on yet.
  double pending_comm_end() const { return pending_comm_end_; }

  /// Host synchronization point for the async pipeline: advances the
  /// simulated clock past all outstanding communication (the exposed tail
  /// is attributed to the GpuGpu category) and drops the per-array
  /// readiness state. No-op when the pipeline is off.
  void FinishPendingComm();

  /// Closes a schedule stage whose own work ends at `end`: BSP drains every
  /// resource with a global barrier, the async pipeline only advances the
  /// host clock to `end`. Elapsed time is billed to `category`.
  void EndStage(sim::TimeCategory category, double end);

  DataLoader& loader() { return loader_; }
  CommManager& comm() { return comm_; }
  const ExecutorStats& stats() const { return stats_; }
  const std::vector<int>& devices() const { return devices_; }
  const ExecOptions& options() const { return options_; }
  /// Non-null iff ExecOptions::validate is set.
  const Validator* validator() const { return validator_.get(); }

 private:
  /// Per-offload state the stages hand each other (defined in executor.cc).
  struct OffloadStep;

  /// The actual BSP step: a driver over the stages below. Returns how the
  /// iteration space was cut, which the validator's golden run replays.
  LaunchGeometry RunOffloadImpl(const translator::LoopOffload& offload,
                                translator::HostEnv& env,
                                const ArrayResolver& resolve);

  void MapTasks(OffloadStep& step);
  void PlaceArrays(OffloadStep& step);
  void LaunchKernels(OffloadStep& step);
  /// Binds device g's kernel and appends its launches to `batch`.
  void AddDeviceLaunches(OffloadStep& step, std::size_t g,
                         std::vector<sim::DeviceLaunch>& batch);
  void CombineReductions(OffloadStep& step);
  void Cohere(OffloadStep& step);
  /// Fills the measured mapper's speed table from `step`'s kernel timings.
  void MeasureThroughput(const OffloadStep& step);

  /// Checkpoint/retry/degrade wrapper used when the fault injector is
  /// armed. Attributes every injected fault to exactly one recovery.*
  /// bucket (see runtime/recovery.h).
  void RunOffloadWithRecovery(const translator::LoopOffload& offload,
                              translator::HostEnv& env,
                              const ArrayResolver& resolve);

  /// One attempt of the offload, with the validator wrapped around it when
  /// validation is on. Injected FaultErrors escape to the recovery loop;
  /// genuine (non-injected) DeviceErrors still go to the validator.
  void RunOffloadAttempt(const translator::LoopOffload& offload,
                         translator::HostEnv& env,
                         const ArrayResolver& resolve);

  /// Drops lost devices from the executor, loader and comm manager. The
  /// remaining devices repartition on the next attempt.
  void ShrinkDevices(const std::vector<int>& lost);

  /// Per-array readiness under the async pipeline. `bulk` is when the
  /// array's non-halo contents are safe to use (kernel completion plus any
  /// dirty-merge / miss-replay transfers); `halo` additionally covers an
  /// in-flight halo refresh. Keyed on the ManagedArray (the physical
  /// state), not the VarDecl — distinct decls never alias an array, but the
  /// array is what the transfers actually touch.
  struct ArrayReady {
    double bulk = 0;
    double halo = 0;
  };

  // --- Schedule: the only place BSP and the async pipeline differ. ---
  bool async() const { return options_.async_pipeline; }
  /// A readiness floor for pipelined work; BSP issues unfloored (0).
  double Floor(double t) const { return async() ? t : 0; }
  /// Communication rides the second DMA engine under the pipeline.
  sim::Stream CommStream() const {
    return async() ? sim::Stream::kAsync : sim::Stream::kDefault;
  }
  /// Readiness of `array` (zero when untracked, hence always under BSP).
  ArrayReady ReadyOf(const ManagedArray* array) const;
  /// Raises the readiness of `array` under the pipeline; BSP tracks none,
  /// its stage barriers already order everything.
  void MarkReady(const ManagedArray* array, double bulk, double halo);

  /// Measured-throughput mapper state (ExecOptions::mapper == kMeasured).
  /// `mapper_speed_` is the per-device throughput table (iterations per
  /// simulated second), filled once from the first equal-split execution
  /// whose measurement is usable on every device, then frozen. It is shared
  /// by every offload: two loops over the same iteration range must derive
  /// byte-identical ownership boundaries, or row ownership thrashes between
  /// their two splits on every sweep and the redistribution traffic dwarfs
  /// the kernel-time win. Cleared wholesale on any device-set change, which
  /// forces one equal-split re-measurement on the survivors.
  /// `mapper_last_tasks_` (per offload id) only detects split changes for
  /// the mapper.rebalances counter.

  sim::Platform& platform_;
  ExecOptions options_;
  std::vector<int> devices_;
  DataLoader loader_;
  CommManager comm_;
  ExecutorStats stats_;
  std::unique_ptr<Validator> validator_;
  const DepGraph* depgraph_ = nullptr;
  std::unordered_map<const ManagedArray*, ArrayReady> ready_;
  std::vector<double> mapper_speed_;
  std::unordered_map<int, std::vector<Range>> mapper_last_tasks_;
  double pending_comm_end_ = 0;
  double run_start_sim_ = 0;  ///< deadline epoch, set by BeginRun()
};

}  // namespace accmg::runtime
