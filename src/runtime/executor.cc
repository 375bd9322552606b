#include "runtime/executor.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ir/exec.h"
#include "runtime/launch.h"
#include "runtime/recovery.h"
#include "runtime/reduction.h"

namespace accmg::runtime {

using translator::EvalIndexExpr;
using translator::HostEnv;
using translator::LoopOffload;
using translator::TypedValue;

namespace {

/// The paper's equal contiguous division (Section IV-B2): part g of `parts`
/// is [floor(total*g/parts), floor(total*(g+1)/parts)).
std::vector<Range> SplitEqual(std::int64_t total, std::size_t parts) {
  const auto n = static_cast<std::int64_t>(parts);
  std::vector<Range> tasks(parts);
  for (std::int64_t g = 0; g < n; ++g) {
    tasks[static_cast<std::size_t>(g)] =
        Range{total * g / n, total * (g + 1) / n};
  }
  return tasks;
}

/// Contiguous division proportional to `weights` (TaskMapper::kSpec and
/// kMeasured): boundary g sits at floor(total * prefix(g) / sum), where
/// prefix(g) sums weights[0..g-1], and the last part ends at `total`.
std::vector<Range> SplitProportional(std::int64_t total,
                                     const std::vector<double>& weights) {
  std::vector<double> prefix(weights.size() + 1, 0);
  for (std::size_t g = 0; g < weights.size(); ++g) {
    prefix[g + 1] = prefix[g] + weights[g];
  }
  std::vector<Range> tasks(weights.size());
  std::int64_t cursor = 0;
  for (std::size_t g = 0; g < weights.size(); ++g) {
    const auto hi = g + 1 == weights.size()
                        ? total
                        : static_cast<std::int64_t>(static_cast<double>(total) *
                                                    prefix[g + 1] /
                                                    prefix.back());
    tasks[g] = Range{cursor, std::max(cursor, hi)};
    cursor = tasks[g].hi;
  }
  return tasks;
}

/// One array of the offload as placed for this launch.
struct BoundArray {
  ManagedArray* array = nullptr;
  const translator::ArrayConfig* config = nullptr;
  bool distributed = false;
};

/// Launch-time localaccess window of a distributed array — the element
/// stride per iteration and the halo extents in elements — with its write
/// facts, as the boundary splitter takes it (boundaries_exact is set once
/// ownership is known).
ArraySplitInput ResolveWindow(const translator::ArrayConfig& config,
                              const ManagedArray& array, const HostEnv& env) {
  auto eval_or_zero = [&](const frontend::Expr* expr) -> std::int64_t {
    return expr != nullptr ? EvalIndexExpr(*expr, env) : 0;
  };
  ArraySplitInput window;
  window.distributed = true;
  window.is_written = config.is_written;
  window.has_affine_writes = config.has_affine_writes;
  window.write_coeff = config.write_coeff;
  window.write_min_off = config.write_min_off;
  window.write_max_off = config.write_max_off;
  if (config.cols != nullptr) {
    // 2-D row-block window: the loop iterates rows of a row-major grid, so
    // the element stride is the row length and the halo extents are whole
    // rows. Row blocks are contiguous, which is what lets every 1-D range
    // (loading, ownership, halo refresh) apply as-is.
    const std::int64_t cols = EvalIndexExpr(*config.cols, env);
    ACCMG_REQUIRE(cols >= 1, "localaccess cols must be >= 1");
    if (array.is_2d()) {
      ACCMG_REQUIRE(cols == array.cols(),
                    "localaccess cols(" + std::to_string(cols) +
                        ") disagrees with the data clause shape of '" +
                        array.name() + "' (" + std::to_string(array.cols()) +
                        " columns)");
    }
    window.stride = cols;
    window.left = eval_or_zero(config.left) * cols;
    window.right = eval_or_zero(config.right) * cols;
    if (config.is_written && config.writes_proven_local) {
      // 2-D row-block arrays carry a symbolic row-locality proof instead of
      // const-folded affine write facts: iteration i writes only within its
      // own row [cols*i, cols*i + cols - 1], i.e. coeff = cols with offsets
      // [0, cols - 1].
      window.has_affine_writes = true;
      window.write_coeff = cols;
      window.write_min_off = 0;
      window.write_max_off = cols - 1;
    }
  } else {
    window.stride =
        config.stride != nullptr ? EvalIndexExpr(*config.stride, env) : 1;
    window.left = eval_or_zero(config.left);
    window.right = eval_or_zero(config.right);
  }
  ACCMG_REQUIRE(window.stride >= 1, "localaccess stride must be >= 1");
  ACCMG_REQUIRE(window.left >= 0 && window.right >= 0,
                "localaccess halo extents must be >= 0");
  return window;
}

}  // namespace

/// Everything one offload's stages hand each other.
struct Executor::OffloadStep {
  const LoopOffload& offload;
  HostEnv& env;
  const ArrayResolver& resolve;
  LaunchValues values;

  std::vector<Range> tasks;                   ///< map: iterations per device
  std::vector<BoundArray> bound;              ///< place: parallel to arrays
  std::vector<ArraySplitInput> split_inputs;  ///< place: distributed arrays

  /// launch: when every used array's non-halo contents are ready, and when
  /// in-flight halo refreshes have landed too (both 0 under BSP).
  double bulk_gate = 0;
  double halo_gate = 0;
  std::vector<SplitPlan> plans;
  std::vector<std::unique_ptr<ir::KernelExec>> execs;
  /// Measured-mapper epoch: per-device durations are taken against the
  /// clock at launch issue, so loading skew that already advanced the clock
  /// is not charged to any one device's kernel speed.
  double launch_floor = 0;
  std::vector<double> device_end;  ///< end of the device's last launch
  double kernel_done = 0;          ///< max of device_end
};

Executor::Executor(sim::Platform& platform, ExecOptions options,
                   std::vector<int> devices)
    : platform_(platform),
      options_(options),
      devices_(std::move(devices)),
      loader_(platform, options_, devices_),
      comm_(platform, options_, devices_) {
  if (options_.trace) trace::Tracer::Global().set_enabled(true);
  ACCMG_REQUIRE(!devices_.empty(), "executor needs at least one device");
  for (int d : devices_) {
    ACCMG_REQUIRE(d >= 0 && d < platform.num_devices(),
                  "executor device id out of range");
  }
  if (options_.validate) {
    validator_ = std::make_unique<Validator>(platform_);
  }
}

void Executor::FinishPendingComm() {
  if (!options_.async_pipeline) return;
  platform_.clock().AdvanceTo(pending_comm_end_, sim::TimeCategory::kGpuGpu);
  ready_.clear();
}

void Executor::RunOffload(const LoopOffload& offload, HostEnv& env,
                          const ArrayResolver& resolve) {
  CheckInterrupts();
  if (platform_.faults().armed()) {
    RunOffloadWithRecovery(offload, env, resolve);
    return;
  }
  RunOffloadAttempt(offload, env, resolve);
}

void Executor::RunOffloadAttempt(const LoopOffload& offload, HostEnv& env,
                                 const ArrayResolver& resolve) {
  if (validator_ == nullptr) {
    RunOffloadImpl(offload, env, resolve);
    return;
  }
  validator_->BeginOffload(offload, env, resolve);
  LaunchGeometry geometry;
  try {
    geometry = RunOffloadImpl(offload, env, resolve);
  } catch (const FaultError&) {
    // Injected faults belong to the recovery loop (rollback + retry), not
    // to the validator, which would misreport them as divergences.
    throw;
  } catch (const DeviceError& fault) {
    // On real hardware this is silent corruption; the simulator faults
    // loudly, and the validator attributes it to the running kernel.
    validator_->ReportFault(offload, fault);
  }
  validator_->CheckOffload(offload, env, resolve, geometry, devices_);
}

void Executor::CheckInterrupts() const {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    throw JobTimeoutError("job cancelled by watchdog (wall-clock timeout)");
  }
  if (options_.deadline_sim_s > 0 &&
      platform_.clock().Now() - run_start_sim_ > options_.deadline_sim_s) {
    throw JobTimeoutError("simulated deadline of " +
                          std::to_string(options_.deadline_sim_s) +
                          "s exceeded");
  }
}

void Executor::ShrinkDevices(const std::vector<int>& lost) {
  // Per-device throughput records are indexed by position in devices_, so a
  // shrink invalidates every measurement; the next execution of each offload
  // re-derives an equal split from the survivor count and re-measures.
  mapper_speed_.clear();
  mapper_last_tasks_.clear();
  for (int d : lost) {
    devices_.erase(std::remove(devices_.begin(), devices_.end(), d),
                   devices_.end());
    loader_.RemoveDevice(d);
    comm_.RemoveDevice(d);
    RecoveryMetrics::Get().device_shrinks.Add();
    ACCMG_LOG(kWarn) << "device " << d
                     << " lost; continuing on " << devices_.size()
                     << " survivor(s)";
  }
  ACCMG_CHECK(!devices_.empty(),
              "ShrinkDevices must leave at least one survivor");
}

void Executor::RunOffloadWithRecovery(const LoopOffload& offload,
                                      HostEnv& env,
                                      const ArrayResolver& resolve) {
  auto& recovery = RecoveryMetrics::Get();
  const sim::FaultInjector& faults = platform_.faults();

  // Outstanding async communication belongs to earlier offloads; settle it
  // so the checkpoint images a quiescent state.
  FinishPendingComm();

  OffloadCheckpoint checkpoint;
  checkpoint.Capture(offload, env, resolve);

  int transient_retries = 0;
  for (;;) {
    CheckInterrupts();
    const std::uint64_t injected_before = platform_.injected_faults();
    try {
      RunOffloadAttempt(offload, env, resolve);
      return;
    } catch (const FaultError& fault) {
      // Attribute this attempt's injected faults to exactly one recovery
      // bucket below; the delta can be 0 when a dead device merely echoed
      // its earlier loss.
      const std::uint64_t delta =
          platform_.injected_faults() - injected_before;

      // Roll back before deciding anything: partial writes from the failed
      // attempt must never leak into the retry or the caller.
      checkpoint.Restore(env);
      ready_.clear();
      pending_comm_end_ = platform_.clock().Now();

      std::vector<int> lost;
      for (int d : devices_) {
        if (!faults.alive(d)) lost.push_back(d);
      }
      if (!lost.empty()) {
        if (lost.size() == devices_.size()) {
          recovery.failures.Add(delta);
          throw DeviceLostError(lost.front(),
                                "all participating devices lost during '" +
                                    offload.name + "'");
        }
        // A device loss is handled by degrading, not by burning the
        // transient retry budget: shrink onto the survivors and retry
        // immediately — the restored host image repartitions cleanly.
        recovery.degraded.Add(delta);
        ShrinkDevices(lost);
        continue;
      }

      if (!RetryTransient(platform_, offload.name, delta, transient_retries)) {
        throw;
      }
    }
  }
}

void Executor::EndStage(sim::TimeCategory category, double end) {
  if (async()) {
    platform_.clock().AdvanceTo(end, category);
  } else {
    platform_.Barrier(category);
  }
}

Executor::ArrayReady Executor::ReadyOf(const ManagedArray* array) const {
  auto it = ready_.find(array);
  return it == ready_.end() ? ArrayReady{} : it->second;
}

void Executor::MarkReady(const ManagedArray* array, double bulk,
                         double halo) {
  if (!async()) return;
  // Monotonic: a reduction destination already carries its broadcast end,
  // which its coherence step must not lower.
  ArrayReady& state = ready_[array];
  state.bulk = std::max(state.bulk, bulk);
  state.halo = std::max({state.halo, state.bulk, halo});
  pending_comm_end_ = std::max(pending_comm_end_, state.halo);
}

LaunchGeometry Executor::RunOffloadImpl(const LoopOffload& offload,
                                       HostEnv& env,
                                       const ArrayResolver& resolve) {
  trace::Span offload_span("offload:" + offload.name,
                           trace::category::kOffload);
  OffloadStep step{offload, env, resolve,
                   ResolveLaunchValues(offload, env,
                                       [&](const frontend::VarDecl& decl) {
                                         return resolve(decl).count();
                                       })};
  MapTasks(step);
  PlaceArrays(step);
  LaunchKernels(step);
  MeasureThroughput(step);
  // Reduction combines bill transfers under the reduction category; the
  // comm-manager calls of the cohere stage override it with their own.
  trace::PhaseScope reduction_phase(trace::category::kReduction);
  CombineReductions(step);
  Cohere(step);
  return LaunchGeometry{std::move(step.tasks), std::move(step.plans)};
}

// --- Map: one contiguous task per device (Section IV-B2 plus the spec and
// measured-throughput mappers). ---
void Executor::MapTasks(OffloadStep& step) {
  const std::int64_t total = step.values.total;
  std::vector<double> weights;  // empty: equal division
  if (options_.mapper == TaskMapper::kSpec) {
    for (int d : devices_) {
      weights.push_back(platform_.device(d).spec().instr_per_sec);
    }
  } else if (options_.mapper == TaskMapper::kMeasured && total > 0) {
    weights = mapper_speed_;  // empty until the table is frozen
  }
  if (weights.empty()) {
    step.tasks = SplitEqual(total, devices_.size());
    return;
  }
  step.tasks = SplitProportional(total, weights);
  if (options_.mapper != TaskMapper::kMeasured) return;
  std::vector<Range>& last = mapper_last_tasks_[step.offload.id];
  if (last != step.tasks) {
    static metrics::Counter& rebalances =
        metrics::Registry::Global().counter("mapper.rebalances");
    rebalances.Add();
    last = step.tasks;
  }
  static metrics::Counter& measured_splits =
      metrics::Registry::Global().counter("mapper.measured_splits");
  measured_splits.Add();
}

// --- Place: placement requirements per array + data loading (IV-C). ---
void Executor::PlaceArrays(OffloadStep& step) {
  const std::size_t n = devices_.size();
  const std::int64_t lower = step.values.lower;
  step.bound.reserve(step.offload.arrays.size());
  double load_end = platform_.clock().Now();
  for (const auto& config : step.offload.arrays) {
    ManagedArray& array = step.resolve(*config.decl);
    const auto& param = step.offload.kernel.arrays[static_cast<std::size_t>(
        config.kernel_array_index)];

    ArrayRequirement req;
    req.array = &array;
    req.written = config.is_written;
    req.dirty_tracked = param.dirty_tracked;
    req.miss_checked = param.miss_checked;
    // Reduction destinations stay replicated: the combined result must fold
    // into the pre-kernel value exactly once, which the replica path does.
    req.distributed = options_.honor_localaccess && config.has_localaccess &&
                      !config.is_reduction_dest && n > 1;
    req.read_ranges.assign(n, Range{0, array.count()});
    req.own_ranges.assign(n, Range{0, array.count()});
    if (req.distributed) {
      ArraySplitInput window = ResolveWindow(config, array, step.env);
      const std::int64_t stride = window.stride;
      // Ownership is a complete partition of [0, count): boundaries at the
      // start of each GPU's first iteration, with the ends pinned to the
      // array bounds so that every element has exactly one owner.
      std::vector<std::int64_t> boundary(n + 1);
      boundary[0] = 0;
      bool exact = true;
      for (std::size_t g = 1; g < n; ++g) {
        const std::int64_t ideal = stride * (lower + step.tasks[g].lo);
        boundary[g] = std::clamp<std::int64_t>(ideal, 0, array.count());
        exact &= boundary[g] == ideal;
      }
      boundary[n] = array.count();
      for (std::size_t g = 1; g < n; ++g) {
        exact &= boundary[g] >= boundary[g - 1];
        boundary[g] = std::max(boundary[g], boundary[g - 1]);
      }
      for (std::size_t g = 0; g < n; ++g) {
        Range read{stride * (lower + step.tasks[g].lo) - window.left,
                   stride * (lower + step.tasks[g].hi) + window.right};
        read.lo = std::clamp<std::int64_t>(read.lo, 0, array.count());
        read.hi = std::clamp<std::int64_t>(read.hi, 0, array.count());
        const Range own{boundary[g], boundary[g + 1]};
        // Owner range must be resident: widen the loaded range over it.
        req.read_ranges[g] = Range{std::min(read.lo, own.lo),
                                   std::max(read.hi, own.hi)};
        req.own_ranges[g] = own;
      }
      window.boundaries_exact = exact;
      step.split_inputs.push_back(window);
    }
    // A reload must not race the array's own in-flight exchange; its
    // readiness time is the transfer floor.
    const ArrayReady ready = ReadyOf(&array);
    load_end = std::max(load_end, loader_.EnsurePlacement(
                                      req, std::max(ready.bulk, ready.halo)));
    step.bound.push_back(BoundArray{&array, &config, req.distributed});
  }
  // Under the pipeline only the exposed transfer latency stalls — no global
  // resource drain. Steady-state iterations hit the reload-skip cache and
  // pay nothing here.
  EndStage(sim::TimeCategory::kCpuGpu, load_end);
}

// --- Launch: kernels on every device, overlapping in simulated time. ---
void Executor::LaunchKernels(OffloadStep& step) {
  const std::size_t n = devices_.size();
  // Interior sub-kernels only touch owned elements, so they start at
  // bulk_gate while the previous offload's halo exchange is still on the
  // wire; boundary sub-kernels (and unsplit kernels, which may read halos)
  // gate on halo_gate.
  for (const BoundArray& ba : step.bound) {
    const ArrayReady ready = ReadyOf(ba.array);
    step.bulk_gate = std::max(step.bulk_gate, ready.bulk);
    step.halo_gate = std::max(step.halo_gate, ready.halo);
  }
  step.halo_gate = std::max(step.halo_gate, step.bulk_gate);
  // The wait for bulk readiness is exposed inter-GPU communication time.
  platform_.clock().AdvanceTo(step.bulk_gate, sim::TimeCategory::kGpuGpu);

  step.plans.resize(n);  // unsplit unless the pipeline splits below
  if (async() && n > 1) {
    for (std::size_t g = 0; g < n; ++g) {
      step.plans[g] = ComputeBoundarySplit(step.split_inputs, g, n,
                                           step.tasks[g].size());
    }
  }

  // One batch carries every device's launches, so their chunks share the
  // platform's pool and the sim clock schedules them in issue order.
  step.device_end.assign(n, 0);
  step.launch_floor = platform_.clock().Now();
  std::vector<sim::DeviceLaunch> batch;
  for (std::size_t g = 0; g < n; ++g) AddDeviceLaunches(step, g, batch);
  platform_.LaunchKernels(batch);
  sim::KernelStats& cost = stats_.kernels[step.offload.name];
  for (const sim::DeviceLaunch& dl : batch) cost += dl.stats;

  // Time up to the slowest interior is kernel execution; any boundary tail
  // beyond it exists only because the boundary waited on an in-flight
  // exchange, so that remainder is exposed GPU-GPU time. Each device's
  // launches are contiguous in the batch, its interior (or only) one first.
  double interior_max = 0;
  for (std::size_t g = 0, i = 0; g < n; ++g) {
    interior_max = std::max(interior_max, batch[i].end_s);
    for (; i < batch.size() && batch[i].device_id == devices_[g]; ++i) {
      step.device_end[g] = std::max(step.device_end[g], batch[i].end_s);
    }
    step.kernel_done = std::max(step.kernel_done, step.device_end[g]);
  }
  platform_.clock().AdvanceTo(Floor(interior_max), sim::TimeCategory::kKernel);
  EndStage(step.halo_gate > interior_max ? sim::TimeCategory::kGpuGpu
                                         : sim::TimeCategory::kKernel,
           step.kernel_done);
  ++stats_.offload_runs;
  static metrics::Counter& offload_runs_metric =
      metrics::Registry::Global().counter("executor.offload_runs");
  offload_runs_metric.Add();
}

void Executor::AddDeviceLaunches(OffloadStep& step, std::size_t g,
                                 std::vector<sim::DeviceLaunch>& batch) {
  const LoopOffload& offload = step.offload;
  const Range task = step.tasks[g];
  auto exec = std::make_unique<ir::KernelExec>(offload.decoded);
  step.values.BindTo(*exec, task);
  for (std::size_t a = 0; a < step.bound.size(); ++a) {
    const BoundArray& ba = step.bound[a];
    const auto& param = offload.kernel.arrays[a];
    DeviceShard& shard = ba.array->shard(devices_[g]);
    ir::ArrayBinding& binding = exec->bindings[a];
    binding.data = shard.data->bytes().data();
    binding.lo = shard.loaded.lo;
    binding.hi = shard.loaded.hi;
    const Range writable = ba.distributed ? shard.owned : shard.loaded;
    binding.write_lo = writable.lo;
    binding.write_hi = writable.hi;
    binding.logical_size = ba.array->count();
    if (param.dirty_tracked) {
      binding.dirty.level1 =
          reinterpret_cast<std::uint8_t*>(shard.dirty1->bytes().data());
      binding.dirty.level2 =
          reinterpret_cast<std::uint8_t*>(shard.dirty2->bytes().data());
      binding.dirty.chunk_elems = shard.chunk_elems;
    }
    if (param.miss_checked) binding.miss = &shard.miss;
  }
  AppendPartLaunches(batch, devices_[g], *exec, offload.name,
                     options_.block_size, task.size(), step.plans[g],
                     step.halo_gate);
  step.execs.push_back(std::move(exec));
}

// Fills the shared throughput table from the first equal-split execution
// whose measurement is usable on every device (each got iterations and its
// kernel-end timestamp advanced past the launch floor). An unusable
// measurement — e.g. a range smaller than the device count — leaves the
// table empty, so the mapper keeps splitting equally and re-measuring until
// an offload supplies real work on all devices. Once filled the table is
// frozen: every subsequent offload derives its split from the same numbers,
// and only a device-set change (ShrinkDevices) clears it.
void Executor::MeasureThroughput(const OffloadStep& step) {
  if (options_.mapper != TaskMapper::kMeasured || devices_.size() < 2 ||
      step.values.total <= 0 || !mapper_speed_.empty()) {
    return;
  }
  std::vector<double> speed(devices_.size(), 0.0);
  for (std::size_t g = 0; g < devices_.size(); ++g) {
    const double duration = step.device_end[g] - step.launch_floor;
    const std::int64_t iters = step.tasks[g].size();
    if (iters <= 0 || duration <= 0) return;
    speed[g] = static_cast<double>(iters) / duration;
  }
  mapper_speed_ = std::move(speed);
}

// --- Reduce: scalar and array reductions across devices (IV-B4). ---
void Executor::CombineReductions(OffloadStep& step) {
  const LoopOffload& offload = step.offload;
  // Scalar reductions: per-GPU partials come back to the host (a few bytes
  // each) and fold into the variable's pre-loop value. The host consumes
  // the value immediately, so the pipeline waits for the readback (exposed
  // time is GPU-GPU communication); BSP waits at the cohere barrier.
  double scalar_red_end = platform_.clock().Now();
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    const auto& slot = offload.kernel.scalar_reductions[r];
    for (int device : devices_) {
      scalar_red_end = std::max(
          scalar_red_end,
          platform_.BillDeviceToHost(device, ir::ValTypeSize(slot.type)));
    }
    step.env.SetScalar(
        *offload.scalar_reds[r].decl,
        TypedValue::FromElementBits(
            slot.type,
            FoldScalarReduction(offload, step.values, step.execs, r)));
  }
  platform_.clock().AdvanceTo(Floor(scalar_red_end),
                              sim::TimeCategory::kGpuGpu);

  // Array reductions (hierarchical): per-GPU dense partials combine
  // pairwise across GPUs (CombinePartials' tree order), then
  // the result folds into every replica of the destination. Later offloads
  // using the destination gate on the broadcast; the host does not.
  for (std::size_t r = 0; r < offload.array_reds.size(); ++r) {
    const auto& slot = offload.kernel.array_reductions[r];
    ManagedArray& dest = step.resolve(*offload.array_reds[r].decl);
    std::vector<const std::vector<std::uint64_t>*> partials;
    partials.reserve(devices_.size());
    for (const auto& exec : step.execs) {
      partials.push_back(&exec->array_red_partials()[r]);
    }
    const double red_end = CombineArrayReduction(
        platform_, devices_, dest, slot.op, slot.type,
        step.values.red_lower[r], step.values.red_length[r], partials);
    MarkReady(&dest, red_end, 0);
  }
}

// --- Cohere: dirty-bit propagation for replicated written arrays; write-
// miss replay, then halo refresh, for distributed ones (IV-D). ---
void Executor::Cohere(OffloadStep& step) {
  // Issue order is dependence-driven under the pipeline: arrays the next
  // dependent offload reads (depgraph RAW edges) go first, so their
  // transfers grab the copy engines before coherence traffic nothing is
  // waiting on. Billing per array is unchanged — only the order moves.
  const std::vector<BoundArray>& bound = step.bound;
  std::vector<std::size_t> order(bound.size());
  for (std::size_t a = 0; a < bound.size(); ++a) order[a] = a;
  if (depgraph_ != nullptr) {
    const std::vector<int> succs = depgraph_->Successors(step.offload.id);
    if (!succs.empty()) {
      const std::vector<const frontend::VarDecl*> next_reads =
          depgraph_->ReadsFrom(step.offload.id, succs.front());
      std::stable_partition(order.begin(), order.end(), [&](std::size_t a) {
        return std::find(next_reads.begin(), next_reads.end(),
                         bound[a].config->decl) != next_reads.end();
      });
    }
  }
  for (std::size_t a : order) {
    const BoundArray& ba = bound[a];
    const auto& param = step.offload.kernel.arrays[a];
    double prop_end = 0;
    double miss_end = 0;
    double halo_end = 0;
    if (param.dirty_tracked) {
      prop_end = comm_.PropagateReplicated(
          *ba.array, Floor(step.kernel_done), CommStream());
    }
    if (param.miss_checked) {
      miss_end = comm_.ReplayWriteMisses(*ba.array, Floor(step.kernel_done),
                                         CommStream());
    }
    if (ba.distributed && ba.config->is_written &&
        !ba.config->is_reduction_dest) {
      // The refresh reads each owner's exchange-sensitive slices and
      // overwrites halos whose old values only boundary iterations read —
      // both complete with the device's last (boundary) launch. Miss
      // replays write owner segments too, so an earlier replay of this
      // array also floors the refresh.
      halo_end = comm_.RefreshHalos(
          *ba.array, Floor(std::max(miss_end, step.kernel_done)),
          CommStream());
    }
    if (ba.config->is_written) {
      for (int device : devices_) ba.array->shard(device).valid = true;
      ba.array->set_host_valid(false);
    }
    MarkReady(ba.array, std::max({step.kernel_done, prop_end, miss_end}),
              halo_end);
  }
  EndStage(sim::TimeCategory::kGpuGpu, platform_.clock().Now());
}
}  // namespace accmg::runtime
