// Tunables of the multi-GPU runtime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace accmg::runtime {

/// How the executor splits a parallel loop's iteration range across the
/// participating devices (docs/ARCHITECTURE.md, "Adaptive task mapper").
/// Every mode hands device g one contiguous range; only the boundaries
/// differ, so outputs are bit-identical across modes for non-reduction
/// kernels and only the simulated schedule changes.
enum class TaskMapper : int {
  /// The paper's equal contiguous division (Section IV-B2): device g of G
  /// runs [floor(N*g/G), floor(N*(g+1)/G)).
  kEqual,
  /// Extension beyond the paper: boundaries proportional to each device's
  /// compute throughput from the platform's spec table, which wins when
  /// the GPUs differ. Static — it trusts the spec table.
  kSpec,
  /// Measured throughput: the first execution whose per-device kernel
  /// durations (from the simulated clock) are usable on every device fills
  /// one executor-wide speed table, which is then frozen and splits every
  /// offload proportionally, like kSpec. Until then, and again after a
  /// device-set change clears the table, the split is equal.
  kMeasured,
};

struct ExecOptions {
  /// Honour `localaccess` directives (distribution-based placement). When
  /// false every array uses the replica-based policy, which is what a stock
  /// single-GPU OpenACC compiler effectively does.
  bool honor_localaccess = true;

  /// Second-level dirty-bit chunk size (paper Section IV-D1 picks 1 MB).
  std::size_t dirty_chunk_bytes = 1 << 20;

  /// Logical CUDA block size, passed on to sim::KernelLaunch::block_size.
  /// Only checked there to be positive: neither the launch's chunk grid nor
  /// the cost model reads it.
  int block_size = 256;

  /// Task mapper (see TaskMapper above).
  TaskMapper mapper = TaskMapper::kEqual;

  /// Dependence-driven async offload pipeline. The executor derives
  /// inter-offload RAW/WAR/WAW dependences from each offload's array
  /// read/write sets (runtime/depgraph.h), splits distributed kernels with
  /// localaccess halos into boundary and interior sub-tasks, and gates work
  /// on per-array readiness times instead of global BSP barriers — so halo
  /// and dirty-chunk exchange overlaps interior compute in simulated time.
  /// Functional effects keep the synchronous issue order (results are
  /// bit-identical and billed bytes/transfer counts are unchanged); only
  /// the simulated schedule differs. Default off until validated per app.
  bool async_pipeline = false;

  /// Enables the process-wide tracer (common/trace.h): the runtime and the
  /// virtual platform then record per-device spans — kernel executions,
  /// transfers, dirty-bit merges, write-miss flushes, halo refreshes,
  /// inter-GPU reductions — for Chrome-trace export and summary tables.
  /// Equivalent to trace::Tracer::Global().set_enabled(true); tracing stays
  /// on afterwards so callers can export the buffer.
  bool trace = false;

  /// Shadow-executes every offload over host-side copies of its arrays,
  /// replaying the executor's launch geometry and reduction fold order, and
  /// diffs all managed-array state (shard bytes, host image, dirty bits,
  /// miss buffers, reductions) bit for bit, plus billed-transfer counters,
  /// after each kernel (runtime/validator.h). Expensive — every kernel runs
  /// twice, the replay on the same worker pool — so strictly a debugging
  /// mode.
  bool validate = false;

  /// Identifies the service job this execution belongs to (-1 outside the
  /// resident service). The runtime wraps its entry points in
  /// trace::JobScope(job_id) so every recorded span carries the job label,
  /// which is what per-job Chrome-trace export filters on
  /// (service/service.h).
  int job_id = -1;

  /// Per-job deadline in simulated seconds (0 = none). When the simulated
  /// clock advances past start + deadline, the executor throws
  /// JobTimeoutError at the next interrupt check — offload entry, retry
  /// round, or host statement boundary.
  double deadline_sim_s = 0;

  /// Cooperative cancellation flag owned by the caller (the service watchdog
  /// sets it on wall-clock timeout). Checked at the same interrupt points as
  /// the deadline; null = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace accmg::runtime
