// The virtual multi-GPU node: devices, interconnect, simulated clock, and the
// execution engine. This layer plays the role CUDA 4.0 plays in the paper.
//
// Ownership: the devices, the worker pool and the fault injector are held
// in one node that every Fork() of a platform shares; the SimClock and the
// PlatformCounters belong to each Platform instance. A run accounts on the
// instance it was given, so forks over disjoint devices run concurrently
// and each bills exactly what it would bill alone.
//
// Concurrency/timing model: data effects of copies and kernels are applied
// synchronously (sequentially consistent), while their *durations* are
// scheduled on the SimClock's serializing resources, so operations issued
// between two Barrier() calls overlap in simulated time exactly when they use
// disjoint hardware resources. The BSP structure of the runtime (Section III-A
// of the paper) makes this model exact for the executions we reproduce.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/fault.h"
#include "sim/kernel.h"
#include "sim/topology.h"

namespace accmg::sim {

/// Counters of everything the platform executed, for Table II style reports.
struct PlatformCounters {
  std::uint64_t kernel_launches = 0;
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t p2p_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t p2p_bytes = 0;

  PlatformCounters& operator+=(const PlatformCounters& other);
  bool operator==(const PlatformCounters&) const = default;
};

/// One launch of a LaunchKernels batch: the request and, after the call,
/// what came of it.
struct DeviceLaunch {
  int device_id = 0;
  KernelLaunch launch;
  KernelStats stats;         ///< out: summed cost of the launch's chunks
  double wall_s = 0;         ///< out: host wall seconds its chunks ran, summed
  double end_s = 0;          ///< out: simulated end time (0 if not scheduled)
  std::exception_ptr error;  ///< out: its fault or first body error, if any
};

class Platform {
 public:
  Platform(std::vector<DeviceSpec> gpus, TopologyConfig topology, CpuSpec host,
           std::size_t worker_threads = 0);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// A platform over the same devices, worker pool and fault injector,
  /// with its own clock (same resources, time 0) and zeroed counters.
  /// Buffers allocated through either show in both; time and counters
  /// billed on one never move the other's.
  std::unique_ptr<Platform> Fork() const;

  int num_devices() const { return static_cast<int>(shared_->devices.size()); }
  Device& device(int id);
  const Device& device(int id) const;
  const CpuSpec& host_spec() const { return shared_->host; }
  const TopologyConfig& topology() const { return shared_->topology; }

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  ThreadPool& workers() { return shared_->workers; }
  const PlatformCounters& counters() const { return counters_; }

  /// --- Fault injection (sim/fault.h) ---
  /// While armed, every Bill*/Copy*/kernel launch consults the injector
  /// before executing: the operation may throw a typed FaultError (with no
  /// data effect — copies bill before they move bytes) or run with a
  /// stall-inflated simulated duration.
  /// The injector is shared with every fork.
  void ArmFaults(const FaultPlan& plan) {
    shared_->faults.Arm(plan, num_devices());
  }
  void DisarmFaults() { shared_->faults.Disarm(); }
  FaultInjector& faults() { return shared_->faults; }
  const FaultInjector& faults() const { return shared_->faults; }
  /// Faults raised by this instance's own operations (echoes on dead
  /// devices excluded). Recovery attributes faults from deltas of this
  /// count, which other forks running at once never move.
  std::uint64_t injected_faults() const { return injected_faults_; }

  /// --- Copy engines (immediate data effect, simulated duration) ---
  /// Each call returns the transfer's simulated end time (or the current
  /// time when `bytes == 0`). `ready_at` delays the simulated start without
  /// affecting the (immediate) functional effect — the async pipeline's
  /// dependence edges. `stream` selects the copy engine for peer transfers
  /// (see sim::Stream); billed bytes and counters are stream-independent.

  double CopyHostToDevice(DeviceBuffer& dst, std::size_t dst_offset,
                          const void* src, std::size_t bytes,
                          double ready_at = 0);
  double CopyDeviceToHost(void* dst, const DeviceBuffer& src,
                          std::size_t src_offset, std::size_t bytes,
                          double ready_at = 0);
  /// Peer copy; staged through the host when the topology lacks peer DMA.
  double CopyDeviceToDevice(DeviceBuffer& dst, std::size_t dst_offset,
                            const DeviceBuffer& src, std::size_t src_offset,
                            std::size_t bytes, double ready_at = 0,
                            Stream stream = Stream::kDefault);

  /// --- Cost-only transfer accounting ---
  /// Schedule the simulated duration and counters of a transfer without
  /// moving bytes. Used where the functional effect is applied element-wise
  /// by the runtime (e.g. dirty-element merges) but the wire cost is that of
  /// a bulk transfer. Returns the transfer's simulated end time.
  ///
  /// Thread safety: the clock and counters of one Platform are used by one
  /// thread at a time — every Bill*, Copy*, launch and Barrier of a run is
  /// issued from the run's own thread (element work fans out to the pool,
  /// billing does not). Concurrent runs each take their own Fork().
  double BillHostToDevice(int device_id, std::size_t bytes,
                          double ready_at = 0);
  double BillDeviceToHost(int device_id, std::size_t bytes,
                          double ready_at = 0);
  double BillDeviceToDevice(int src_device, int dst_device, std::size_t bytes,
                            double ready_at = 0,
                            Stream stream = Stream::kDefault);

  /// --- Kernel execution ---

  /// Runs every launch of `batch` (in issue order, e.g. all sub-launches of
  /// one offload on all devices). The fault injector is consulted per
  /// launch in issue order before anything runs; a device whose launch
  /// faults skips its later launches, the others still run. The chunks of
  /// all runnable launches then execute as one pool batch (sim/kernel.h),
  /// each launch's chunk outputs fold into its body in chunk order, and
  /// each launch that completed is scheduled on its device's compute
  /// resource in issue order: launch overhead + roofline(instructions,
  /// bytes), no earlier than `launch.ready_at`, so kernels on different
  /// devices overlap. A launch whose body throws is not scheduled, and
  /// neither are its device's later launches. After scheduling, the first
  /// error in issue order is rethrown.
  void LaunchKernels(std::vector<DeviceLaunch>& batch);

  /// The one-launch case of LaunchKernels.
  KernelStats LaunchKernel(int device_id, const KernelLaunch& launch);

  /// Runs every launch of `batch` through the same chunk grid and in-order
  /// fold as LaunchKernels, with no device, fault injection, clock or
  /// counters: the engine of the CPU baseline and the validator's golden
  /// run (runtime/launch.h). Fills each launch's stats and error, then
  /// rethrows the first error in issue order.
  void RunOnHost(std::vector<DeviceLaunch>& batch);

  /// BSP phase boundary; see SimClock::Barrier.
  double Barrier(TimeCategory category) { return clock_.Barrier(category); }

  /// Sum of peak device-memory use across devices.
  std::size_t TotalPeakDeviceBytes() const;

  /// Resets this instance's simulated time and counters (not device memory).
  void ResetAccounting();

 private:
  /// What a platform and its forks share.
  struct Shared {
    Shared(TopologyConfig topology, CpuSpec host, std::size_t worker_threads)
        : topology(std::move(topology)),
          host(std::move(host)),
          workers(worker_threads) {}

    TopologyConfig topology;
    CpuSpec host;
    std::vector<std::unique_ptr<Device>> devices;
    std::vector<SimClock::Resource> io_root_resources;  // one per IO group
    ThreadPool workers;
    FaultInjector faults;
  };

  Platform(std::shared_ptr<Shared> shared, SimClock clock);

  std::vector<SimClock::Resource> RootResources(int device_id) const;
  /// Consults the fault injector for an operation at `site` on `device`
  /// while it is armed; see FaultInjector::OnOperation.
  double CheckFault(FaultSite site, int device);
  /// Bills a transfer over the host link (kH2D or kD2H) of `device_id`.
  double BillHostLink(FaultSite site, int device_id, std::size_t bytes,
                      double ready_at);

  std::shared_ptr<Shared> shared_;
  SimClock clock_;
  PlatformCounters counters_;
  std::uint64_t injected_faults_ = 0;
};

/// Table I presets.
std::unique_ptr<Platform> MakeDesktopMachine(int num_gpus = 2);
std::unique_ptr<Platform> MakeSupercomputerNode(int num_gpus = 3);

}  // namespace accmg::sim
