// Deterministic, seeded fault injection for the simulated platform.
//
// A FaultPlan assigns per-fault-site probabilities (kernel launches, H2D/D2H
// transfers, P2P transfers), a transfer-stall probability + slowdown factor,
// and a permanent device-loss probability. The Platform consults the armed
// FaultInjector at the top of every billable operation; the injector either
// lets the operation through (possibly with a stall multiplier applied to
// its simulated duration) or throws a typed error from common/error.h:
//
//   KernelLaunchError  transient kernel-launch failure (retryable)
//   TransferError      transient DMA failure (retryable)
//   DeviceLostError    permanent device death (not retryable on that device)
//
// Determinism: every decision is a pure function of (plan seed, fault site,
// device id, per-(site,device) operation index). The sequence of operations
// each (site, device) pair issues is deterministic for a given program run —
// a launch batch consults the injector per launch in issue order — so the
// set of injected faults is reproducible even when service jobs on disjoint
// device leases interleave their calls.
//
// Dead devices: once a device is lost, every subsequent operation touching
// it throws DeviceLostError. Only the *killing* operation counts toward
// `fault.injected`; echoes on an already-dead device do not, so the metric
// identity  fault.injected == recovery.retries + recovery.degraded +
// recovery.failures  holds (each injected fault is absorbed exactly once).
// By default the injector never kills the last surviving device.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace accmg::sim {

/// Where in the platform an operation is about to execute.
enum class FaultSite : int {
  kKernel = 0,  ///< Platform::LaunchKernels
  kH2D = 1,     ///< Bill/CopyHostToDevice
  kD2H = 2,     ///< Bill/CopyDeviceToHost
  kP2P = 3,     ///< Bill/CopyDeviceToDevice (source device)
};
inline constexpr int kNumFaultSites = 4;

const char* FaultSiteName(FaultSite site);

/// Per-site fault probabilities. All probabilities are in [0, 1] and are
/// evaluated per operation; a single uniform draw decides between death,
/// transient failure, stall and success (in that priority order).
struct FaultPlan {
  std::uint64_t seed = 0;
  double kernel_fail_p = 0;     ///< transient kernel-launch failure
  double h2d_fail_p = 0;        ///< transient host->device transfer failure
  double d2h_fail_p = 0;        ///< transient device->host transfer failure
  double p2p_fail_p = 0;        ///< transient peer transfer failure
  double stall_p = 0;           ///< transfer/kernel stall (slow, not failed)
  double stall_factor = 25.0;   ///< duration multiplier for a stalled op
  double device_loss_p = 0;     ///< permanent device death, per operation
  int max_device_losses = -1;   ///< cap on deaths; -1 = spare one survivor

  /// True when any probability is nonzero.
  bool enabled() const;

  /// Round-trips through Parse(): "seed=7,kernel=0.01,h2d=0.02,...".
  std::string ToString() const;

  /// Parses a comma-separated spec, e.g.
  ///   "seed=7,kernel=0.01,transfer=0.02,stall=0.05,stall-factor=30,
  ///    death=0.001,max-deaths=2"
  /// Keys: seed, kernel, h2d, d2h, p2p, transfer (sets h2d+d2h+p2p),
  /// stall, stall-factor, death, max-deaths. Unknown keys or malformed
  /// values throw InvalidArgumentError.
  static FaultPlan Parse(const std::string& spec);

  /// The --chaos preset: moderate transient rates, occasional stalls, and
  /// a device-loss rate that reliably exercises shrink recovery.
  static FaultPlan Chaos(std::uint64_t seed);
};

/// The injector a platform and its forks share. Thread-safe: concurrent
/// service jobs call OnOperation through their forks' Bill* and
/// LaunchKernels.
class FaultInjector {
 public:
  /// Arms the plan for a platform with `num_devices` devices. Resets all
  /// per-site counters and revives dead devices (tests re-arm freely).
  void Arm(const FaultPlan& plan, int num_devices);

  /// Disarms injection; dead devices are revived.
  void Disarm();

  /// Cheap armed check for the billing hot path.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  const FaultPlan& plan() const { return plan_; }

  /// Consulted by the platform before executing an operation at `site` on
  /// `device`. Returns the duration multiplier to apply (1.0 normally,
  /// plan.stall_factor for a stalled operation) or throws a typed error.
  /// When it raises a new fault (not an echo) it also increments
  /// `*injected`, if given — how each Platform counts the faults its own
  /// operations raised. Must only be called while armed.
  double OnOperation(FaultSite site, int device,
                     std::uint64_t* injected = nullptr);

  /// True when `device` has not been lost (always true while disarmed).
  bool alive(int device) const;

  /// Ids of permanently lost devices, ascending.
  std::vector<int> dead_devices() const;

  int deaths() const;

  /// Number of error faults raised (transient + device-loss kills; echoes
  /// on already-dead devices and stalls excluded).
  std::uint64_t injected() const;

  std::uint64_t stalls() const;

 private:
  double DrawUniform(FaultSite site, int device, std::uint64_t op_index) const;

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  FaultPlan plan_;
  int num_devices_ = 0;
  /// Per-(site, device) operation indices; the determinism key.
  std::vector<std::uint64_t> op_counts_;
  std::vector<char> dead_;
  int deaths_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace accmg::sim
