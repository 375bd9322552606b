// How one offloaded loop is launched, shared by every execution path: the
// multi-GPU executor, the validator's golden run and the CPU baseline. The
// launch values are resolved once; the geometry cuts the iteration space
// into one part per device, each one launch or interior/lead/trail
// sub-launches; partials fold in the paper's hierarchy (Section IV-B4):
// chunk grid within a part (sim/kernel.h), then parts in order — scalars by
// a left fold from the pre-loop value, arrays by the pairwise tree of
// runtime/reduction.h. RunOffloadOnHost replays a geometry over host memory
// through that hierarchy, bit-identical to a device run of it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/exec.h"
#include "runtime/depgraph.h"
#include "runtime/managed_array.h"
#include "sim/platform.h"
#include "translator/eval.h"
#include "translator/offload.h"

namespace accmg::runtime {

struct LaunchValues {
  std::int64_t lower = 0;  ///< first iteration
  std::int64_t total = 0;  ///< iteration count (never negative)
  std::vector<std::uint64_t> scalars;  ///< encoded kernel scalar arguments
  /// Pre-loop value of each scalar reduction variable, as element bits.
  std::vector<std::uint64_t> red_initial;
  /// Section [red_lower, red_lower + red_length) of each reductiontoarray
  /// destination.
  std::vector<std::int64_t> red_lower;
  std::vector<std::int64_t> red_length;

  /// Installs the scalars and reduction sections, starts `exec`'s thread 0
  /// at iteration `lower + part.lo`, and resets its outputs.
  void BindTo(ir::KernelExec& exec, Range part) const;
};

/// Element count of the array a reductiontoarray clause names.
using ArrayExtent = std::function<std::int64_t(const frontend::VarDecl&)>;

/// Evaluates the loop bounds, scalar arguments and reduction sections of
/// `offload` in `env`. Throws Error when a reductiontoarray section falls
/// outside its destination.
LaunchValues ResolveLaunchValues(const translator::LoopOffload& offload,
                                 const translator::HostEnv& env,
                                 const ArrayExtent& extent);

/// How an offload's iteration space is cut into launches: part g runs
/// iterations [tasks[g].lo, tasks[g].hi) relative to LaunchValues::lower,
/// cut per plans[g]. The executor's parts are its devices, in order.
struct LaunchGeometry {
  std::vector<Range> tasks;
  std::vector<SplitPlan> plans;
};

/// Appends the launches of one part — threads [0, size) of `body` — to
/// `batch`: one launch, or the interior, then the lead and trail boundary
/// windows of `plan`. All but the interior may read halos, so they start no
/// earlier than `halo_ready`. The sub-launches share the body and continue
/// its thread grid; its partials fold across them in this issue order.
void AppendPartLaunches(std::vector<sim::DeviceLaunch>& batch, int device,
                        ir::KernelExec& body, const std::string& name,
                        int block_size, std::int64_t size,
                        const SplitPlan& plan, double halo_ready);

/// Final value of scalar reduction `r`: its pre-loop value folded left to
/// right with the partial of each part's body, in part order.
std::uint64_t FoldScalarReduction(
    const translator::LoopOffload& offload, const LaunchValues& values,
    const std::vector<std::unique_ptr<ir::KernelExec>>& parts, std::size_t r);

/// Full-range host storage of an array the offload names.
using HostArrayResolver =
    std::function<translator::HostArray(const frontend::VarDecl&)>;

struct HostRunResult {
  sim::KernelStats stats;  ///< summed over every launch
  /// Final value of each scalar reduction variable, as element bits.
  std::vector<std::uint64_t> scalar_reds;
};

/// Runs `offload` over the full host arrays with the executor's launch
/// geometry and fold hierarchy: one KernelExec per part, all launches as one
/// Platform::RunOnHost batch, scalar reductions by FoldScalarReduction and
/// array reductions by CombinePartials into the destination's host bytes.
/// Bills nothing. Throws the kernel's DeviceError when it faults.
HostRunResult RunOffloadOnHost(sim::Platform& platform,
                               const translator::LoopOffload& offload,
                               const LaunchValues& values,
                               const LaunchGeometry& geometry,
                               const HostArrayResolver& host_array);

/// The "OpenMP" CPU baseline of the paper's Fig. 7 (gcc -O2 with 12/24
/// OpenMP threads there): runs `offload` by RunOffloadOnHost as one unsplit
/// part over the host arrays, charges the roofline of the platform's
/// CpuSpec to host compute, and writes scalar reduction results back into
/// `env`. Array reductions fold straight into host memory.
void RunOffloadOnCpu(sim::Platform& platform,
                     const translator::LoopOffload& offload,
                     translator::HostEnv& env,
                     const HostArrayResolver& host_array);

}  // namespace accmg::runtime
