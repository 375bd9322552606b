// Runtime coherence validator (--validate / ExecOptions::validate).
//
// Shadow-executes every offloaded loop over host-side copies of the
// authoritative array state, replaying the executor's launch geometry —
// the same parts and sub-launches, on the same chunk grid — and its fold
// hierarchy for reductions (RunOffloadOnHost, runtime/launch.h). It then
// diffs everything the multi-GPU machinery produced against that golden
// run, bit for bit:
//
//   * every participating shard's resident bytes over its loaded range
//     (so stale replicas, missing halo refreshes and unreplayed write
//     misses all surface as the first divergent element),
//   * the host image when the runtime claims it is valid,
//   * scalar and array reduction results,
//   * post-kernel invariants: dirty bits fully cleared after propagation,
//     miss buffers drained after replay, written arrays marked valid on
//     every participant with the host image invalidated,
//   * and that validation itself never changes billed transfer counters or
//     the simulated clock (the golden run touches host memory only).
//
// A divergence raises accmg::Error with kernel, array, element and device
// attribution. The validator is deliberately oblivious to how the runtime
// moved data — it only trusts ir::KernelExec semantics — which is what makes
// it able to catch bugs in the loader/communication layers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/launch.h"
#include "runtime/managed_array.h"
#include "sim/platform.h"
#include "translator/eval.h"
#include "translator/offload.h"

namespace accmg::runtime {

/// Resolves a mini-C array parameter to its managed placement state.
using ArrayResolver =
    std::function<ManagedArray&(const frontend::VarDecl&)>;

struct ValidatorStats {
  std::uint64_t kernels_checked = 0;
  std::uint64_t elements_compared = 0;
  std::uint64_t divergences = 0;  ///< nonzero only if the caller swallowed one
};

class Validator {
 public:
  explicit Validator(sim::Platform& platform);

  /// Captures the authoritative pre-kernel state: a golden host copy of
  /// every array the offload touches, scalar argument values, and the
  /// pre-loop values of reduction variables. Must run before the executor
  /// mutates anything.
  void BeginOffload(const translator::LoopOffload& offload,
                    translator::HostEnv& env, const ArrayResolver& resolve);

  /// Runs the golden execution of `geometry` — how the executor cut this
  /// attempt of the offload, part g on `devices[g]` — over the captured
  /// state and diffs it against the shards of `devices` and the host image.
  /// Throws accmg::Error on the first divergence.
  void CheckOffload(const translator::LoopOffload& offload,
                    translator::HostEnv& env, const ArrayResolver& resolve,
                    const LaunchGeometry& geometry,
                    const std::vector<int>& devices);

  /// Converts a DeviceError raised by the multi-GPU execution into an
  /// attributed validation error (the golden pre-image tells us which
  /// kernel was running).
  [[noreturn]] void ReportFault(const translator::LoopOffload& offload,
                                const std::exception& fault);

  const ValidatorStats& stats() const { return stats_; }

 private:
  struct GoldenArray {
    const translator::ArrayConfig* config = nullptr;
    std::vector<std::byte> bytes;  ///< authoritative full-array image
  };

  [[noreturn]] void Diverge(const std::string& message);

  sim::Platform& platform_;
  ValidatorStats stats_;

  // State captured by BeginOffload for the in-flight offload.
  LaunchValues values_;
  std::vector<GoldenArray> arrays_;
};

}  // namespace accmg::runtime
