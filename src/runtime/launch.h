// Launch-time values of one offloaded loop, resolved from the host
// environment once and shared by every execution path: the multi-GPU
// executor, the validator's golden run and the CPU baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ir/exec.h"
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

  /// Installs the scalars, reduction sections and iteration offset `lower`.
  void BindTo(ir::KernelExec& exec) const;
};

/// Element count of the array a reductiontoarray clause names.
using ArrayExtent = std::function<std::int64_t(const frontend::VarDecl&)>;

/// Evaluates the loop bounds, scalar arguments and reduction sections of
/// `offload` in `env`. Throws Error when a reductiontoarray section falls
/// outside its destination.
LaunchValues ResolveLaunchValues(const translator::LoopOffload& offload,
                                 const translator::HostEnv& env,
                                 const ArrayExtent& extent);

}  // namespace accmg::runtime
