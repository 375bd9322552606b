#include "runtime/launch.h"

#include <algorithm>

#include "common/error.h"

namespace accmg::runtime {

using translator::EvalIndexExpr;

void LaunchValues::BindTo(ir::KernelExec& exec) const {
  exec.scalar_values = scalars;
  exec.iteration_offset = lower;
  exec.array_red_lower = red_lower;
  exec.array_red_length = red_length;
}

LaunchValues ResolveLaunchValues(const translator::LoopOffload& offload,
                                 const translator::HostEnv& env,
                                 const ArrayExtent& extent) {
  LaunchValues values;
  values.lower = EvalIndexExpr(*offload.lower_bound, env);
  std::int64_t upper = EvalIndexExpr(*offload.upper_bound, env);
  if (offload.upper_inclusive) ++upper;
  values.total = std::max<std::int64_t>(0, upper - values.lower);

  for (std::size_t s = 0; s < offload.scalars.size(); ++s) {
    const translator::TypedValue value =
        env.GetScalar(*offload.scalars[s].decl);
    values.scalars.push_back(ir::EncodeScalar(
        offload.kernel.scalars[s].type, value.AsDouble(), value.AsInt()));
  }
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    values.red_initial.push_back(
        env.GetScalar(*offload.scalar_reds[r].decl)
            .ToElementBits(offload.kernel.scalar_reductions[r].type));
  }
  for (const auto& red : offload.array_reds) {
    const std::int64_t count = extent(*red.decl);
    const std::int64_t lo =
        red.lower != nullptr ? EvalIndexExpr(*red.lower, env) : 0;
    const std::int64_t length =
        red.length != nullptr ? EvalIndexExpr(*red.length, env) : count - lo;
    ACCMG_REQUIRE(lo >= 0 && lo + length <= count,
                  "reductiontoarray section outside array '" +
                      red.decl->name + "'");
    values.red_lower.push_back(lo);
    values.red_length.push_back(length);
  }
  return values;
}

}  // namespace accmg::runtime
