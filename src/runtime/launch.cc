#include "runtime/launch.h"

#include <algorithm>

#include "common/error.h"
#include "runtime/reduction.h"

namespace accmg::runtime {

using translator::EvalIndexExpr;

void LaunchValues::BindTo(ir::KernelExec& exec, Range part) const {
  exec.scalar_values = scalars;
  exec.iteration_offset = lower + part.lo;
  exec.array_red_lower = red_lower;
  exec.array_red_length = red_length;
  exec.ResetOutputs();
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

void AppendPartLaunches(std::vector<sim::DeviceLaunch>& batch, int device,
                        ir::KernelExec& body, const std::string& name,
                        int block_size, std::int64_t size,
                        const SplitPlan& plan, double halo_ready) {
  auto add = [&](std::int64_t first, std::int64_t threads, const char* suffix,
                 double ready_at) {
    batch.push_back({.device_id = device,
                     .launch = {.body = &body,
                                .num_threads = threads,
                                .block_size = block_size,
                                .name = suffix != nullptr ? name + suffix : name,
                                .ready_at = ready_at,
                                .first_thread = first}});
  };
  if (!plan.split) {
    add(0, size, nullptr, halo_ready);
    return;
  }
  add(plan.lead, size - plan.lead - plan.trail, ":interior", 0);
  if (plan.lead > 0) add(0, plan.lead, ":lead", halo_ready);
  if (plan.trail > 0) add(size - plan.trail, plan.trail, ":trail", halo_ready);
}

std::uint64_t FoldScalarReduction(
    const translator::LoopOffload& offload, const LaunchValues& values,
    const std::vector<std::unique_ptr<ir::KernelExec>>& parts,
    std::size_t r) {
  const auto& slot = offload.kernel.scalar_reductions[r];
  std::uint64_t acc = values.red_initial[r];
  for (const auto& part : parts) {
    acc = ir::CombineRaw(slot.op, slot.type, acc,
                         part->scalar_red_results()[r]);
  }
  return acc;
}

HostRunResult RunOffloadOnHost(sim::Platform& platform,
                               const translator::LoopOffload& offload,
                               const LaunchValues& values,
                               const LaunchGeometry& geometry,
                               const HostArrayResolver& host_array) {
  std::vector<std::unique_ptr<ir::KernelExec>> parts;
  std::vector<sim::DeviceLaunch> batch;
  for (std::size_t g = 0; g < geometry.tasks.size(); ++g) {
    const Range task = geometry.tasks[g];
    auto& exec = *parts.emplace_back(
        std::make_unique<ir::KernelExec>(offload.decoded));
    values.BindTo(exec, task);
    for (std::size_t a = 0; a < offload.arrays.size(); ++a) {
      const translator::HostArray array = host_array(*offload.arrays[a].decl);
      exec.bindings[a] = {.data = static_cast<std::byte*>(array.data),
                          .hi = array.count,
                          .write_hi = array.count,
                          .logical_size = array.count};
    }
    AppendPartLaunches(batch, 0, exec, offload.name,
                       sim::KernelLaunch{}.block_size, task.size(),
                       geometry.plans[g], 0);
  }
  platform.RunOnHost(batch);

  HostRunResult run;
  for (const sim::DeviceLaunch& dl : batch) run.stats += dl.stats;
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    run.scalar_reds.push_back(FoldScalarReduction(offload, values, parts, r));
  }
  for (std::size_t r = 0; r < offload.array_reds.size(); ++r) {
    const auto& slot = offload.kernel.array_reductions[r];
    std::vector<const std::vector<std::uint64_t>*> partials;
    for (const auto& part : parts) {
      partials.push_back(&part->array_red_partials()[r]);
    }
    ir::FoldPartialInto(
        slot.op, slot.type,
        static_cast<std::byte*>(host_array(*offload.array_reds[r].decl).data),
        values.red_lower[r],
        CombinePartials(platform.workers(), slot.op, slot.type,
                        values.red_length[r], partials));
  }
  return run;
}

void RunOffloadOnCpu(sim::Platform& platform,
                     const translator::LoopOffload& offload,
                     translator::HostEnv& env,
                     const HostArrayResolver& host_array) {
  const LaunchValues values = ResolveLaunchValues(
      offload, env,
      [&](const frontend::VarDecl& decl) { return host_array(decl).count; });
  const HostRunResult run = RunOffloadOnHost(
      platform, offload, values,
      LaunchGeometry{{Range{0, values.total}}, {SplitPlan{}}}, host_array);
  // Simulated CPU time: roofline against the CpuSpec.
  const sim::CpuSpec& cpu = platform.host_spec();
  const double compute_s =
      static_cast<double>(run.stats.instructions) / cpu.instr_per_sec;
  const double memory_s =
      static_cast<double>(run.stats.bytes_read + run.stats.bytes_written) /
      cpu.mem_bandwidth_bps;
  platform.clock().AddSerial(sim::TimeCategory::kHostCompute,
                             std::max(compute_s, memory_s));
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    env.SetScalar(*offload.scalar_reds[r].decl,
                  translator::TypedValue::FromElementBits(
                      offload.kernel.scalar_reductions[r].type,
                      run.scalar_reds[r]));
  }
}

}  // namespace accmg::runtime
