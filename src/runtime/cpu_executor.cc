#include "runtime/cpu_executor.h"

#include <algorithm>

#include "common/error.h"
#include "ir/exec.h"
#include "runtime/launch.h"

namespace accmg::runtime {

using translator::HostArray;
using translator::HostEnv;
using translator::TypedValue;

CpuExecutor::CpuExecutor(sim::Platform& platform) : platform_(platform) {}

void CpuExecutor::RunOffload(const translator::LoopOffload& offload,
                             HostEnv& env, const HostArrayResolver& resolve) {
  const LaunchValues values = ResolveLaunchValues(
      offload, env,
      [&](const frontend::VarDecl& decl) { return resolve(decl).count; });

  ir::KernelExec exec(offload.decoded);
  values.BindTo(exec);
  for (std::size_t a = 0; a < offload.arrays.size(); ++a) {
    const HostArray array = resolve(*offload.arrays[a].decl);
    ir::ArrayBinding& binding = exec.bindings[a];
    binding.data = static_cast<std::byte*>(array.data);
    binding.lo = 0;
    binding.hi = array.count;
    binding.write_lo = 0;
    binding.write_hi = array.count;
    binding.logical_size = array.count;
  }
  exec.ResetOutputs();

  sim::KernelLaunch launch;
  launch.body = &exec;
  launch.num_threads = values.total;
  launch.name = offload.name;
  const sim::KernelStats stats = platform_.RunOnHost(launch);

  // Simulated CPU time: roofline against the CpuSpec.
  const auto& cpu = platform_.host_spec();
  const double compute_s =
      static_cast<double>(stats.instructions) / cpu.instr_per_sec;
  const double memory_s =
      static_cast<double>(stats.bytes_read + stats.bytes_written) /
      cpu.mem_bandwidth_bps;
  platform_.clock().AddSerial(sim::TimeCategory::kHostCompute,
                              std::max(compute_s, memory_s));

  // Scalar reductions.
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    const auto& slot = offload.kernel.scalar_reductions[r];
    const std::uint64_t acc =
        ir::CombineRaw(slot.op, slot.type, values.red_initial[r],
                       exec.scalar_red_results()[r]);
    env.SetScalar(*offload.scalar_reds[r].decl,
                  TypedValue::FromElementBits(slot.type, acc));
  }

  // Array reductions fold straight into host memory.
  for (std::size_t r = 0; r < offload.array_reds.size(); ++r) {
    const auto& red = offload.array_reds[r];
    const auto& slot = offload.kernel.array_reductions[r];
    ir::FoldPartialInto(slot.op, slot.type,
                        static_cast<std::byte*>(resolve(*red.decl).data),
                        values.red_lower[r], exec.array_red_partials()[r]);
  }
}

}  // namespace accmg::runtime
