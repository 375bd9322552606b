// Inter-GPU array-reduction combine (paper Section IV-B4), factored out of
// the executor so differential tests and benchmarks can drive it directly.
// Its pairwise tree, CombinePartials, is also the inter-part fold of the
// host runner (runtime/launch.h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "ir/exec.h"
#include "ir/ir.h"
#include "runtime/managed_array.h"
#include "sim/platform.h"

namespace accmg::runtime {

/// Combines dense partials of one reduction-to-array section pairwise —
/// tree order ((p0 op p1) op (p2 op p3)) ... — and returns the first
/// `length` elements of the result. Each entry of `partials` holds at least
/// `length` raw element values (KernelExec::array_red_partials layout). The
/// work runs on `pool`; the result is independent of the pool size.
std::vector<std::uint64_t> CombinePartials(
    ThreadPool& pool, ir::RedOp op, ir::ValType type, std::int64_t length,
    const std::vector<const std::vector<std::uint64_t>*>& partials);

/// Combines the per-GPU dense partials of one reduction-to-array section by
/// CombinePartials, then folds the pre-kernel value of `dest` in exactly
/// once and broadcasts the result into every replica of the destination.
///
/// `partials` is parallel to `devices`; each entry holds `length` raw
/// element values (KernelExec::array_red_partials layout). The section is
/// [lower, lower + length) of `dest`.
///
/// Billing is that of the serial combine chain: every non-root partial
/// travels to devices[0] (length * elem bytes each), then the combined
/// result travels devices[0] -> g for every other replica, in ascending
/// device order. The host-side combine work runs on the platform's worker
/// pool; simulated time and billed bytes are independent of the pool size.
///
/// Transfers start no earlier than `ready_at` and use `stream`'s copy
/// engine (the async pipeline routes them through the second DMA engine).
/// Returns the simulated end time of the last transfer issued.
double CombineArrayReduction(
    sim::Platform& platform, const std::vector<int>& devices,
    ManagedArray& dest, ir::RedOp op, ir::ValType type, std::int64_t lower,
    std::int64_t length,
    const std::vector<const std::vector<std::uint64_t>*>& partials,
    double ready_at = 0, sim::Stream stream = sim::Stream::kDefault);

}  // namespace accmg::runtime
