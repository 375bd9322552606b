#include "runtime/reduction.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace accmg::runtime {

std::vector<std::uint64_t> CombinePartials(
    ThreadPool& pool, ir::RedOp op, ir::ValType type, std::int64_t length,
    const std::vector<const std::vector<std::uint64_t>*>& partials) {
  ACCMG_REQUIRE(!partials.empty(), "reduction combine needs partials");
  const auto n = static_cast<std::size_t>(length);
  const std::size_t parts = partials.size();
  // Tree-combine into mutable work buffers (the partials stay const). Level
  // by level, node i absorbs node i + stride; pairs at one level are
  // independent, so a single pool dispatch per level covers them all, split
  // over element ranges.
  std::vector<std::vector<std::uint64_t>> work(parts);
  for (std::size_t g = 0; g < parts; ++g) {
    ACCMG_REQUIRE(partials[g]->size() >= n, "partial shorter than section");
    work[g].assign(partials[g]->begin(),
                   partials[g]->begin() + static_cast<std::int64_t>(n));
  }
  for (std::size_t stride = 1; stride < parts; stride *= 2) {
    pool.ParallelForChunks(
        0, length, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::size_t i = 0; i + stride < parts; i += 2 * stride) {
            ir::CombineRawSpan(op, type, work[i].data() + lo,
                               work[i + stride].data() + lo,
                               static_cast<std::size_t>(hi - lo));
          }
        });
  }
  return std::move(work[0]);
}

double CombineArrayReduction(
    sim::Platform& platform, const std::vector<int>& devices,
    ManagedArray& dest, ir::RedOp op, ir::ValType type, std::int64_t lower,
    std::int64_t length,
    const std::vector<const std::vector<std::uint64_t>*>& partials,
    double ready_at, sim::Stream stream) {
  ACCMG_REQUIRE(partials.size() == devices.size(),
                "one partial per device expected");
  const std::size_t elem = dest.elem_size();
  const std::size_t num_devices = devices.size();
  const auto n = static_cast<std::size_t>(length);
  ThreadPool& pool = platform.workers();
  std::vector<std::uint64_t> combined =
      CombinePartials(pool, op, type, length, partials);

  // Each non-root partial travels to the combining GPU (same bills as the
  // serial chain, in the same order).
  double end = platform.clock().Now();
  for (std::size_t g = 1; g < num_devices; ++g) {
    end = std::max(end, platform.BillDeviceToDevice(devices[g], devices[0],
                                                    n * elem, ready_at,
                                                    stream));
  }

  // Fold the pre-kernel value into the combined result exactly once — on
  // the root replica, which the replica-placement policy keeps complete —
  // then write the result there.
  {
    DeviceShard& shard = dest.shard(devices[0]);
    ACCMG_CHECK(shard.data != nullptr,
                "reduction destination has no device copy");
    std::byte* data = shard.data->bytes().data();
    // Hoist the per-element residency test: `loaded` is an interval, so the
    // resident slice of [lower, lower+length) is one subrange of j.
    const std::int64_t j_lo =
        std::max<std::int64_t>(0, shard.loaded.lo - lower);
    const std::int64_t j_hi = std::max<std::int64_t>(
        j_lo, std::min<std::int64_t>(length, shard.loaded.hi - lower));
    pool.ParallelForChunks(
        j_lo, j_hi, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t j = lo; j < hi; ++j) {
            const std::size_t local =
                static_cast<std::size_t>(lower + j - shard.loaded.lo);
            std::uint64_t current = 0;
            std::memcpy(&current, data + local * elem, elem);
            combined[static_cast<std::size_t>(j)] = ir::CombineRaw(
                op, type, current, combined[static_cast<std::size_t>(j)]);
            std::memcpy(data + local * elem,
                        &combined[static_cast<std::size_t>(j)], elem);
          }
        });
    shard.valid = true;
  }

  // Broadcast into the remaining replicas. Shards are disjoint, so one pool
  // dispatch writes them all; the bills stay serial and ordered.
  for (std::size_t g = 1; g < num_devices; ++g) {
    ACCMG_CHECK(dest.shard(devices[g]).data != nullptr,
                "reduction destination has no device copy");
  }
  if (num_devices > 1) {
    pool.ParallelForChunks(
        0, length, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::size_t g = 1; g < num_devices; ++g) {
            DeviceShard& shard = dest.shard(devices[g]);
            std::byte* data = shard.data->bytes().data();
            // Clip [lo, hi) to the resident slice of this replica.
            const std::int64_t c_lo =
                std::max<std::int64_t>(lo, shard.loaded.lo - lower);
            const std::int64_t c_hi = std::max<std::int64_t>(
                c_lo, std::min<std::int64_t>(hi, shard.loaded.hi - lower));
            if (c_hi <= c_lo) continue;
            std::byte* out = data + static_cast<std::size_t>(
                                        lower + c_lo - shard.loaded.lo) *
                                        elem;
            if (elem == 8) {
              std::memcpy(out, combined.data() + c_lo,
                          static_cast<std::size_t>(c_hi - c_lo) * 8);
            } else {
              for (std::int64_t j = c_lo; j < c_hi; ++j) {
                std::memcpy(out + static_cast<std::size_t>(j - c_lo) * elem,
                            &combined[static_cast<std::size_t>(j)], elem);
              }
            }
          }
        });
  }
  // The broadcast carries the combined result, which exists only once every
  // partial has arrived — chain it after the slowest incoming transfer.
  const double combine_ready = std::max(ready_at, end);
  for (std::size_t g = 1; g < num_devices; ++g) {
    end = std::max(end,
                   platform.BillDeviceToDevice(devices[0], devices[g],
                                               n * elem, combine_ready,
                                               stream));
    dest.shard(devices[g]).valid = true;
  }
  dest.set_host_valid(false);
  return end;
}

}  // namespace accmg::runtime
