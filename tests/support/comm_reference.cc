#include "support/comm_reference.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/error.h"
#include "common/trace.h"

namespace accmg::runtime::reference {

void PropagateReplicated(sim::Platform& platform,
                         const std::vector<int>& devices, ManagedArray& array,
                         double ready_at, sim::Stream stream) {
  trace::PhaseScope phase(trace::category::kDirtyMerge);
  if (devices.size() < 2) {
    for (int device : devices) {
      DeviceShard& shard = array.shard(device);
      if (shard.dirty1 != nullptr) {
        std::memset(shard.dirty1->bytes().data(), 0,
                    shard.dirty1->size_bytes());
        std::memset(shard.dirty2->bytes().data(), 0,
                    shard.dirty2->size_bytes());
      }
      shard.valid = true;
    }
    array.set_host_valid(false);
    return;
  }
  const std::size_t elem = array.elem_size();

  struct SenderDirty {
    int device = 0;
    std::vector<std::int64_t> indices;       // local == global (replica lo=0)
    std::vector<std::byte> values;           // indices.size() * elem bytes
    std::vector<std::int64_t> dirty_chunks;  // second-level dirty chunk ids
  };
  std::vector<SenderDirty> snapshots;

  for (int sender : devices) {
    DeviceShard& src = array.shard(sender);
    if (src.dirty1 == nullptr) continue;
    const std::int64_t n = src.loaded.size();
    const std::int64_t chunk_elems = src.chunk_elems;
    const std::int64_t chunks = (n + chunk_elems - 1) / chunk_elems;

    std::vector<std::uint8_t> level2(static_cast<std::size_t>(chunks));
    std::memcpy(level2.data(), src.dirty2->bytes().data(),
                static_cast<std::size_t>(chunks));
    platform.BillDeviceToHost(sender, static_cast<std::size_t>(chunks),
                              ready_at);

    SenderDirty snapshot;
    snapshot.device = sender;
    const std::uint8_t* dirty1 =
        reinterpret_cast<const std::uint8_t*>(src.dirty1->bytes().data());
    const std::byte* data = src.data->bytes().data();
    for (std::int64_t c = 0; c < chunks; ++c) {
      if (level2[static_cast<std::size_t>(c)] == 0) continue;
      snapshot.dirty_chunks.push_back(c);
      const std::int64_t chunk_lo = c * chunk_elems;
      const std::int64_t chunk_hi =
          std::min<std::int64_t>(n, chunk_lo + chunk_elems);
      for (std::int64_t i = chunk_lo; i < chunk_hi; ++i) {
        if (dirty1[i] == 0) continue;
        snapshot.indices.push_back(i);
        const std::size_t offset = snapshot.values.size();
        snapshot.values.resize(offset + elem);
        std::memcpy(snapshot.values.data() + offset,
                    data + static_cast<std::size_t>(i) * elem, elem);
      }
    }
    if (!snapshot.dirty_chunks.empty()) {
      snapshots.push_back(std::move(snapshot));
    }
  }

  for (const auto& snapshot : snapshots) {
    const DeviceShard& src = array.shard(snapshot.device);
    const std::int64_t n = src.loaded.size();
    const std::int64_t chunk_elems = src.chunk_elems;
    for (int receiver : devices) {
      if (receiver == snapshot.device) continue;
      DeviceShard& dst = array.shard(receiver);
      ACCMG_CHECK(dst.data != nullptr && dst.loaded == src.loaded,
                  "replica shards out of sync for '" + array.name() + "'");
      for (std::int64_t c : snapshot.dirty_chunks) {
        const std::int64_t chunk_lo = c * chunk_elems;
        const std::int64_t chunk_hi =
            std::min<std::int64_t>(n, chunk_lo + chunk_elems);
        const std::size_t chunk_bytes =
            static_cast<std::size_t>(chunk_hi - chunk_lo) * elem +
            static_cast<std::size_t>(chunk_hi - chunk_lo);  // + dirty bits
        platform.BillDeviceToDevice(snapshot.device, receiver, chunk_bytes,
                                    ready_at, stream);
      }
      std::byte* dst_data = dst.data->bytes().data();
      for (std::size_t k = 0; k < snapshot.indices.size(); ++k) {
        const std::int64_t i = snapshot.indices[k];
        std::memcpy(dst_data + static_cast<std::size_t>(i) * elem,
                    snapshot.values.data() + k * elem, elem);
      }
    }
  }

  for (int device : devices) {
    DeviceShard& shard = array.shard(device);
    if (shard.dirty1 != nullptr) {
      std::memset(shard.dirty1->bytes().data(), 0, shard.dirty1->size_bytes());
      std::memset(shard.dirty2->bytes().data(), 0, shard.dirty2->size_bytes());
    }
    shard.valid = true;
  }
  array.set_host_valid(false);
}

void ReplayWriteMisses(sim::Platform& platform,
                       const std::vector<int>& devices, ManagedArray& array,
                       double ready_at, sim::Stream stream) {
  trace::PhaseScope phase(trace::category::kMissFlush);
  const std::size_t elem = array.elem_size();
  for (int sender : devices) {
    DeviceShard& src = array.shard(sender);
    if (src.miss.records.empty()) continue;

    // Group the (address, data) records by owning GPU. An ordered map makes
    // the per-owner billing sequence ascending, matching the sorted order
    // the optimized path uses.
    std::map<int, std::vector<ir::WriteMissRecord>> by_owner;
    for (const auto& record : src.miss.records) {
      const int owner = array.OwnerOf(record.index);
      ACCMG_REQUIRE(owner >= 0,
                    "write-miss to element " + std::to_string(record.index) +
                        " of '" + array.name() + "' which no GPU owns");
      by_owner[owner].push_back(record);
    }
    for (auto& [owner, records] : by_owner) {
      DeviceShard& dst = array.shard(owner);
      platform.BillDeviceToDevice(sender, owner, records.size() * 16,
                                  ready_at, stream);
      std::byte* dst_data = dst.data->bytes().data();
      for (const auto& record : records) {
        ACCMG_CHECK(dst.loaded.Contains(record.index),
                    "owner segment does not contain missed element");
        const std::size_t local =
            static_cast<std::size_t>(record.index - dst.loaded.lo);
        // The raw field holds the element bits in the low `elem` bytes.
        std::memcpy(dst_data + local * elem, &record.raw, elem);
      }
    }
    src.miss.records.clear();
  }
  array.set_host_valid(false);
}

void CombineArrayReduction(
    sim::Platform& platform, const std::vector<int>& devices,
    ManagedArray& dest, ir::RedOp op, ir::ValType type, std::int64_t lower,
    std::int64_t length,
    const std::vector<const std::vector<std::uint64_t>*>& partials,
    double ready_at, sim::Stream stream) {
  ACCMG_REQUIRE(!devices.empty(), "reduction combine needs devices");
  ACCMG_REQUIRE(partials.size() == devices.size(),
                "one partial per device expected");
  const std::size_t elem = dest.elem_size();
  const std::size_t num_devices = devices.size();
  const auto n = static_cast<std::size_t>(length);

  // Same pairwise tree order as the optimized path, with plain serial loops.
  std::vector<std::vector<std::uint64_t>> work(num_devices);
  for (std::size_t g = 0; g < num_devices; ++g) {
    ACCMG_REQUIRE(partials[g]->size() >= n, "partial shorter than section");
    work[g].assign(partials[g]->begin(),
                   partials[g]->begin() + static_cast<std::int64_t>(n));
  }
  for (std::size_t stride = 1; stride < num_devices; stride *= 2) {
    for (std::size_t i = 0; i + stride < num_devices; i += 2 * stride) {
      for (std::size_t j = 0; j < n; ++j) {
        work[i][j] = ir::CombineRaw(op, type, work[i][j], work[i + stride][j]);
      }
    }
  }
  std::vector<std::uint64_t>& combined = work[0];

  double end = platform.clock().Now();
  for (std::size_t g = 1; g < num_devices; ++g) {
    end = std::max(end, platform.BillDeviceToDevice(devices[g], devices[0],
                                                    n * elem, ready_at,
                                                    stream));
  }
  // Same broadcast chaining as the optimized path: the combined result
  // exists only once every partial has arrived.
  const double combine_ready = std::max(ready_at, end);

  for (std::size_t g = 0; g < num_devices; ++g) {
    DeviceShard& shard = dest.shard(devices[g]);
    ACCMG_CHECK(shard.data != nullptr,
                "reduction destination has no device copy");
    std::byte* data = shard.data->bytes().data();
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t index = lower + static_cast<std::int64_t>(j);
      if (!shard.loaded.Contains(index)) continue;
      const std::size_t local =
          static_cast<std::size_t>(index - shard.loaded.lo);
      if (g == 0) {
        std::uint64_t current = 0;
        std::memcpy(&current, data + local * elem, elem);
        // Fold the pre-kernel value in exactly once.
        combined[j] = ir::CombineRaw(op, type, current, combined[j]);
      }
      std::memcpy(data + local * elem, &combined[j], elem);
    }
    if (g != 0) {
      platform.BillDeviceToDevice(devices[0], devices[g], n * elem,
                                  combine_ready, stream);
    }
    shard.valid = true;
  }
  dest.set_host_valid(false);
}

}  // namespace accmg::runtime::reference
