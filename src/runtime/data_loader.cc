#include "runtime/data_loader.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace accmg::runtime {

namespace {

/// Device memory reserved per GPU for the write-miss system buffer of each
/// miss-checked array.
constexpr std::size_t kMissBufferBytes = 4u << 20;

/// Registry handles mirroring LoaderStats into the unified metrics
/// namespace.
struct LoaderMetrics {
  metrics::Counter& loads_performed;
  metrics::Counter& loads_skipped;
  metrics::Counter& gathers;

  static LoaderMetrics& Get() {
    static LoaderMetrics m{
        metrics::Registry::Global().counter("loader.loads_performed"),
        metrics::Registry::Global().counter("loader.loads_skipped"),
        metrics::Registry::Global().counter("loader.gathers"),
    };
    return m;
  }
};

}  // namespace

DataLoader::DataLoader(sim::Platform& platform, const ExecOptions& options,
                       std::vector<int> devices)
    : platform_(platform), options_(options), devices_(std::move(devices)) {
  ACCMG_REQUIRE(!devices_.empty(), "data loader needs at least one device");
}

double DataLoader::EnsurePlacement(const ArrayRequirement& req,
                                   double ready_at) {
  ACCMG_REQUIRE(req.array != nullptr, "requirement without an array");
  trace::Span span("load:" + req.array->name(), trace::category::kLoader);
  ACCMG_REQUIRE(req.read_ranges.size() == devices_.size() &&
                    req.own_ranges.size() == devices_.size(),
                "requirement ranges must match the device list");
  const double end = req.distributed ? LoadDistributed(req, ready_at)
                                     : LoadReplicated(req, ready_at);
  EnsureSystemBuffers(req);
  return end;
}

double DataLoader::LoadReplicated(const ArrayRequirement& req,
                                  double ready_at) {
  ManagedArray& array = *req.array;
  const Range full{0, array.count()};

  // Reload-skip: already replicated and valid everywhere we need it.
  bool satisfied = array.placement() == Placement::kReplicated;
  if (satisfied) {
    for (int device : devices_) {
      const DeviceShard& shard = array.shard(device);
      satisfied &= shard.valid && shard.loaded == full;
    }
  }
  if (satisfied) {
    // Shards of devices outside the participating set may survive from an
    // earlier, larger device set. They must not stay behind: the allocation
    // is leaked memory, and a stale-but-valid replica would be picked up by
    // later gathers/owner scans. Participating replicas are valid, so
    // releasing loses nothing.
    ReleaseNonParticipating(array);
    ++stats_.loads_skipped;
    LoaderMetrics::Get().loads_skipped.Add();
    return platform_.clock().Now();
  }

  // Transitioning placements: make the host copy authoritative first. This
  // must happen before non-participating shards are released — they may
  // hold the only valid copy.
  double end = platform_.clock().Now();
  if (!array.host_valid()) end = GatherToHost(array, ready_at);

  ReleaseNonParticipating(array);

  for (int device : devices_) {
    DeviceShard& shard = array.shard(device);
    if (shard.valid && shard.loaded == full &&
        array.placement() == Placement::kReplicated) {
      continue;  // this replica is already current
    }
    if (shard.data == nullptr || shard.loaded != full) {
      shard.data = platform_.device(device).Allocate(
          "user:" + array.name(), array.total_bytes());
      shard.loaded = full;
    }
    end = std::max(end,
                   platform_.CopyHostToDevice(*shard.data, 0,
                                              array.host_data(),
                                              array.total_bytes(), ready_at));
    shard.owned = full;
    shard.valid = true;
    ++stats_.loads_performed;
    LoaderMetrics::Get().loads_performed.Add();
  }
  array.set_placement(Placement::kReplicated);
  return end;
}

double DataLoader::LoadDistributed(const ArrayRequirement& req,
                                   double ready_at) {
  ManagedArray& array = *req.array;

  // Reload-skip: same ownership and the loaded range already covers the
  // request (a superset is fine — e.g. a halo-free kernel following a halo
  // kernel; the comm manager keeps the whole loaded range coherent).
  bool satisfied = array.placement() == Placement::kDistributed;
  if (satisfied) {
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      const DeviceShard& shard = array.shard(devices_[i]);
      satisfied &= shard.valid && shard.owned == req.own_ranges[i] &&
                   shard.loaded.lo <= req.read_ranges[i].lo &&
                   shard.loaded.hi >= req.read_ranges[i].hi;
    }
    // The per-index comparison above only sees this loader's device list.
    // If the previous placement involved other devices (a larger set, or a
    // different ordering that left shards on devices we no longer drive),
    // their still-valid shards would keep claiming ownership in OwnerOf
    // scans and shadow the new partition — so the skip is only safe when
    // every non-participating shard is already invalid.
    for (int d = 0; satisfied && d < array.num_shards(); ++d) {
      if (!IsParticipating(d)) satisfied &= !array.shard(d).valid;
    }
  }
  if (satisfied) {
    ++stats_.loads_skipped;
    LoaderMetrics::Get().loads_skipped.Add();
    return platform_.clock().Now();
  }

  double end = platform_.clock().Now();
  if (!array.host_valid()) end = GatherToHost(array, ready_at);
  ReleaseNonParticipating(array);

  const std::size_t elem = array.elem_size();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const int device = devices_[i];
    DeviceShard& shard = array.shard(device);
    const Range read = req.read_ranges[i];
    ACCMG_CHECK(read.lo >= 0 && read.hi <= array.count(),
                "segment range outside array '" + array.name() + "'");
    if (shard.data == nullptr || shard.loaded != read) {
      shard.data = platform_.device(device).Allocate(
          "user:" + array.name(),
          static_cast<std::size_t>(read.size()) * elem);
      shard.loaded = read;
    }
    end = std::max(
        end, platform_.CopyHostToDevice(
                 *shard.data, 0,
                 static_cast<const std::byte*>(array.host_data()) +
                     static_cast<std::size_t>(read.lo) * elem,
                 static_cast<std::size_t>(read.size()) * elem, ready_at));
    shard.owned = req.own_ranges[i];
    shard.valid = true;
    ++stats_.loads_performed;
    LoaderMetrics::Get().loads_performed.Add();
  }
  array.set_placement(Placement::kDistributed);
  return end;
}

void DataLoader::RemoveDevice(int device) {
  devices_.erase(std::remove(devices_.begin(), devices_.end(), device),
                 devices_.end());
  ACCMG_CHECK(!devices_.empty(),
              "data loader lost its last device — the executor must fail the "
              "offload before shrinking to an empty set");
}

bool DataLoader::IsParticipating(int device) const {
  for (int d : devices_) {
    if (d == device) return true;
  }
  return false;
}

void DataLoader::ReleaseNonParticipating(ManagedArray& array) {
  for (int d = 0; d < array.num_shards(); ++d) {
    if (IsParticipating(d)) continue;
    DeviceShard& shard = array.shard(d);
    if (shard.data != nullptr || shard.valid || shard.dirty1 != nullptr ||
        shard.miss_capacity != nullptr) {
      shard.Release();
    }
  }
}

void DataLoader::EnsureSystemBuffers(const ArrayRequirement& req) {
  ManagedArray& array = *req.array;
  const std::size_t elem = array.elem_size();
  const auto chunk_elems = static_cast<std::int64_t>(
      std::max<std::size_t>(1, options_.dirty_chunk_bytes / elem));

  for (int device : devices_) {
    DeviceShard& shard = array.shard(device);
    if (req.dirty_tracked) {
      const std::int64_t n = shard.loaded.size();
      const std::int64_t chunks = (n + chunk_elems - 1) / chunk_elems;
      if (shard.dirty1 == nullptr ||
          shard.dirty1->size_bytes() != static_cast<std::size_t>(n) ||
          shard.chunk_elems != chunk_elems) {
        shard.dirty1 = platform_.device(device).Allocate(
            "sys:dirty1:" + array.name(), static_cast<std::size_t>(n));
        shard.dirty2 = platform_.device(device).Allocate(
            "sys:dirty2:" + array.name(), static_cast<std::size_t>(chunks));
        // Staging area for receiving one in-flight dirty chunk (+ its
        // level-1 bits) from each peer during the merge, capped by the
        // array's own footprint for small arrays.
        const std::size_t peers = devices_.size() - 1;
        if (peers > 0) {
          const std::size_t per_peer =
              std::min(options_.dirty_chunk_bytes +
                           static_cast<std::size_t>(chunk_elems),
                       static_cast<std::size_t>(n) * (elem + 1));
          shard.staging = platform_.device(device).Reserve(
              "sys:staging:" + array.name(), peers * per_peer);
        }
        shard.chunk_elems = chunk_elems;
      }
      std::memset(shard.dirty1->bytes().data(), 0,
                  shard.dirty1->size_bytes());
      std::memset(shard.dirty2->bytes().data(), 0,
                  shard.dirty2->size_bytes());
    } else {
      shard.dirty1.reset();
      shard.dirty2.reset();
      shard.staging.reset();
      shard.chunk_elems = 0;
    }
    if (req.miss_checked) {
      if (shard.miss_capacity == nullptr) {
        shard.miss_capacity = platform_.device(device).Reserve(
            "sys:miss:" + array.name(), kMissBufferBytes);
      }
      shard.miss.records.clear();
    } else {
      shard.miss_capacity.reset();
      shard.miss.records.clear();
    }
  }
}

double DataLoader::GatherToHost(ManagedArray& array, double ready_at) {
  if (array.host_valid()) return platform_.clock().Now();
  trace::Span span("gather:" + array.name(), trace::category::kLoader);
  const std::size_t elem = array.elem_size();
  auto* host = static_cast<std::byte*>(array.host_data());
  double end = platform_.clock().Now();
  switch (array.placement()) {
    case Placement::kHostOnly:
      ACCMG_CHECK(false, "array '" + array.name() +
                             "' is host-only but the host copy is stale");
      break;
    case Placement::kReplicated: {
      // Any valid replica is authoritative. Prefer replicas on devices the
      // fault injector still considers alive, so a retried gather after a
      // device loss reads a healthy copy instead of re-faulting on the dead
      // one; the dead replica is only a last resort (and will surface a
      // DeviceLostError that the caller escalates as typed data loss).
      const sim::FaultInjector& faults = platform_.faults();
      int pick = -1;
      for (int d = 0; d < array.num_shards(); ++d) {
        const DeviceShard& shard = array.shard(d);
        if (!shard.valid) continue;
        if (pick < 0) pick = d;
        if (!faults.armed() || faults.alive(d)) {
          pick = d;
          break;
        }
      }
      if (pick >= 0) {
        const DeviceShard& shard = array.shard(pick);
        end = platform_.CopyDeviceToHost(host, *shard.data, 0,
                                         array.total_bytes(), ready_at);
        array.set_host_valid(true);
        ++stats_.gathers;
        LoaderMetrics::Get().gathers.Add();
        return end;
      }
      ACCMG_CHECK(false, "replicated array '" + array.name() +
                             "' has no valid replica to gather from");
      break;
    }
    case Placement::kDistributed: {
      for (int d = 0; d < array.num_shards(); ++d) {
        const DeviceShard& shard = array.shard(d);
        if (!shard.valid || shard.owned.empty()) continue;
        const std::size_t offset_in_segment =
            static_cast<std::size_t>(shard.owned.lo - shard.loaded.lo) * elem;
        end = std::max(
            end, platform_.CopyDeviceToHost(
                     host + static_cast<std::size_t>(shard.owned.lo) * elem,
                     *shard.data, offset_in_segment,
                     static_cast<std::size_t>(shard.owned.size()) * elem,
                     ready_at));
      }
      array.set_host_valid(true);
      ++stats_.gathers;
      LoaderMetrics::Get().gathers.Add();
      break;
    }
  }
  return end;
}

double DataLoader::ScatterFromHost(ManagedArray& array, double ready_at) {
  ACCMG_REQUIRE(array.host_valid(),
                "update device from a stale host copy of '" + array.name() +
                    "'");
  const std::size_t elem = array.elem_size();
  const auto* host = static_cast<const std::byte*>(array.host_data());
  const sim::FaultInjector& faults = platform_.faults();
  double end = platform_.clock().Now();
  for (int d = 0; d < array.num_shards(); ++d) {
    DeviceShard& shard = array.shard(d);
    if (shard.data == nullptr) continue;
    if (faults.armed() && !faults.alive(d)) {
      // The host copy is authoritative (REQUIRE above); a shard stranded on
      // a dead device must not keep claiming validity.
      shard.valid = false;
      continue;
    }
    end = std::max(
        end, platform_.CopyHostToDevice(
                 *shard.data, 0,
                 host + static_cast<std::size_t>(shard.loaded.lo) * elem,
                 static_cast<std::size_t>(shard.loaded.size()) * elem,
                 ready_at));
    shard.valid = true;
  }
  return end;
}

}  // namespace accmg::runtime
