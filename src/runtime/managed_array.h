// Device placement state for one user array across the multi-GPU node.
//
// A ManagedArray tracks where the authoritative bytes currently live (host,
// replicated on devices, or distributed across owner segments) and owns all
// device allocations associated with the array: data segments ("User" memory
// in the paper's Fig. 9) and dirty-bit buffers plus the staging and write-miss
// reservations ("System").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/exec.h"
#include "ir/ir.h"
#include "sim/platform.h"

namespace accmg::runtime {

enum class Placement : int {
  kHostOnly,     ///< no device copy is current
  kReplicated,   ///< every participating device holds the full array
  kDistributed,  ///< devices hold owner segments (+ halos)
};

const char* PlacementName(Placement p);

/// Closed interval arithmetic helper for element ranges [lo, hi).
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t size() const { return hi > lo ? hi - lo : 0; }
  bool empty() const { return hi <= lo; }
  bool Contains(std::int64_t i) const { return i >= lo && i < hi; }
  friend bool operator==(const Range&, const Range&) = default;
};

/// Per-device placement state.
struct DeviceShard {
  std::unique_ptr<sim::DeviceBuffer> data;  ///< segment [loaded.lo, loaded.hi)
  Range loaded;   ///< readable range resident in `data`
  Range owned;    ///< writable (authoritative) sub-range
  bool valid = false;

  // System memory (replicated arrays only): two-level dirty bits plus the
  // staging area used to receive peers' dirty chunks during the merge. The
  // merge applies chunks element-wise and bills the wire cost, so the
  // staging area is accounted but never backed (sim::Reservation).
  std::unique_ptr<sim::DeviceBuffer> dirty1;
  std::unique_ptr<sim::DeviceBuffer> dirty2;
  std::unique_ptr<sim::Reservation> staging;
  std::int64_t chunk_elems = 0;

  // System memory (distributed arrays with unproven writes): the device's
  // write-miss buffer. Kernels record misses into `miss` on the host side,
  // so its device capacity is accounted but never backed.
  std::unique_ptr<sim::Reservation> miss_capacity;
  ir::MissBuffer miss;

  /// Frees every allocation held by this shard and resets it to the
  /// "nothing resident" state. Used when a device leaves the participating
  /// set of an array (the shard would otherwise keep its stale segment —
  /// leaked device memory and a stale-but-valid replica hazard).
  void Release();
};

class ManagedArray {
 public:
  ManagedArray(std::string name, ir::ValType elem, std::int64_t count,
               void* host_data, int num_devices);

  const std::string& name() const { return name_; }
  ir::ValType elem() const { return elem_; }
  std::int64_t count() const { return count_; }
  std::size_t elem_size() const { return ir::ValTypeSize(elem_); }
  std::size_t total_bytes() const { return elem_size() * count_; }
  void* host_data() { return host_data_; }
  const void* host_data() const { return host_data_; }

  Placement placement() const { return placement_; }
  void set_placement(Placement p) { placement_ = p; }

  /// 2-D shape metadata, set by a two-dimensional data-clause section
  /// (`u[0:n][0:m]`): the array is a row-major rows x cols grid. Purely
  /// descriptive — placement and transfer machinery stay 1-D over the
  /// flattened elements (row blocks are contiguous) — but the validator uses
  /// it to attribute divergences to a (row, col) coordinate and the loader's
  /// scatter/gather naturally become row-block operations. rows()/cols()
  /// are 0 for 1-D arrays.
  void SetShape(std::int64_t rows, std::int64_t cols) {
    rows_ = rows;
    cols_ = cols;
  }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  bool is_2d() const { return cols_ > 0; }

  bool host_valid() const { return host_valid_; }
  void set_host_valid(bool v) { host_valid_ = v; }

  DeviceShard& shard(int device) { return shards_[static_cast<size_t>(device)]; }
  const DeviceShard& shard(int device) const {
    return shards_[static_cast<size_t>(device)];
  }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Device that owns global element index `i` under the current distributed
  /// placement; -1 when no owner is found.
  int OwnerOf(std::int64_t i) const;

  /// Bytes currently allocated for user data across devices.
  std::size_t UserBytes() const;
  /// Bytes currently allocated or reserved for runtime bookkeeping across
  /// devices.
  std::size_t SystemBytes() const;

  /// Releases every device allocation and resets placement to host-only
  /// (does NOT copy anything back — callers gather first when needed).
  void DropDeviceState();

  /// Writes the authoritative full-array image into `out` (total_bytes()
  /// long): the host bytes, overlaid — when the host image is stale — with
  /// the valid owner segments (distributed) or any one valid replica
  /// (replicated). Reads device buffers directly, so it never perturbs
  /// billed counters or the simulated clock; this is what both the
  /// validator's golden pre-image and the executor's recovery checkpoint
  /// are built from.
  void SnapshotAuthoritative(std::byte* out) const;

 private:
  std::string name_;
  ir::ValType elem_;
  std::int64_t count_;
  void* host_data_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  Placement placement_ = Placement::kHostOnly;
  bool host_valid_ = true;
  std::vector<DeviceShard> shards_;
};

}  // namespace accmg::runtime
