// One simulated GPU: a memory arena with capacity accounting plus the
// device's performance specification.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "sim/buffer.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace accmg::sim {

/// Copy-engine selector for transfers. Fermi-class Teslas (the paper's
/// C2075/M2050) carry two DMA engines; the default stream drives the first,
/// and the async pipeline may place peer exchanges on the second so a halo
/// transfer can proceed while the default engine services loads.
enum class Stream : int { kDefault = 0, kAsync = 1 };

const char* StreamName(Stream stream);

class Device {
 public:
  Device(int id, DeviceSpec spec, SimClock::Resource compute,
         SimClock::Resource dma, SimClock::Resource async_dma)
      : id_(id),
        spec_(std::move(spec)),
        compute_(compute),
        dma_(dma),
        async_dma_(async_dma) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  const DeviceSpec& spec() const { return spec_; }
  SimClock::Resource compute_resource() const { return compute_; }
  SimClock::Resource dma_resource() const { return dma_; }
  /// The second copy engine; see Stream.
  SimClock::Resource async_dma_resource() const { return async_dma_; }
  SimClock::Resource dma_resource(Stream stream) const {
    return stream == Stream::kAsync ? async_dma_ : dma_;
  }

  /// Allocates `bytes` of uninitialised device memory (sim/buffer.h). Throws
  /// DeviceError when the device is out of memory (matches cudaMalloc
  /// failure).
  std::unique_ptr<DeviceBuffer> Allocate(std::string name, std::size_t bytes);

  /// Charges `bytes` of device memory exactly as Allocate does, OOM included,
  /// without backing them with host memory (sim/buffer.h).
  std::unique_ptr<Reservation> Reserve(const std::string& name,
                                       std::size_t bytes);

  std::size_t used_bytes() const { return used_bytes_; }
  std::size_t capacity_bytes() const { return spec_.memory_bytes; }
  /// High-water mark of used_bytes over the device's lifetime.
  std::size_t peak_used_bytes() const { return peak_used_bytes_; }

 private:
  friend class DeviceBuffer;
  friend class Reservation;
  /// Adds `bytes` to the used and peak counts; throws DeviceError naming
  /// `name` when they do not fit.
  void Charge(const std::string& name, std::size_t bytes);
  void Release(std::size_t bytes);

  int id_;
  DeviceSpec spec_;
  SimClock::Resource compute_;
  SimClock::Resource dma_;
  SimClock::Resource async_dma_;
  std::size_t used_bytes_ = 0;
  std::size_t peak_used_bytes_ = 0;
};

}  // namespace accmg::sim
