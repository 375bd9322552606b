// Device memory: data buffers and accounting-only reservations.
//
// Each simulated GPU owns a disjoint set of buffers; a buffer's bytes live in
// host RAM but are only legally touchable by kernels launched on the owning
// device and by explicit platform copy operations. This disjointness is what
// makes the runtime's data-placement logic falsifiable: a missing transfer
// yields a wrong answer, exactly as on real hardware.
//
// A fresh buffer's bytes are uninitialised, as cudaMalloc memory is. Whoever
// allocates a buffer writes every byte before anything reads it: the data
// loader copies the whole segment in right after allocating it, the dirty
// bits are cleared before every offload that tracks them, and the
// hand-written CUDA baselines upload or compute into their buffers before
// reading them. The same rule keeps a service job from seeing the bytes of a
// buffer another job freed. Sanitized builds fill every fresh buffer with a
// non-zero pattern, so the test suite fails there if a reader depends on
// zeroed memory.
//
// A Reservation is device memory that only the accounting needs: it charges
// the device's used and peak bytes like a buffer of its size, holds no host
// memory and has no bytes to read. The runtime's write-miss buffers and
// dirty-chunk staging areas (Fig. 9's "System" memory) are reservations,
// because nothing in the simulation moves data through them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/error.h"

namespace accmg::sim {

class Device;

class DeviceBuffer {
 public:
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer();

  int device_id() const { return device_id_; }
  std::size_t size_bytes() const { return size_; }
  const std::string& name() const { return name_; }

  /// Raw byte access, used by the platform's copy engines.
  std::span<std::byte> bytes() { return {data_.get(), size_}; }
  std::span<const std::byte> bytes() const { return {data_.get(), size_}; }

  /// Typed view over the whole buffer. The buffer size must be a multiple of
  /// sizeof(T).
  template <typename T>
  std::span<T> Typed() {
    ACCMG_REQUIRE(size_ % sizeof(T) == 0,
                  "buffer '" + name_ + "' size is not a multiple of sizeof(T)");
    return std::span<T>(reinterpret_cast<T*>(data_.get()), size_ / sizeof(T));
  }
  template <typename T>
  std::span<const T> Typed() const {
    ACCMG_REQUIRE(size_ % sizeof(T) == 0,
                  "buffer '" + name_ + "' size is not a multiple of sizeof(T)");
    return std::span<const T>(reinterpret_cast<const T*>(data_.get()),
                              size_ / sizeof(T));
  }

 private:
  friend class Device;
  DeviceBuffer(Device* owner, int device_id, std::string name,
               std::size_t size);

  Device* owner_;  ///< for releasing the allocation accounting on destruction
  int device_id_;
  std::string name_;
  std::size_t size_;
  std::unique_ptr<std::byte[]> data_;  ///< uninitialised; see the file comment
};

/// Device memory charged to the accounting without host backing; see the
/// file comment. Gives its bytes back on destruction.
class Reservation {
 public:
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  ~Reservation();

  std::size_t size_bytes() const { return size_; }

 private:
  friend class Device;
  Reservation(Device* owner, std::size_t size) : owner_(owner), size_(size) {}

  Device* owner_;
  std::size_t size_;
};

}  // namespace accmg::sim
