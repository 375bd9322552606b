#include "sim/device.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"

// Sanitized builds fill every fresh device buffer with a non-zero pattern,
// so a reader that depends on zeroed device memory fails the test suite
// there (sim/buffer.h). GCC defines __SANITIZE_ADDRESS__ under
// -fsanitize=address; Clang reports it through __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define ACCMG_FILL_FRESH_BUFFERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACCMG_FILL_FRESH_BUFFERS 1
#endif
#endif

namespace accmg::sim {

const char* StreamName(Stream stream) {
  return stream == Stream::kAsync ? "async" : "default";
}

DeviceBuffer::DeviceBuffer(Device* owner, int device_id, std::string name,
                           std::size_t size)
    : owner_(owner),
      device_id_(device_id),
      name_(std::move(name)),
      size_(size),
      data_(std::make_unique_for_overwrite<std::byte[]>(size)) {
#ifdef ACCMG_FILL_FRESH_BUFFERS
  std::memset(data_.get(), 0xA5, size_);
#endif
}

DeviceBuffer::~DeviceBuffer() {
  if (owner_ != nullptr) owner_->Release(size_);
}

Reservation::~Reservation() { owner_->Release(size_); }

void Device::Charge(const std::string& name, std::size_t bytes) {
  if (used_bytes_ + bytes > spec_.memory_bytes) {
    throw DeviceError("device " + std::to_string(id_) + " (" + spec_.name +
                      "): out of memory allocating '" + name + "' (" +
                      FormatBytes(bytes) + " requested, " +
                      FormatBytes(spec_.memory_bytes - used_bytes_) +
                      " free)");
  }
  used_bytes_ += bytes;
  peak_used_bytes_ = std::max(peak_used_bytes_, used_bytes_);
}

std::unique_ptr<DeviceBuffer> Device::Allocate(std::string name,
                                               std::size_t bytes) {
  Charge(name, bytes);
  return std::unique_ptr<DeviceBuffer>(
      new DeviceBuffer(this, id_, std::move(name), bytes));
}

std::unique_ptr<Reservation> Device::Reserve(const std::string& name,
                                             std::size_t bytes) {
  Charge(name, bytes);
  return std::unique_ptr<Reservation>(new Reservation(this, bytes));
}

void Device::Release(std::size_t bytes) {
  ACCMG_CHECK(bytes <= used_bytes_, "device memory accounting underflow");
  used_bytes_ -= bytes;
}

}  // namespace accmg::sim
