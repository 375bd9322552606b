// Device arena: shards the simulated GPUs of one long-lived platform across
// concurrent service jobs.
//
// A job asks for N devices and blocks until N are free *and* it is at the
// head of the FIFO ticket line — strict arrival-order granting, so a 4-GPU
// job behind two 1-GPU jobs cannot be starved by a stream of later small
// jobs (head-of-line blocking is the accepted cost of that guarantee; the
// admission controller, not the arena, is where smarter policies belong).
//
// Leases hand out *disjoint* device-id sets. That disjointness is what lets
// jobs run at once: each job runs on its own sim::Platform::Fork() and
// touches only its leased devices, so no two jobs share a device's memory,
// and each job's clock and counters see only its own work.
//
// Health (docs/ROBUSTNESS.md): MarkDead revokes a device permanently — it
// is never granted again (a busy dead device finishes its current lease
// first). MarkSuspect soft-quarantines: selection prefers non-quarantined
// devices but still uses quarantined ones when nothing else can satisfy the
// request (so quarantine can never deadlock the line), and each grant of a
// quarantined device burns one unit of its probation. Acquire with a
// deadline returns an invalid lease on timeout instead of blocking forever;
// a timed-out (abandoned) ticket is skipped so it cannot wedge the FIFO
// line, and a request larger than the healthy device count fails fast with
// a typed error instead of waiting for devices that will never come back.
//
// Metrics: service.arena.leases (counter), service.arena.wait_seconds
// (histogram of time blocked in Acquire), service.arena.devices_busy
// (gauge), service.arena.dead_devices / service.arena.quarantined (gauges),
// service.arena.lease_timeouts (counter).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace accmg::service {

class DeviceArena {
 public:
  /// Manages device ids [0, num_devices).
  explicit DeviceArena(int num_devices);

  DeviceArena(const DeviceArena&) = delete;
  DeviceArena& operator=(const DeviceArena&) = delete;

  /// Move-only RAII lease; releases its devices (and wakes the ticket
  /// line) on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool valid() const { return arena_ != nullptr; }
    const std::vector<int>& devices() const { return devices_; }

    /// Early release (idempotent).
    void Release();

   private:
    friend class DeviceArena;
    Lease(DeviceArena* arena, std::vector<int> devices)
        : arena_(arena), devices_(std::move(devices)) {}
    DeviceArena* arena_ = nullptr;
    std::vector<int> devices_;
  };

  /// Blocks until `count` devices are free and this caller is first in
  /// line, then leases the `count` lowest-numbered selectable devices
  /// (preferring non-quarantined ones). Requires 1 <= count <=
  /// num_devices() (throws otherwise — such a job could never be
  /// satisfied); throws DeviceError when count exceeds the healthy device
  /// count, which can only shrink.
  Lease Acquire(int count);

  /// Bounded-wait Acquire: returns an invalid lease when `timeout` elapses
  /// first. The abandoned ticket is skipped by the FIFO line.
  Lease Acquire(int count, std::chrono::milliseconds timeout);

  /// Permanently revokes a device (fault injector reported it dead). A
  /// currently-leased device is revoked on release. Wakes waiters whose
  /// requests just became unsatisfiable so they fail fast.
  void MarkDead(int device);

  /// Soft-quarantines a device for `probation` grants: selection avoids it
  /// while any other free healthy device can fill the lease.
  void MarkSuspect(int device, int probation = 3);

  int num_devices() const { return static_cast<int>(busy_.size()); }
  int free_count() const;
  /// Devices not marked dead (leased or not).
  int healthy_count() const;
  int busy_count() const;
  bool alive(int device) const;
  std::uint64_t leases_granted() const { return leases_granted_; }

 private:
  Lease AcquireInternal(int count, bool bounded,
                        std::chrono::steady_clock::time_point deadline);
  void Release(const std::vector<int>& devices);

  int HealthyLocked() const;
  int SelectableLocked() const;  ///< free AND alive
  /// Drops `ticket` from the line; advances serving_ past it (and any
  /// previously abandoned successors) when it is at the head.
  void AbandonLocked(std::uint64_t ticket);
  void AdvanceServingLocked();

  mutable std::mutex mutex_;
  std::condition_variable turn_or_free_;
  std::vector<bool> busy_;
  std::vector<bool> dead_;
  std::vector<int> quarantine_;  ///< grants left in probation; 0 = trusted
  /// FIFO tickets: Acquire #k waits until serving_ == k.
  std::uint64_t next_ticket_ = 0;
  std::uint64_t serving_ = 0;
  std::unordered_set<std::uint64_t> abandoned_;  ///< timed-out tickets
  std::uint64_t leases_granted_ = 0;
};

}  // namespace accmg::service
