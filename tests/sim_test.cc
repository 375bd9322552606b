// Unit tests for the virtual multi-GPU platform: clock, topology, devices,
// copies, kernel timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "sim/clock.h"
#include "sim/platform.h"
#include "sim/topology.h"

namespace accmg::sim {
namespace {

// ---------------------------------------------------------------------------
// SimClock
// ---------------------------------------------------------------------------

TEST(SimClockTest, OperationsOnDisjointResourcesOverlap) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  const auto b = clock.NewResource("b");
  clock.Schedule(a, 1.0);
  clock.Schedule(b, 2.0);
  EXPECT_DOUBLE_EQ(clock.Barrier(TimeCategory::kKernel), 2.0);  // not 3.0
}

TEST(SimClockTest, OperationsOnSameResourceSerialize) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  clock.Schedule(a, 1.0);
  clock.Schedule(a, 2.0);
  EXPECT_DOUBLE_EQ(clock.Barrier(TimeCategory::kKernel), 3.0);
}

TEST(SimClockTest, MultiResourceOperationHoldsAll) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  const auto b = clock.NewResource("b");
  clock.Schedule(std::vector<SimClock::Resource>{a, b}, 1.0);
  clock.Schedule(a, 1.0);
  clock.Schedule(b, 1.0);  // can start only at t=1, overlaps with the a-op
  EXPECT_DOUBLE_EQ(clock.Barrier(TimeCategory::kKernel), 2.0);
}

TEST(SimClockTest, BarrierAttributesToCategory) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  clock.Schedule(a, 1.5);
  clock.Barrier(TimeCategory::kCpuGpu);
  clock.Schedule(a, 0.5);
  clock.Barrier(TimeCategory::kGpuGpu);
  EXPECT_DOUBLE_EQ(clock.breakdown()[TimeCategory::kCpuGpu], 1.5);
  EXPECT_DOUBLE_EQ(clock.breakdown()[TimeCategory::kGpuGpu], 0.5);
  EXPECT_DOUBLE_EQ(clock.breakdown().Total(), 2.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().Communication(), 2.0);
}

TEST(SimClockTest, AddSerialAdvancesEverything) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  clock.AddSerial(TimeCategory::kHostCompute, 3.0);
  clock.Schedule(a, 1.0);
  clock.Barrier(TimeCategory::kKernel);
  EXPECT_DOUBLE_EQ(clock.Now(), 4.0);
}

TEST(SimClockTest, ResetClearsTimeKeepsResources) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  clock.Schedule(a, 1.0);
  clock.Barrier(TimeCategory::kKernel);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  EXPECT_DOUBLE_EQ(clock.breakdown().Total(), 0.0);
  clock.Schedule(a, 1.0);  // resource still valid
  EXPECT_DOUBLE_EQ(clock.Barrier(TimeCategory::kKernel), 1.0);
}

TEST(SimClockTest, RejectsBadInput) {
  SimClock clock;
  const auto a = clock.NewResource("a");
  EXPECT_THROW(clock.Schedule(a, -1.0), InvalidArgumentError);
  EXPECT_THROW(clock.Schedule(99, 1.0), InvalidArgumentError);
  EXPECT_THROW(clock.Schedule(std::vector<SimClock::Resource>{}, 1.0),
               InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(TopologyTest, TransferSecondsIsLatencyPlusBandwidth) {
  LinkSpec link{.bandwidth_bps = 1e9, .latency_s = 1e-6};
  EXPECT_DOUBLE_EQ(link.TransferSeconds(1000000), 1e-6 + 1e-3);
}

TEST(TopologyTest, DesktopIsSingleIoGroup) {
  const TopologyConfig cfg = DesktopTopology(2);
  EXPECT_EQ(cfg.num_io_groups(), 1);
  // Same-group peer link carries no derating.
  EXPECT_DOUBLE_EQ(cfg.PeerLink(0, 1).bandwidth_bps,
                   cfg.peer_link.bandwidth_bps);
}

TEST(TopologyTest, SupercomputerSplitsAcrossTwoGroups) {
  const TopologyConfig cfg = SupercomputerTopology(3);
  EXPECT_EQ(cfg.num_io_groups(), 2);
  EXPECT_EQ(cfg.io_group[0], cfg.io_group[1]);
  EXPECT_NE(cfg.io_group[0], cfg.io_group[2]);
  // The cross-IOH link is derated and slower than the intra-IOH link.
  EXPECT_LT(cfg.PeerLink(0, 2).bandwidth_bps,
            cfg.PeerLink(0, 1).bandwidth_bps);
  EXPECT_GT(cfg.PeerLink(0, 2).latency_s, cfg.PeerLink(0, 1).latency_s);
}

// ---------------------------------------------------------------------------
// Device memory
// ---------------------------------------------------------------------------

TEST(DeviceTest, AllocationAccounting) {
  auto platform = MakeDesktopMachine(1);
  Device& dev = platform->device(0);
  EXPECT_EQ(dev.used_bytes(), 0u);
  auto buffer = dev.Allocate("buf", 1024);
  EXPECT_EQ(dev.used_bytes(), 1024u);
  EXPECT_EQ(buffer->size_bytes(), 1024u);
  EXPECT_EQ(buffer->device_id(), 0);
  buffer.reset();
  EXPECT_EQ(dev.used_bytes(), 0u);
  EXPECT_EQ(dev.peak_used_bytes(), 1024u);  // high-water mark survives
}

TEST(DeviceTest, OutOfMemoryThrowsDeviceError) {
  // A tiny device so the capacity edge is cheap to hit.
  DeviceSpec spec = TeslaC2075();
  spec.memory_bytes = 4096;
  Platform platform({spec}, DesktopTopology(1), CoreI7Desktop(), 1);
  Device& dev = platform.device(0);
  EXPECT_THROW(dev.Allocate("too big", dev.capacity_bytes() + 1),
               DeviceError);
  // Exactly-fitting allocation succeeds; the next byte does not.
  auto all = dev.Allocate("all", dev.capacity_bytes());
  EXPECT_THROW(dev.Allocate("one more", 1), DeviceError);
}

TEST(DeviceTest, TypedViewChecksElementSize) {
  auto platform = MakeDesktopMachine(1);
  auto buffer = platform->device(0).Allocate("buf", 10);  // not 4-divisible
  EXPECT_THROW(buffer->Typed<float>(), InvalidArgumentError);
  auto ok = platform->device(0).Allocate("ok", 12);
  EXPECT_EQ(ok->Typed<float>().size(), 3u);
}

// ---------------------------------------------------------------------------
// Platform copies and timing
// ---------------------------------------------------------------------------

TEST(PlatformTest, CopiesMoveBytesAndBillTime) {
  auto platform = MakeDesktopMachine(2);
  auto src = platform->device(0).Allocate("src", 16);
  auto dst = platform->device(1).Allocate("dst", 16);

  const std::uint32_t magic[4] = {1, 2, 3, 4};
  platform->CopyHostToDevice(*src, 0, magic, 16);
  platform->CopyDeviceToDevice(*dst, 0, *src, 0, 16);
  std::uint32_t out[4] = {};
  platform->CopyDeviceToHost(out, *dst, 0, 16);

  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[3], 4u);
  EXPECT_EQ(platform->counters().h2d_transfers, 1u);
  EXPECT_EQ(platform->counters().p2p_transfers, 1u);
  EXPECT_EQ(platform->counters().d2h_transfers, 1u);
  EXPECT_GT(platform->Barrier(TimeCategory::kCpuGpu), 0.0);
}

TEST(PlatformTest, CopyRangeChecks) {
  auto platform = MakeDesktopMachine(1);
  auto buffer = platform->device(0).Allocate("buf", 8);
  char data[16] = {};
  EXPECT_THROW(platform->CopyHostToDevice(*buffer, 4, data, 8),
               InvalidArgumentError);
  EXPECT_THROW(platform->CopyDeviceToHost(data, *buffer, 8, 1),
               InvalidArgumentError);
}

TEST(PlatformTest, ZeroByteCopyIsFree) {
  auto platform = MakeDesktopMachine(1);
  auto buffer = platform->device(0).Allocate("buf", 8);
  platform->CopyHostToDevice(*buffer, 0, nullptr, 0);
  EXPECT_EQ(platform->counters().h2d_transfers, 0u);
  EXPECT_DOUBLE_EQ(platform->Barrier(TimeCategory::kCpuGpu), 0.0);
}

TEST(PlatformTest, ConcurrentH2DToTwoGpusSharesTheHostLink) {
  auto platform = MakeDesktopMachine(2);
  auto b0 = platform->device(0).Allocate("b0", 1 << 20);
  auto b1 = platform->device(1).Allocate("b1", 1 << 20);
  std::vector<char> host(1 << 20);

  platform->CopyHostToDevice(*b0, 0, host.data(), host.size());
  const double serial = platform->Barrier(TimeCategory::kCpuGpu);

  platform->ResetAccounting();
  platform->CopyHostToDevice(*b0, 0, host.data(), host.size());
  platform->CopyHostToDevice(*b1, 0, host.data(), host.size());
  const double both = platform->Barrier(TimeCategory::kCpuGpu);
  // Desktop: one PCIe root — the two transfers serialize on it.
  EXPECT_NEAR(both, 2 * serial, serial * 0.01);
}

TEST(PlatformTest, CrossGroupTransfersOverlapOnTheNode) {
  auto platform = MakeSupercomputerNode(3);
  auto b0 = platform->device(0).Allocate("b0", 1 << 20);
  auto b2 = platform->device(2).Allocate("b2", 1 << 20);
  std::vector<char> host(1 << 20);

  platform->CopyHostToDevice(*b0, 0, host.data(), host.size());
  const double serial = platform->Barrier(TimeCategory::kCpuGpu);

  platform->ResetAccounting();
  // GPU 0 (IOH 0) and GPU 2 (IOH 1): independent roots, transfers overlap.
  platform->CopyHostToDevice(*b0, 0, host.data(), host.size());
  platform->CopyHostToDevice(*b2, 0, host.data(), host.size());
  const double both = platform->Barrier(TimeCategory::kCpuGpu);
  EXPECT_NEAR(both, serial, serial * 0.01);
}

TEST(PlatformTest, KernelTimeIsRooflineOfStats) {
  auto platform = MakeDesktopMachine(1);
  const auto& spec = platform->device(0).spec();

  // Compute-bound kernel.
  LambdaKernel compute([](std::int64_t, KernelStats& stats) {
    stats.instructions += 1000000;
  });
  KernelLaunch launch{.body = &compute, .num_threads = 1, .block_size = 1,
                      .name = "compute"};
  platform->LaunchKernel(0, launch);
  const double compute_time = platform->Barrier(TimeCategory::kKernel);
  EXPECT_NEAR(compute_time,
              spec.launch_overhead_s + 1e6 / spec.instr_per_sec, 1e-12);

  // Memory-bound kernel.
  LambdaKernel memory([](std::int64_t, KernelStats& stats) {
    stats.bytes_read += 100 << 20;
  });
  launch.body = &memory;
  platform->LaunchKernel(0, launch);
  const double memory_time = platform->Barrier(TimeCategory::kKernel);
  EXPECT_NEAR(memory_time,
              spec.launch_overhead_s +
                  static_cast<double>(100 << 20) / spec.mem_bandwidth_bps,
              1e-12);
}

TEST(PlatformTest, KernelsOnDifferentDevicesOverlap) {
  auto platform = MakeDesktopMachine(2);
  LambdaKernel body([](std::int64_t, KernelStats& stats) {
    stats.instructions += 1000000;
  });
  KernelLaunch launch{.body = &body, .num_threads = 1, .block_size = 1,
                      .name = "k"};
  platform->LaunchKernel(0, launch);
  const double one = platform->Barrier(TimeCategory::kKernel);

  platform->ResetAccounting();
  platform->LaunchKernel(0, launch);
  platform->LaunchKernel(1, launch);
  const double both = platform->Barrier(TimeCategory::kKernel);
  EXPECT_NEAR(both, one, one * 1e-9);  // parallel, not serial
}

TEST(PlatformTest, KernelExecutesAllThreads) {
  auto platform = MakeDesktopMachine(1);
  std::vector<std::atomic<int>> hits(500);
  LambdaKernel body([&](std::int64_t tid, KernelStats&) {
    hits[static_cast<std::size_t>(tid)].fetch_add(1);
  });
  KernelLaunch launch{.body = &body, .num_threads = 500, .block_size = 64,
                      .name = "k"};
  platform->LaunchKernel(0, launch);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

// The chunk grid is a function of the thread count alone: the same launch
// on a 1-worker and an 8-worker pool gets the same chunk boundaries (each
// chunk has its own KernelStats, so the stats address identifies it) and
// the same summed stats.
TEST(PlatformTest, ChunkBoundariesIgnorePoolSize) {
  const std::vector<std::int64_t> want_starts = {
      0,   62,  125, 187, 250, 312, 375, 437,
      500, 562, 625, 687, 750, 812, 875, 937};
  for (const std::size_t workers : {1, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Platform platform({TeslaC2075()}, DesktopTopology(1), CoreI7Desktop(),
                      workers);
    std::mutex mutex;
    std::map<const KernelStats*, std::pair<std::int64_t, std::int64_t>>
        chunks;  // first and one-past-last thread per chunk
    LambdaKernel body([&](std::int64_t tid, KernelStats& stats) {
      stats.instructions += static_cast<std::uint64_t>(tid);
      std::lock_guard<std::mutex> lock(mutex);
      auto [it, fresh] = chunks.try_emplace(&stats, tid, tid + 1);
      it->second.second = tid + 1;
    });
    const KernelLaunch launch{.body = &body, .num_threads = 1000,
                              .name = "k"};
    const KernelStats stats = platform.LaunchKernel(0, launch);
    EXPECT_EQ(stats.instructions, 999u * 1000u / 2);

    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    for (const auto& [key, range] : chunks) ranges.push_back(range);
    std::sort(ranges.begin(), ranges.end());
    ASSERT_EQ(ranges.size(), want_starts.size());
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(ranges[c].first, want_starts[c]);
      EXPECT_EQ(ranges[c].second,
                c + 1 < want_starts.size() ? want_starts[c + 1] : 1000);
    }
  }
}

// A launch whose body throws is not scheduled, and neither is its device's
// next launch in the batch; the other device's launch still runs and is
// scheduled, and the error surfaces after the batch.
TEST(PlatformTest, BatchErrorHaltsOnlyTheFailingDevice) {
  auto platform = MakeDesktopMachine(2);
  LambdaKernel fails([](std::int64_t, KernelStats&) {
    throw DeviceError("boom");
  });
  std::atomic<int> runs{0};
  LambdaKernel works([&](std::int64_t, KernelStats& stats) {
    runs.fetch_add(1);
    stats.instructions += 1000;
  });
  std::vector<DeviceLaunch> batch(3);
  batch[0].device_id = 0;
  batch[0].launch = {.body = &fails, .num_threads = 4, .name = "fails"};
  batch[1].device_id = 0;
  batch[1].launch = {.body = &works, .num_threads = 4, .name = "after"};
  batch[2].device_id = 1;
  batch[2].launch = {.body = &works, .num_threads = 4, .name = "other"};
  EXPECT_THROW(platform->LaunchKernels(batch), DeviceError);
  EXPECT_EQ(batch[0].end_s, 0);
  EXPECT_EQ(batch[1].end_s, 0);
  EXPECT_GT(batch[2].end_s, 0);
  EXPECT_EQ(platform->counters().kernel_launches, 1u);
}

// A fork shares the parent's devices and fault injector but accounts on its
// own clock and counters: it starts at time 0 whatever the parent billed,
// and nothing it bills moves the parent.
TEST(PlatformTest, ForkSharesDevicesAndFaultsButNotAccounting) {
  auto platform = MakeDesktopMachine(2);
  platform->BillHostToDevice(0, 1 << 20);
  platform->Barrier(TimeCategory::kCpuGpu);
  const double parent_now = platform->clock().Now();
  const TimeBreakdown parent_time = platform->clock().breakdown();
  const PlatformCounters parent_counters = platform->counters();
  ASSERT_GT(parent_now, 0.0);

  const std::unique_ptr<Platform> fork = platform->Fork();
  EXPECT_EQ(fork->num_devices(), 2);
  EXPECT_EQ(fork->clock().Now(), 0.0);
  EXPECT_EQ(fork->clock().breakdown().Total(), 0.0);
  EXPECT_EQ(fork->counters(), PlatformCounters{});

  // Device memory is shared: a buffer allocated through the fork shows on
  // the parent's device.
  const std::size_t used_before = platform->device(1).used_bytes();
  std::vector<std::uint8_t> host(4096, 7);
  {
    auto buffer = fork->device(1).Allocate("fork-buf", host.size());
    EXPECT_EQ(platform->device(1).used_bytes(), used_before + host.size());
    fork->CopyHostToDevice(*buffer, 0, host.data(), host.size());
    std::atomic<int> threads{0};
    LambdaKernel body([&](std::int64_t, KernelStats& stats) {
      threads.fetch_add(1);
      stats.instructions += 100;
    });
    fork->LaunchKernel(1, {.body = &body, .num_threads = 64, .name = "k"});
    EXPECT_EQ(threads.load(), 64);
    fork->CopyDeviceToDevice(*buffer, 0, *buffer, 0, 1024);
    fork->Barrier(TimeCategory::kKernel);
  }
  EXPECT_EQ(platform->device(1).used_bytes(), used_before);
  EXPECT_GT(fork->clock().breakdown().Total(), 0.0);
  EXPECT_EQ(fork->counters().h2d_transfers, 1u);
  EXPECT_EQ(fork->counters().kernel_launches, 1u);
  EXPECT_EQ(fork->counters().p2p_transfers, 1u);

  // The parent's clock and counters did not move.
  EXPECT_EQ(platform->clock().Now(), parent_now);
  EXPECT_EQ(platform->clock().breakdown().seconds, parent_time.seconds);
  EXPECT_EQ(platform->counters(), parent_counters);

  // The fault injector is shared: a plan armed on the parent fires in the
  // fork, and a disarm on the parent reaches it too.
  FaultPlan plan;
  plan.kernel_fail_p = 1.0;
  platform->ArmFaults(plan);
  LambdaKernel noop([](std::int64_t, KernelStats&) {});
  EXPECT_THROW(fork->LaunchKernel(0, {.body = &noop, .num_threads = 1}),
               KernelLaunchError);
  EXPECT_EQ(fork->counters().kernel_launches, 1u);
  // The fault counts against the fork that raised it, not the parent.
  EXPECT_EQ(fork->injected_faults(), 1u);
  EXPECT_EQ(platform->injected_faults(), 0u);
  platform->DisarmFaults();
  fork->LaunchKernel(0, {.body = &noop, .num_threads = 1});
  EXPECT_EQ(fork->counters().kernel_launches, 2u);
  EXPECT_EQ(platform->counters(), parent_counters);
}

// A reservation is accounted exactly like an allocation of its size but
// holds no host memory: it moves the used and peak counts as Allocate
// does, gives them back when destroyed, fails on OOM with Allocate's
// message, and, made through a fork, shows on the shared device.
TEST(PlatformTest, ReservationChargesLikeAnAllocation) {
  DeviceSpec spec = TeslaC2075();
  spec.memory_bytes = 1 << 20;
  Platform allocated({spec}, DesktopTopology(1), CoreI7Desktop(), 1);
  Platform reserved({spec}, DesktopTopology(1), CoreI7Desktop(), 1);
  Device& a = allocated.device(0);
  Device& r = reserved.device(0);

  auto buffer = a.Allocate("sys:miss:x", 4096);
  auto reservation = r.Reserve("sys:miss:x", 4096);
  EXPECT_EQ(reservation->size_bytes(), 4096u);
  EXPECT_EQ(r.used_bytes(), 4096u);
  {
    auto second_buffer = a.Allocate("sys:staging:x", 1000);
    auto second = r.Reserve("sys:staging:x", 1000);
    EXPECT_EQ(r.used_bytes(), a.used_bytes());
    EXPECT_EQ(r.peak_used_bytes(), a.peak_used_bytes());
  }
  EXPECT_EQ(r.used_bytes(), a.used_bytes());
  EXPECT_EQ(r.peak_used_bytes(), a.peak_used_bytes());
  EXPECT_EQ(r.peak_used_bytes(), 5096u);  // high-water mark survives
  buffer.reset();
  reservation.reset();
  EXPECT_EQ(r.used_bytes(), 0u);
  EXPECT_EQ(a.used_bytes(), 0u);

  // Past capacity: the same DeviceError, word for word, and nothing taken.
  std::string allocate_error;
  std::string reserve_error;
  try {
    a.Allocate("sys:miss:y", a.capacity_bytes() + 1);
  } catch (const DeviceError& e) {
    allocate_error = e.what();
  }
  try {
    r.Reserve("sys:miss:y", r.capacity_bytes() + 1);
  } catch (const DeviceError& e) {
    reserve_error = e.what();
  }
  EXPECT_NE(allocate_error, "");
  EXPECT_EQ(reserve_error, allocate_error);
  EXPECT_EQ(r.used_bytes(), 0u);

  // A reservation made through a fork charges the shared device.
  const std::unique_ptr<Platform> fork = reserved.Fork();
  {
    auto forked = fork->device(0).Reserve("sys:staging:z", 2048);
    EXPECT_EQ(reserved.device(0).used_bytes(), 2048u);
  }
  EXPECT_EQ(reserved.device(0).used_bytes(), 0u);
}

TEST(PlatformTest, PresetsMatchTableOne) {
  auto desktop = MakeDesktopMachine(2);
  EXPECT_EQ(desktop->num_devices(), 2);
  EXPECT_EQ(desktop->device(0).spec().name, "Tesla C2075");
  EXPECT_EQ(desktop->host_spec().threads, 12);

  auto node = MakeSupercomputerNode(3);
  EXPECT_EQ(node->num_devices(), 3);
  EXPECT_EQ(node->device(0).spec().name, "Tesla M2050");
  EXPECT_EQ(node->host_spec().threads, 24);
  // M2050 has 3 GB, C2075 6 GB.
  EXPECT_LT(node->device(0).capacity_bytes(),
            desktop->device(0).capacity_bytes());
}

TEST(PlatformTest, BillApisCountWithoutTouchingMemory) {
  auto platform = MakeDesktopMachine(2);
  platform->BillDeviceToDevice(0, 1, 1 << 20);
  EXPECT_EQ(platform->counters().p2p_transfers, 1u);
  EXPECT_EQ(platform->counters().p2p_bytes, std::size_t{1} << 20);
  EXPECT_GT(platform->Barrier(TimeCategory::kGpuGpu), 0.0);
}

}  // namespace
}  // namespace accmg::sim
