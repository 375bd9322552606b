#include "sim/platform.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "common/error.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace accmg::sim {

namespace {

/// Registry handles for the platform's unified metrics; resolved once.
struct SimMetrics {
  metrics::Counter& kernel_launches;
  metrics::Counter& h2d_transfers;
  metrics::Counter& d2h_transfers;
  metrics::Counter& p2p_transfers;
  metrics::Counter& h2d_bytes;
  metrics::Counter& d2h_bytes;
  metrics::Counter& p2p_bytes;
  metrics::Histogram& transfer_bytes;
  metrics::Histogram& kernel_seconds;
  metrics::Histogram& kernel_wall_seconds;

  static SimMetrics& Get() {
    static SimMetrics m{
        metrics::Registry::Global().counter("sim.kernel_launches"),
        metrics::Registry::Global().counter("sim.h2d_transfers"),
        metrics::Registry::Global().counter("sim.d2h_transfers"),
        metrics::Registry::Global().counter("sim.p2p_transfers"),
        metrics::Registry::Global().counter("sim.h2d_bytes"),
        metrics::Registry::Global().counter("sim.d2h_bytes"),
        metrics::Registry::Global().counter("sim.p2p_bytes"),
        metrics::Registry::Global().histogram("sim.transfer_bytes"),
        metrics::Registry::Global().histogram("sim.kernel_seconds"),
        metrics::Registry::Global().histogram("sim.kernel_wall_seconds"),
    };
    return m;
  }
};

/// Records one operation on the simulated timeline. The category is the
/// runtime phase that issued it (dirty merge, miss flush, halo, reduction)
/// when a trace::PhaseScope is active, else `fallback_cat`. The name is
/// produced lazily by `make_name` so the billing hot path never pays for
/// string construction while the tracer is disabled.
template <typename NameFn>
void RecordSimSpan(NameFn&& make_name, const char* fallback_cat, int device,
                   double end_s, double duration_s) {
  auto& tracer = trace::Tracer::Global();
  if (!tracer.enabled()) return;
  trace::Event event;
  const char* phase = trace::PhaseScope::Current();
  event.name = make_name();
  event.category = phase != nullptr ? phase : fallback_cat;
  event.timeline = trace::Timeline::kSim;
  event.device = device;
  event.start_us = (end_s - duration_s) * 1e6;
  event.duration_us = duration_s * 1e6;
  tracer.Record(std::move(event));
}

/// Runs the chunks of all `launches` as one batch on `pool`. Each launch's
/// chunks fold in grid order into its body and its stats, and its first
/// error in chunk order is recorded.
void RunChunks(ThreadPool& pool, const std::vector<DeviceLaunch*>& launches) {
  struct Chunk {
    DeviceLaunch* dl;
    std::size_t body;  // index into `bodies`
    std::int64_t lo, hi;
    std::unique_ptr<ChunkOutput> output;
    std::exception_ptr error;
    double wall_s;
  };
  std::vector<Chunk> chunks;        // launch by launch, each in grid order
  std::vector<KernelBody*> bodies;  // distinct, in issue order
  for (DeviceLaunch* dl : launches) {
    const KernelLaunch& launch = dl->launch;
    ACCMG_REQUIRE(launch.body != nullptr, "kernel launch without a body");
    ACCMG_REQUIRE(launch.num_threads >= 0, "negative thread count");
    ACCMG_REQUIRE(launch.block_size > 0, "non-positive block size");
    const auto it = std::find(bodies.begin(), bodies.end(), launch.body);
    const auto body = static_cast<std::size_t>(it - bodies.begin());
    if (it == bodies.end()) bodies.push_back(launch.body);
    // The grid depends on the thread count alone (sim/kernel.h).
    const std::int64_t n = launch.num_threads;
    const std::int64_t count = std::min(n, kMaxLaunchChunks);
    for (std::int64_t c = 0; c < count; ++c) {
      chunks.push_back(Chunk{dl, body, launch.first_thread + n * c / count,
                             launch.first_thread + n * (c + 1) / count,
                             nullptr, nullptr, 0});
    }
  }
  // The task that finishes a body's last chunk folds all of that body's
  // chunks in order, so each body folds on one thread while other bodies
  // (one per device in an offload) may still run.
  std::vector<std::atomic<std::size_t>> pending(bodies.size());
  for (const Chunk& chunk : chunks) {
    pending[chunk.body].fetch_add(1, std::memory_order_relaxed);
  }
  auto fold = [&](std::size_t body) {
    for (Chunk& chunk : chunks) {
      if (chunk.body != body) continue;
      DeviceLaunch& dl = *chunk.dl;
      if (chunk.error) {
        if (!dl.error) dl.error = chunk.error;
        continue;
      }
      dl.launch.body->Fold(*chunk.output);
      dl.stats += chunk.output->stats;
      dl.wall_s += chunk.wall_s;
    }
  };
  pool.Run(chunks.size(), [&](std::size_t i) {
    Chunk& chunk = chunks[i];
    const Stopwatch watch;
    try {
      chunk.output = chunk.dl->launch.body->RunChunk(chunk.lo, chunk.hi);
    } catch (...) {
      chunk.error = std::current_exception();
    }
    chunk.wall_s = watch.ElapsedSeconds();
    if (pending[chunk.body].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      fold(chunk.body);
    }
  });
}

}  // namespace

PlatformCounters& PlatformCounters::operator+=(const PlatformCounters& other) {
  kernel_launches += other.kernel_launches;
  h2d_transfers += other.h2d_transfers;
  d2h_transfers += other.d2h_transfers;
  p2p_transfers += other.p2p_transfers;
  h2d_bytes += other.h2d_bytes;
  d2h_bytes += other.d2h_bytes;
  p2p_bytes += other.p2p_bytes;
  return *this;
}

Platform::Platform(std::vector<DeviceSpec> gpus, TopologyConfig topology,
                   CpuSpec host, std::size_t worker_threads)
    : shared_(std::make_shared<Shared>(std::move(topology), std::move(host),
                                       worker_threads)) {
  ACCMG_REQUIRE(!gpus.empty(), "platform needs at least one GPU");
  ACCMG_REQUIRE(shared_->topology.io_group.size() == gpus.size(),
                "topology io_group size must match GPU count");
  const int groups = shared_->topology.num_io_groups();
  for (int g = 0; g < groups; ++g) {
    shared_->io_root_resources.push_back(
        clock_.NewResource("io_root" + std::to_string(g)));
  }
  for (std::size_t d = 0; d < gpus.size(); ++d) {
    const auto compute =
        clock_.NewResource("gpu" + std::to_string(d) + ".compute");
    const auto dma = clock_.NewResource("gpu" + std::to_string(d) + ".dma");
    const auto async_dma =
        clock_.NewResource("gpu" + std::to_string(d) + ".dma_async");
    PublishSpecMetrics(gpus[d], static_cast<int>(d));
    shared_->devices.push_back(std::make_unique<Device>(
        static_cast<int>(d), std::move(gpus[d]), compute, dma, async_dma));
  }
  PublishSpecMetrics(shared_->host);
}

Platform::Platform(std::shared_ptr<Shared> shared, SimClock clock)
    : shared_(std::move(shared)), clock_(std::move(clock)) {}

std::unique_ptr<Platform> Platform::Fork() const {
  // The copied clock keeps every registered resource, so the devices' and
  // IO roots' resource ids stay valid on the fork.
  SimClock clock = clock_;
  clock.Reset();
  return std::unique_ptr<Platform>(new Platform(shared_, std::move(clock)));
}

Device& Platform::device(int id) {
  ACCMG_REQUIRE(id >= 0 && id < num_devices(), "bad device id");
  return *shared_->devices[static_cast<std::size_t>(id)];
}

const Device& Platform::device(int id) const {
  ACCMG_REQUIRE(id >= 0 && id < num_devices(), "bad device id");
  return *shared_->devices[static_cast<std::size_t>(id)];
}

std::vector<SimClock::Resource> Platform::RootResources(int device_id) const {
  const TopologyConfig& topology = shared_->topology;
  const int group = topology.io_group[static_cast<std::size_t>(device_id)];
  return {shared_->io_root_resources[static_cast<std::size_t>(group)]};
}

double Platform::CheckFault(FaultSite site, int device) {
  FaultInjector& faults = shared_->faults;
  return faults.armed() ? faults.OnOperation(site, device, &injected_faults_)
                        : 1.0;
}

double Platform::BillHostToDevice(int device_id, std::size_t bytes,
                                  double ready_at) {
  return BillHostLink(FaultSite::kH2D, device_id, bytes, ready_at);
}

double Platform::BillDeviceToHost(int device_id, std::size_t bytes,
                                  double ready_at) {
  return BillHostLink(FaultSite::kD2H, device_id, bytes, ready_at);
}

double Platform::BillHostLink(FaultSite site, int device_id,
                              std::size_t bytes, double ready_at) {
  if (bytes == 0) return clock_.Now();
  const bool h2d = site == FaultSite::kH2D;
  const double fault_mult = CheckFault(site, device_id);
  auto resources = RootResources(device_id);
  resources.push_back(device(device_id).dma_resource());
  const double duration =
      fault_mult * shared_->topology.host_link.TransferSeconds(bytes);
  const double end = clock_.ScheduleAfter(resources, duration, ready_at);
  ++(h2d ? counters_.h2d_transfers : counters_.d2h_transfers);
  (h2d ? counters_.h2d_bytes : counters_.d2h_bytes) += bytes;
  RecordSimSpan(
      [&] { return std::string(h2d ? "h2d " : "d2h ") + FormatBytes(bytes); },
      trace::category::kTransfer, device_id, end, duration);
  SimMetrics& m = SimMetrics::Get();
  (h2d ? m.h2d_transfers : m.d2h_transfers).Add();
  (h2d ? m.h2d_bytes : m.d2h_bytes).Add(bytes);
  m.transfer_bytes.Observe(static_cast<double>(bytes));
  return end;
}

double Platform::BillDeviceToDevice(int src_device, int dst_device,
                                    std::size_t bytes, double ready_at,
                                    Stream stream) {
  if (bytes == 0) return clock_.Now();
  // One decision keyed on the source device (which owns the transfer for
  // billing); a destination-side death still surfaces because dead devices
  // echo DeviceLostError on their next keyed operation.
  const double fault_mult = CheckFault(FaultSite::kP2P, src_device);
  if (shared_->faults.armed() && !shared_->faults.alive(dst_device)) {
    throw DeviceLostError(dst_device, "device " + std::to_string(dst_device) +
                                          " is lost (p2p destination)");
  }
  std::vector<SimClock::Resource> resources;
  resources.push_back(device(src_device).dma_resource(stream));
  if (src_device != dst_device) {
    resources.push_back(device(dst_device).dma_resource(stream));
  }
  const TopologyConfig& topology = shared_->topology;
  for (auto r : RootResources(src_device)) resources.push_back(r);
  if (topology.io_group[static_cast<std::size_t>(src_device)] !=
      topology.io_group[static_cast<std::size_t>(dst_device)]) {
    for (auto r : RootResources(dst_device)) resources.push_back(r);
  }

  double duration;
  if (topology.peer_dma || src_device == dst_device) {
    duration = topology.PeerLink(src_device, dst_device)
                   .TransferSeconds(bytes);
  } else {
    // Staged through host memory: down the source link, up the destination
    // link, serialized.
    duration = 2 * topology.host_link.TransferSeconds(bytes);
  }
  duration *= fault_mult;
  const double end = clock_.ScheduleAfter(resources, duration, ready_at);
  ++counters_.p2p_transfers;
  counters_.p2p_bytes += bytes;
  RecordSimSpan(
      [&] {
        return "p2p " + std::to_string(src_device) + "->" +
               std::to_string(dst_device) + " " + FormatBytes(bytes);
      },
      trace::category::kTransfer, src_device, end, duration);
  SimMetrics& m = SimMetrics::Get();
  m.p2p_transfers.Add();
  m.p2p_bytes.Add(bytes);
  m.transfer_bytes.Observe(static_cast<double>(bytes));
  return end;
}

double Platform::CopyHostToDevice(DeviceBuffer& dst, std::size_t dst_offset,
                                  const void* src, std::size_t bytes,
                                  double ready_at) {
  if (bytes == 0) return clock_.Now();
  ACCMG_REQUIRE(dst_offset + bytes <= dst.size_bytes(),
                "H2D copy out of range for buffer '" + dst.name() + "'");
  // Bill first: an injected transfer fault must leave the destination
  // bytes untouched so a retry starts from a clean state.
  const double end = BillHostToDevice(dst.device_id(), bytes, ready_at);
  std::memcpy(dst.bytes().data() + dst_offset, src, bytes);
  return end;
}

double Platform::CopyDeviceToHost(void* dst, const DeviceBuffer& src,
                                  std::size_t src_offset, std::size_t bytes,
                                  double ready_at) {
  if (bytes == 0) return clock_.Now();
  ACCMG_REQUIRE(src_offset + bytes <= src.size_bytes(),
                "D2H copy out of range for buffer '" + src.name() + "'");
  const double end = BillDeviceToHost(src.device_id(), bytes, ready_at);
  std::memcpy(dst, src.bytes().data() + src_offset, bytes);
  return end;
}

double Platform::CopyDeviceToDevice(DeviceBuffer& dst, std::size_t dst_offset,
                                    const DeviceBuffer& src,
                                    std::size_t src_offset, std::size_t bytes,
                                    double ready_at, Stream stream) {
  if (bytes == 0) return clock_.Now();
  ACCMG_REQUIRE(src_offset + bytes <= src.size_bytes(),
                "P2P copy out of range for source '" + src.name() + "'");
  ACCMG_REQUIRE(dst_offset + bytes <= dst.size_bytes(),
                "P2P copy out of range for destination '" + dst.name() + "'");
  const double end = BillDeviceToDevice(src.device_id(), dst.device_id(),
                                        bytes, ready_at, stream);
  std::memcpy(dst.bytes().data() + dst_offset,
              src.bytes().data() + src_offset, bytes);
  return end;
}

void Platform::LaunchKernels(std::vector<DeviceLaunch>& batch) {
  // True when an earlier launch of launch i's device failed.
  auto halted = [&](std::size_t i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (batch[j].error && batch[j].device_id == batch[i].device_id) {
        return true;
      }
    }
    return false;
  };
  // Fault decisions come first, in issue order: a failed launch has no data
  // effect, and its device's later launches do not run.
  std::vector<double> fault_mult(batch.size(), 1.0);
  std::vector<DeviceLaunch*> runnable;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (halted(i)) continue;
    try {
      fault_mult[i] = CheckFault(FaultSite::kKernel, batch[i].device_id);
      runnable.push_back(&batch[i]);
    } catch (...) {
      batch[i].error = std::current_exception();
    }
  }

  RunChunks(shared_->workers, runnable);
  SimMetrics& m = SimMetrics::Get();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].error || halted(i)) continue;
    DeviceLaunch& dl = batch[i];
    const Device& dev = device(dl.device_id);
    const double compute_s = static_cast<double>(dl.stats.instructions) /
                             dev.spec().instr_per_sec;
    const double memory_s =
        static_cast<double>(dl.stats.bytes_read + dl.stats.bytes_written) /
        dev.spec().mem_bandwidth_bps;
    const double duration =
        fault_mult[i] *
        (dev.spec().launch_overhead_s + std::max(compute_s, memory_s));
    dl.end_s = clock_.ScheduleAfter(dev.compute_resource(), duration,
                                    dl.launch.ready_at);
    ++counters_.kernel_launches;
    RecordSimSpan(
        [&] {
          return dl.launch.name.empty() ? std::string("kernel")
                                        : dl.launch.name;
        },
        trace::category::kKernel, dl.device_id, dl.end_s, duration);
    m.kernel_launches.Add();
    m.kernel_seconds.Observe(duration);
    m.kernel_wall_seconds.Observe(dl.wall_s);
  }
  for (const DeviceLaunch& dl : batch) {
    if (dl.error) std::rethrow_exception(dl.error);
  }
}

KernelStats Platform::LaunchKernel(int device_id, const KernelLaunch& launch) {
  std::vector<DeviceLaunch> batch{DeviceLaunch{device_id, launch}};
  LaunchKernels(batch);
  return batch[0].stats;
}

void Platform::RunOnHost(std::vector<DeviceLaunch>& batch) {
  std::vector<DeviceLaunch*> launches;
  for (DeviceLaunch& dl : batch) launches.push_back(&dl);
  RunChunks(shared_->workers, launches);
  for (const DeviceLaunch& dl : batch) {
    if (dl.error) std::rethrow_exception(dl.error);
  }
}

std::size_t Platform::TotalPeakDeviceBytes() const {
  std::size_t total = 0;
  for (const auto& dev : shared_->devices) total += dev->peak_used_bytes();
  return total;
}

void Platform::ResetAccounting() {
  clock_.Reset();
  counters_ = PlatformCounters{};
}

std::unique_ptr<Platform> MakeDesktopMachine(int num_gpus) {
  std::vector<DeviceSpec> gpus(static_cast<std::size_t>(num_gpus),
                               TeslaC2075());
  return std::make_unique<Platform>(std::move(gpus),
                                    DesktopTopology(num_gpus),
                                    CoreI7Desktop());
}

std::unique_ptr<Platform> MakeSupercomputerNode(int num_gpus) {
  std::vector<DeviceSpec> gpus(static_cast<std::size_t>(num_gpus),
                               TeslaM2050());
  return std::make_unique<Platform>(std::move(gpus),
                                    SupercomputerTopology(num_gpus),
                                    DualXeonNode());
}

}  // namespace accmg::sim
