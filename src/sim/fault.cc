#include "sim/fault.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace accmg::sim {

namespace {

/// Registry handles for fault accounting; resolved once.
struct FaultMetrics {
  metrics::Counter& injected;
  metrics::Counter& injected_kernel;
  metrics::Counter& injected_transfer;
  metrics::Counter& device_lost;
  metrics::Counter& stalls;
  metrics::Gauge& armed;

  static FaultMetrics& Get() {
    static FaultMetrics m{
        metrics::Registry::Global().counter("fault.injected"),
        metrics::Registry::Global().counter("fault.injected.kernel"),
        metrics::Registry::Global().counter("fault.injected.transfer"),
        metrics::Registry::Global().counter("fault.device_lost"),
        metrics::Registry::Global().counter("fault.stalls"),
        metrics::Registry::Global().gauge("fault.armed"),
    };
    return m;
  }
};

double ParseProbability(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double p = -1;
  try {
    p = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  ACCMG_REQUIRE(used == value.size() && p >= 0 && p <= 1,
                "fault plan: bad probability for '" + key + "': " + value);
  return p;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kKernel: return "kernel";
    case FaultSite::kH2D: return "h2d";
    case FaultSite::kD2H: return "d2h";
    case FaultSite::kP2P: return "p2p";
  }
  return "?";
}

bool FaultPlan::enabled() const {
  return kernel_fail_p > 0 || h2d_fail_p > 0 || d2h_fail_p > 0 ||
         p2p_fail_p > 0 || stall_p > 0 || device_loss_p > 0;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed << ",kernel=" << kernel_fail_p
     << ",h2d=" << h2d_fail_p << ",d2h=" << d2h_fail_p
     << ",p2p=" << p2p_fail_p << ",stall=" << stall_p
     << ",stall-factor=" << stall_factor << ",death=" << device_loss_p
     << ",max-deaths=" << max_device_losses;
  return os.str();
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    ACCMG_REQUIRE(eq != std::string::npos,
                  "fault plan: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = std::stoull(value);
    } else if (key == "kernel") {
      plan.kernel_fail_p = ParseProbability(key, value);
    } else if (key == "h2d") {
      plan.h2d_fail_p = ParseProbability(key, value);
    } else if (key == "d2h") {
      plan.d2h_fail_p = ParseProbability(key, value);
    } else if (key == "p2p") {
      plan.p2p_fail_p = ParseProbability(key, value);
    } else if (key == "transfer") {
      const double p = ParseProbability(key, value);
      plan.h2d_fail_p = plan.d2h_fail_p = plan.p2p_fail_p = p;
    } else if (key == "stall") {
      plan.stall_p = ParseProbability(key, value);
    } else if (key == "stall-factor") {
      plan.stall_factor = std::stod(value);
      ACCMG_REQUIRE(plan.stall_factor >= 1,
                    "fault plan: stall-factor must be >= 1");
    } else if (key == "death") {
      plan.device_loss_p = ParseProbability(key, value);
    } else if (key == "max-deaths") {
      plan.max_device_losses = std::stoi(value);
    } else {
      ACCMG_REQUIRE(false, "fault plan: unknown key '" + key + "'");
    }
  }
  return plan;
}

FaultPlan FaultPlan::Chaos(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.kernel_fail_p = 0.02;
  plan.h2d_fail_p = 0.01;
  plan.d2h_fail_p = 0.01;
  plan.p2p_fail_p = 0.01;
  plan.stall_p = 0.02;
  plan.stall_factor = 25.0;
  plan.device_loss_p = 0.002;
  plan.max_device_losses = -1;
  return plan;
}

void FaultInjector::Arm(const FaultPlan& plan, int num_devices) {
  ACCMG_REQUIRE(num_devices > 0, "fault injector needs at least one device");
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  num_devices_ = num_devices;
  op_counts_.assign(
      static_cast<std::size_t>(kNumFaultSites * num_devices), 0);
  dead_.assign(static_cast<std::size_t>(num_devices), 0);
  deaths_ = 0;
  injected_ = 0;
  stalls_ = 0;
  armed_.store(plan.enabled(), std::memory_order_release);
  FaultMetrics::Get().armed.Set(armed_.load() ? 1 : 0);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_release);
  dead_.assign(dead_.size(), 0);
  deaths_ = 0;
  FaultMetrics::Get().armed.Set(0);
}

double FaultInjector::DrawUniform(FaultSite site, int device,
                                  std::uint64_t op_index) const {
  // Pure function of (seed, site, device, index): two splitmix64 rounds over
  // the mixed key give a well-distributed 64-bit word.
  std::uint64_t state = plan_.seed;
  state ^= SplitMix64(state) ^
           (static_cast<std::uint64_t>(static_cast<int>(site)) << 32) ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(device)));
  state += op_index * 0x9E3779B97F4A7C15ULL;
  const std::uint64_t word = SplitMix64(state);
  std::uint64_t tmp = word;
  return static_cast<double>(SplitMix64(tmp) >> 11) * 0x1.0p-53;
}

double FaultInjector::OnOperation(FaultSite site, int device,
                                  std::uint64_t* injected) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return 1.0;
  ACCMG_CHECK(device >= 0 && device < num_devices_,
              "fault injector: device id out of range");
  // Echo on an already-dead device: typed error, no new fault accounted.
  if (dead_[static_cast<std::size_t>(device)]) {
    throw DeviceLostError(
        device, std::string("device ") + std::to_string(device) +
                    " is lost (" + FaultSiteName(site) + " on dead device)");
  }

  auto& count = op_counts_[static_cast<std::size_t>(
      static_cast<int>(site) * num_devices_ + device)];
  const std::uint64_t op_index = count++;
  const double u = DrawUniform(site, device, op_index);

  double site_fail_p = 0;
  switch (site) {
    case FaultSite::kKernel: site_fail_p = plan_.kernel_fail_p; break;
    case FaultSite::kH2D: site_fail_p = plan_.h2d_fail_p; break;
    case FaultSite::kD2H: site_fail_p = plan_.d2h_fail_p; break;
    case FaultSite::kP2P: site_fail_p = plan_.p2p_fail_p; break;
  }

  FaultMetrics& m = FaultMetrics::Get();

  // Priority order: death, transient failure, stall, success.
  double threshold = plan_.device_loss_p;
  if (u < threshold) {
    const int cap = plan_.max_device_losses >= 0
                        ? std::min(plan_.max_device_losses, num_devices_ - 1)
                        : num_devices_ - 1;
    if (deaths_ < cap) {
      dead_[static_cast<std::size_t>(device)] = 1;
      ++deaths_;
      ++injected_;
      if (injected != nullptr) ++*injected;
      m.injected.Add();
      m.device_lost.Add();
      throw DeviceLostError(
          device, std::string("injected device loss: device ") +
                      std::to_string(device) + " died during " +
                      FaultSiteName(site));
    }
    // Death suppressed by the cap: fall through as success.
    return 1.0;
  }
  threshold += site_fail_p;
  if (u < threshold) {
    ++injected_;
    if (injected != nullptr) ++*injected;
    m.injected.Add();
    const std::string what = std::string("injected transient ") +
                             FaultSiteName(site) + " fault on device " +
                             std::to_string(device) + " (op " +
                             std::to_string(op_index) + ")";
    if (site == FaultSite::kKernel) {
      m.injected_kernel.Add();
      throw KernelLaunchError(what);
    }
    m.injected_transfer.Add();
    throw TransferError(what);
  }
  threshold += plan_.stall_p;
  if (u < threshold) {
    ++stalls_;
    m.stalls.Add();
    return plan_.stall_factor;
  }
  return 1.0;
}

bool FaultInjector::alive(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device < 0 || device >= static_cast<int>(dead_.size())) return true;
  return dead_[static_cast<std::size_t>(device)] == 0;
}

std::vector<int> FaultInjector::dead_devices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (std::size_t d = 0; d < dead_.size(); ++d) {
    if (dead_[d]) out.push_back(static_cast<int>(d));
  }
  return out;
}

int FaultInjector::deaths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deaths_;
}

std::uint64_t FaultInjector::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

std::uint64_t FaultInjector::stalls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stalls_;
}

}  // namespace accmg::sim
