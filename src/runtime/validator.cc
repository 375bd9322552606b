#include "runtime/validator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <string>

#include "common/error.h"
#include "common/metrics.h"
#include "ir/exec.h"

namespace accmg::runtime {

using translator::HostEnv;
using translator::LoopOffload;

namespace {

std::uint64_t LoadRaw(const std::byte* base, std::size_t elem_size,
                      std::int64_t elem_offset) {
  std::uint64_t raw = 0;
  std::memcpy(&raw, base + elem_offset * static_cast<std::int64_t>(elem_size),
              elem_size);
  return raw;
}

double RawToDouble(ir::ValType type, std::uint64_t raw) {
  return translator::TypedValue::FromElementBits(type, raw).AsDouble();
}

std::string RawToString(ir::ValType type, std::uint64_t raw) {
  switch (type) {
    case ir::ValType::kF32:
    case ir::ValType::kF64:
      return std::to_string(RawToDouble(type, raw));
    case ir::ValType::kI32:
      return std::to_string(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(raw)));
    case ir::ValType::kI64:
      return std::to_string(static_cast<std::int64_t>(raw));
  }
  return "?";
}

/// Relative tolerance for float reduction results. Both runs are
/// deterministic, but they fold in different orders: the golden run is one
/// left fold over the whole iteration space, the multi-GPU run folds each
/// chunk, then each device, then combines the devices. Float rounding
/// differs accordingly.
constexpr double kReductionRelTol = 1e-5;

/// Float equality up to kReductionRelTol (used only where the fold order
/// between the multi-GPU and golden runs legitimately differs); exact
/// otherwise.
bool RawMatches(ir::ValType type, std::uint64_t a, std::uint64_t b,
                bool approximate) {
  if (a == b) return true;
  if (!approximate || !ir::IsFloat(type)) return false;
  const double da = RawToDouble(type, a);
  const double db = RawToDouble(type, b);
  if (std::isnan(da) && std::isnan(db)) return true;
  const double scale = std::max({1.0, std::abs(da), std::abs(db)});
  return std::abs(da - db) <= kReductionRelTol * scale;
}

/// Human-readable position of flat element `i` in `array`: plain index for
/// 1-D arrays, index plus the (row, col) coordinate for arrays whose data
/// clause declared a 2-D shape — a diverging stencil cell is much easier to
/// localize by grid coordinate than by flat offset.
std::string ElementCoord(const ManagedArray& array, std::int64_t i) {
  std::string text = std::to_string(i);
  if (array.is_2d()) {
    text += " (row " + std::to_string(i / array.cols()) + ", col " +
            std::to_string(i % array.cols()) + ")";
  }
  return text;
}

/// Asserts on destruction that the validator added no billed transfers,
/// kernel launches or simulated time — validation reads device buffers
/// behind the platform's back on purpose.
class BillingGuard {
 public:
  explicit BillingGuard(sim::Platform& platform)
      : platform_(platform),
        counters_(platform.counters()),
        sim_time_(platform.clock().breakdown().Total()) {}

  ~BillingGuard() noexcept(false) {
    // A divergence is already propagating: don't stack a second exception.
    if (std::uncaught_exceptions() > 0) return;
    const sim::PlatformCounters& now = platform_.counters();
    ACCMG_CHECK(now.kernel_launches == counters_.kernel_launches &&
                    now.h2d_transfers == counters_.h2d_transfers &&
                    now.d2h_transfers == counters_.d2h_transfers &&
                    now.p2p_transfers == counters_.p2p_transfers &&
                    now.h2d_bytes == counters_.h2d_bytes &&
                    now.d2h_bytes == counters_.d2h_bytes &&
                    now.p2p_bytes == counters_.p2p_bytes,
                "validator changed billed transfer counters");
    ACCMG_CHECK(platform_.clock().breakdown().Total() == sim_time_,
                "validator changed the simulated clock");
  }

 private:
  sim::Platform& platform_;
  sim::PlatformCounters counters_;
  double sim_time_;
};

}  // namespace

Validator::Validator(sim::Platform& platform, std::vector<int> devices)
    : platform_(platform), devices_(std::move(devices)) {}

void Validator::Diverge(const std::string& message) {
  ++stats_.divergences;
  static metrics::Counter& divergences_metric =
      metrics::Registry::Global().counter("validator.divergences");
  divergences_metric.Add();
  throw Error("validate: " + message);
}

void Validator::BeginOffload(const LoopOffload& offload, HostEnv& env,
                             const ArrayResolver& resolve) {
  BillingGuard guard(platform_);

  values_ = ResolveLaunchValues(
      offload, env,
      [&](const frontend::VarDecl& decl) { return resolve(decl).count(); });

  // Authoritative pre-image of every touched array: host bytes overlaid
  // with the valid device truth (ManagedArray::SnapshotAuthoritative).
  // Reads go straight to the underlying buffer storage (no platform copy):
  // capturing must not perturb billing.
  arrays_.clear();
  arrays_.reserve(offload.arrays.size());
  for (const auto& config : offload.arrays) {
    ManagedArray& array = resolve(*config.decl);
    GoldenArray golden;
    golden.config = &config;
    golden.bytes.resize(array.total_bytes());
    array.SnapshotAuthoritative(golden.bytes.data());
    arrays_.push_back(std::move(golden));
  }
}

void Validator::RemoveDevice(int device) {
  devices_.erase(std::remove(devices_.begin(), devices_.end(), device),
                 devices_.end());
}

void Validator::CheckOffload(const LoopOffload& offload, HostEnv& env,
                             const ArrayResolver& resolve) {
  BillingGuard guard(platform_);
  ACCMG_CHECK(arrays_.size() == offload.arrays.size(),
              "validator check without a matching BeginOffload");

  // --- golden execution: one device, whole iteration space, full arrays ---
  ir::KernelExec exec(offload.decoded);
  values_.BindTo(exec);
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    ManagedArray& array = resolve(*arrays_[a].config->decl);
    ir::ArrayBinding& binding = exec.bindings[a];
    binding.data = arrays_[a].bytes.data();
    binding.lo = 0;
    binding.hi = array.count();
    binding.write_lo = 0;
    binding.write_hi = array.count();
    binding.logical_size = array.count();
  }
  exec.ResetOutputs();
  sim::KernelStats golden_stats;
  try {
    exec.Execute(0, values_.total, golden_stats);
  } catch (const DeviceError& fault) {
    Diverge("kernel '" + offload.name +
            "': golden single-device execution faulted (" + fault.what() +
            "); the kernel reads outside the array bounds");
  }

  // --- scalar reductions: fold the golden partial into the pre-loop value
  // and compare with what the executor wrote back into the environment ---
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    const auto& red = offload.scalar_reds[r];
    const auto& slot = offload.kernel.scalar_reductions[r];
    const std::uint64_t golden_value =
        ir::CombineRaw(slot.op, slot.type, values_.red_initial[r],
                       exec.scalar_red_results()[r]);
    const std::uint64_t actual =
        env.GetScalar(*red.decl).ToElementBits(slot.type);
    ++stats_.elements_compared;
    if (!RawMatches(slot.type, actual, golden_value, /*approximate=*/true)) {
      Diverge("kernel '" + offload.name + "': scalar reduction '" +
              red.decl->name + "' diverges: multi-GPU=" +
              RawToString(slot.type, actual) + " golden=" +
              RawToString(slot.type, golden_value));
    }
  }

  // --- array reductions: fold golden partials into the golden image. The
  // pre-kernel values are still resident there (kernels accumulate into
  // privatized partials, never into the destination bytes). ---
  for (std::size_t r = 0; r < offload.array_reds.size(); ++r) {
    const auto& slot = offload.kernel.array_reductions[r];
    std::byte* golden = nullptr;
    for (auto& g : arrays_) {
      if (g.config->decl == offload.array_reds[r].decl) {
        golden = g.bytes.data();
      }
    }
    ACCMG_CHECK(golden != nullptr, "reduction destination not captured");
    ir::FoldPartialInto(slot.op, slot.type, golden, values_.red_lower[r],
                        exec.array_red_partials()[r]);
  }

  // --- diff every shard and the host image against the golden image ---
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    const GoldenArray& golden = arrays_[a];
    const auto& config = *golden.config;
    const auto& param = offload.kernel.arrays[a];
    ManagedArray& array = resolve(*config.decl);
    const std::size_t esize = array.elem_size();
    // Reduction destinations tolerate float rounding: the multi-GPU result
    // folds its partials in a different order than the golden run.
    const bool approximate = config.is_reduction_dest;

    for (int device : devices_) {
      const DeviceShard& shard = array.shard(device);
      if (shard.data == nullptr || !shard.valid || shard.loaded.empty()) {
        continue;
      }
      const std::byte* resident = shard.data->bytes().data();
      for (std::int64_t i = shard.loaded.lo; i < shard.loaded.hi; ++i) {
        const std::uint64_t actual =
            LoadRaw(resident, esize, i - shard.loaded.lo);
        const std::uint64_t expected = LoadRaw(golden.bytes.data(), esize, i);
        ++stats_.elements_compared;
        if (!RawMatches(config.elem, actual, expected, approximate)) {
          Diverge("kernel '" + offload.name + "': array '" + config.name +
                  "' diverges at element " + ElementCoord(array, i) +
                  " on device " + std::to_string(device) + ": multi-GPU=" +
                  RawToString(config.elem, actual) + " golden=" +
                  RawToString(config.elem, expected));
        }
      }
    }

    if (array.host_valid()) {
      const auto* host = static_cast<const std::byte*>(array.host_data());
      for (std::int64_t i = 0; i < array.count(); ++i) {
        const std::uint64_t actual = LoadRaw(host, esize, i);
        const std::uint64_t expected = LoadRaw(golden.bytes.data(), esize, i);
        ++stats_.elements_compared;
        if (!RawMatches(config.elem, actual, expected, approximate)) {
          Diverge("kernel '" + offload.name + "': host image of '" +
                  config.name + "' is marked valid but diverges at element " +
                  ElementCoord(array, i) + ": host=" +
                  RawToString(config.elem, actual) + " golden=" +
                  RawToString(config.elem, expected));
        }
      }
    }

    // --- post-kernel invariants of the coherence machinery ---
    if (param.dirty_tracked) {
      for (int device : devices_) {
        const DeviceShard& shard = array.shard(device);
        for (const sim::DeviceBuffer* bits :
             {shard.dirty1.get(), shard.dirty2.get()}) {
          if (bits == nullptr) continue;
          for (std::byte b : bits->bytes()) {
            if (b != std::byte{0}) {
              Diverge("kernel '" + offload.name + "': dirty bits of '" +
                      config.name + "' on device " + std::to_string(device) +
                      " were not cleared by propagation");
            }
          }
        }
      }
    }
    if (param.miss_checked) {
      for (int device : devices_) {
        const DeviceShard& shard = array.shard(device);
        if (!shard.miss.records.empty()) {
          Diverge("kernel '" + offload.name + "': " +
                  std::to_string(shard.miss.records.size()) +
                  " unreplayed write miss(es) of '" + config.name +
                  "' on device " + std::to_string(device));
        }
      }
    }
    if (config.is_written) {
      if (array.host_valid()) {
        Diverge("kernel '" + offload.name + "': written array '" +
                config.name + "' left the host image marked valid");
      }
      for (int device : devices_) {
        if (!array.shard(device).valid) {
          Diverge("kernel '" + offload.name + "': written array '" +
                  config.name + "' left device " + std::to_string(device) +
                  "'s shard marked invalid");
        }
      }
    }
  }

  ++stats_.kernels_checked;
  static metrics::Counter& checked_metric =
      metrics::Registry::Global().counter("validator.kernels_checked");
  checked_metric.Add();
  arrays_.clear();
}

void Validator::ReportFault(const LoopOffload& offload,
                            const std::exception& fault) {
  Diverge("kernel '" + offload.name +
          "': multi-GPU execution faulted (" + fault.what() +
          "); a kernel touched an element its device never loaded — usually "
          "a wrong localaccess declaration");
}

}  // namespace accmg::runtime
