#include "runtime/validator.h"

#include <algorithm>
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

std::string RawToString(ir::ValType type, std::uint64_t raw) {
  const auto value = translator::TypedValue::FromElementBits(type, raw);
  return ir::IsFloat(type) ? std::to_string(value.AsDouble())
                           : std::to_string(value.AsInt());
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

Validator::Validator(sim::Platform& platform) : platform_(platform) {}

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
    arrays_.push_back({&config, std::vector<std::byte>(array.total_bytes())});
    array.SnapshotAuthoritative(arrays_.back().bytes.data());
  }
}

void Validator::CheckOffload(const LoopOffload& offload, HostEnv& env,
                             const ArrayResolver& resolve,
                             const LaunchGeometry& geometry,
                             const std::vector<int>& devices) {
  BillingGuard guard(platform_);
  ACCMG_CHECK(arrays_.size() == offload.arrays.size(),
              "validator check without a matching BeginOffload");

  // --- golden execution: the executor's parts and sub-launches over the
  // golden images, its fold hierarchy for the reductions. Array reductions
  // fold into the golden images, where the pre-kernel values are still
  // resident (kernels accumulate into privatized partials). ---
  HostRunResult golden_run;
  try {
    golden_run = RunOffloadOnHost(
        platform_, offload, values_, geometry,
        [&](const frontend::VarDecl& decl) {
          const auto it = std::find_if(
              arrays_.begin(), arrays_.end(),
              [&](const GoldenArray& g) { return g.config->decl == &decl; });
          ACCMG_CHECK(it != arrays_.end(), "golden array not captured");
          return translator::HostArray{it->bytes.data(), it->config->elem,
                                       resolve(decl).count()};
        });
  } catch (const DeviceError& fault) {
    Diverge("kernel '" + offload.name + "': golden execution faulted (" +
            fault.what() + "); the kernel reads outside the array bounds");
  }

  // --- scalar reductions: compare with what the executor wrote back into
  // the environment ---
  for (std::size_t r = 0; r < offload.scalar_reds.size(); ++r) {
    const auto& red = offload.scalar_reds[r];
    const ir::ValType type = offload.kernel.scalar_reductions[r].type;
    const std::uint64_t actual = env.GetScalar(*red.decl).ToElementBits(type);
    ++stats_.elements_compared;
    if (actual != golden_run.scalar_reds[r]) {
      Diverge("kernel '" + offload.name + "': scalar reduction '" +
              red.decl->name + "' diverges: multi-GPU=" +
              RawToString(type, actual) + " golden=" +
              RawToString(type, golden_run.scalar_reds[r]));
    }
  }

  // --- diff every shard and the host image against the golden image ---
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    const GoldenArray& golden = arrays_[a];
    const auto& config = *golden.config;
    const auto& param = offload.kernel.arrays[a];
    ManagedArray& array = resolve(*config.decl);
    const std::size_t esize = array.elem_size();
    // Diffs a copy of elements `range`, starting at `actual`, against the
    // golden image. A divergence reads "<what> at element <i><where>".
    auto diff = [&](const std::byte* actual, Range range,
                    const std::string& what, const std::string& where,
                    const char* copy) {
      for (std::int64_t i = range.lo; i < range.hi; ++i) {
        const std::uint64_t got = LoadRaw(actual, esize, i - range.lo);
        const std::uint64_t expected = LoadRaw(golden.bytes.data(), esize, i);
        ++stats_.elements_compared;
        if (got != expected) {
          Diverge("kernel '" + offload.name + "': " + what + " at element " +
                  ElementCoord(array, i) + where + ": " + copy + "=" +
                  RawToString(config.elem, got) + " golden=" +
                  RawToString(config.elem, expected));
        }
      }
    };
    for (int device : devices) {
      const DeviceShard& shard = array.shard(device);
      if (shard.data == nullptr || !shard.valid || shard.loaded.empty()) {
        continue;
      }
      diff(shard.data->bytes().data(), shard.loaded,
           "array '" + config.name + "' diverges",
           " on device " + std::to_string(device), "multi-GPU");
    }
    if (array.host_valid()) {
      diff(static_cast<const std::byte*>(array.host_data()),
           Range{0, array.count()},
           "host image of '" + config.name +
               "' is marked valid but diverges",
           "", "host");
    }

    // --- post-kernel invariants of the coherence machinery ---
    if (param.dirty_tracked) {
      for (int device : devices) {
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
      for (int device : devices) {
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
      for (int device : devices) {
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
