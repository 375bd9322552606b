#include "runtime/recovery.h"

#include <cmath>
#include <cstring>
#include <string>

#include "common/error.h"
#include "common/trace.h"
#include "sim/clock.h"

namespace accmg::runtime {

RecoveryMetrics& RecoveryMetrics::Get() {
  auto& reg = metrics::Registry::Global();
  static RecoveryMetrics m{
      reg.counter("recovery.retries"),
      reg.counter("recovery.degraded"),
      reg.counter("recovery.failures"),
      reg.counter("recovery.retry_rounds"),
      reg.counter("recovery.device_shrinks"),
      reg.counter("recovery.checkpoints"),
      reg.counter("recovery.rollbacks"),
      reg.histogram("recovery.backoff_sim_seconds"),
  };
  return m;
}

void OffloadCheckpoint::Capture(const translator::LoopOffload& offload,
                                translator::HostEnv& env,
                                const ArrayResolver& resolve) {
  arrays_.clear();
  scalar_reds_.clear();
  for (const auto& config : offload.arrays) {
    ManagedArray& array = resolve(*config.decl);
    ArrayImage image;
    image.array = &array;
    image.bytes.resize(array.total_bytes());
    array.SnapshotAuthoritative(image.bytes.data());
    arrays_.push_back(std::move(image));
  }
  for (const auto& red : offload.scalar_reds) {
    scalar_reds_.push_back({red.decl, env.GetScalar(*red.decl)});
  }
  RecoveryMetrics::Get().checkpoints.Add();
}

void OffloadCheckpoint::Restore(translator::HostEnv& env) const {
  for (const auto& image : arrays_) {
    ManagedArray& array = *image.array;
    std::memcpy(array.host_data(), image.bytes.data(), image.bytes.size());
    // Dropping all shards (even valid survivors) is what makes restore
    // simple and always correct: the retry reloads every participant from
    // the restored host image, so no stale partial writes can linger on a
    // device that ran part of the faulted attempt.
    array.DropDeviceState();
    array.set_host_valid(true);
  }
  for (const auto& scalar : scalar_reds_) {
    env.SetScalar(*scalar.decl, scalar.value);
  }
  RecoveryMetrics::Get().rollbacks.Add();
}

bool RetryTransient(sim::Platform& platform, const std::string& what,
                    std::uint64_t delta, int& retries) {
  auto& recovery = RecoveryMetrics::Get();
  if (retries >= kFaultMaxRetries) {
    recovery.failures.Add(delta);
    return false;
  }
  const double backoff = std::ldexp(kFaultBackoffS, retries);
  recovery.retries.Add(delta);
  recovery.retry_rounds.Add();
  recovery.backoff_sim_seconds.Observe(backoff);
  trace::Span span("retry:" + what, "recovery");
  platform.clock().AddSerial(sim::TimeCategory::kOther, backoff);
  ++retries;
  return true;
}

double RetryTransfer(sim::Platform& platform, const char* what,
                     const std::function<double()>& op) {
  int retries = 0;
  for (;;) {
    const std::uint64_t injected_before = platform.injected_faults();
    try {
      return op();
    } catch (const FaultError&) {
      // DeviceLostError is retryable here too: the transfer is idempotent
      // (billing precedes the memcpy) and a retried gather prefers replicas
      // on alive devices, so losing one source mid-gather is survivable.
      if (!RetryTransient(platform, what,
                          platform.injected_faults() - injected_before,
                          retries)) {
        throw;
      }
    }
  }
}

}  // namespace accmg::runtime
