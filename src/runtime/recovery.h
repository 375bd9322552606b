// Fault recovery for the multi-GPU executor (docs/ROBUSTNESS.md).
//
// Three pieces the executor and host interpreter share:
//
//  * RecoveryMetrics — the recovery.* registry counters. Every injected
//    fault is attributed to exactly one of retries / degraded / failures
//    at the catch point that handles it (delta accounting against
//    sim::Platform::injected_faults(), which counts only the faults the
//    run's own platform raised), so the acceptance identity
//      fault.injected == recovery.retries + recovery.degraded
//                        + recovery.failures
//    holds at all times.
//
//  * OffloadCheckpoint — the managed-state image an offload is rolled back
//    to before a retry: the authoritative bytes of every array the offload
//    touches (via ManagedArray::SnapshotAuthoritative — direct memory
//    reads, billing-neutral) plus the pre-loop values of scalar reduction
//    variables (RunOffloadImpl writes them into the host env before the
//    fault can be detected). Restore drops all device state, so the retry
//    re-loads from the restored host image — which is also what makes a
//    retry after a device loss correct: the dead device's shards are gone
//    and the survivors reload their (re)partitioned segments from host.
//
//  * RetryTransient — the one transient-retry policy: capped exponential
//    backoff on the simulated clock, kFaultMaxRetries retries. The
//    executor's whole-offload retry loop and RetryTransfer both use it.
//
//  * RetryTransfer — wraps an idempotent host<->device transfer (gathers
//    and scatters issued by the host interpreter outside any offload) in
//    the same policy. The wrapped op must be restartable as-is: Copy* bills
//    (and injects) before moving bytes, so a faulted transfer leaves the
//    destination untouched, and GatherToHost prefers replicas on alive
//    devices — which is why even a DeviceLostError is worth retrying here.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "runtime/managed_array.h"
#include "runtime/validator.h"
#include "sim/platform.h"
#include "translator/eval.h"
#include "translator/offload.h"

namespace accmg::runtime {

struct RecoveryMetrics {
  metrics::Counter& retries;        ///< injected faults absorbed by a retry
  metrics::Counter& degraded;       ///< injected faults absorbed by a shrink
  metrics::Counter& failures;       ///< injected faults escalated to caller
  metrics::Counter& retry_rounds;   ///< retry attempts performed
  metrics::Counter& device_shrinks; ///< devices dropped from live sets
  metrics::Counter& checkpoints;    ///< offload checkpoints captured
  metrics::Counter& rollbacks;      ///< checkpoint restores performed
  metrics::Histogram& backoff_sim_seconds;

  static RecoveryMetrics& Get();
};

/// Pre-offload image of everything RunOffloadImpl may have mutated by the
/// time a fault surfaces. Captured once per offload; Restore may run any
/// number of times and always returns to the captured state.
class OffloadCheckpoint {
 public:
  /// Snapshots the authoritative bytes of every array in `offload.arrays`
  /// and the current values of its scalar reduction variables.
  void Capture(const translator::LoopOffload& offload,
               translator::HostEnv& env, const ArrayResolver& resolve);

  /// Rolls managed state back: authoritative bytes into the host image,
  /// all device shards dropped (placement -> kHostOnly, host valid), and
  /// scalar reduction variables reset in `env`. The next attempt reloads
  /// devices from the restored host copy.
  void Restore(translator::HostEnv& env) const;

 private:
  struct ArrayImage {
    ManagedArray* array = nullptr;
    std::vector<std::byte> bytes;
  };
  struct ScalarImage {
    const frontend::VarDecl* decl = nullptr;
    translator::TypedValue value;
  };

  std::vector<ArrayImage> arrays_;
  std::vector<ScalarImage> scalar_reds_;
};

/// Transient-fault retry policy (docs/ROBUSTNESS.md): one offload, or one
/// guarded transfer, is retried at most kFaultMaxRetries times. The first
/// retry waits kFaultBackoffS simulated seconds and each further one doubles
/// the wait (100, 200, 400 µs). Device losses do not consume retries — the
/// executor shrinks the device set instead.
inline constexpr int kFaultMaxRetries = 3;
inline constexpr double kFaultBackoffS = 1e-4;

/// Absorbs one failed attempt of an offload or guarded transfer whose
/// injected faults number `delta`; `retries` counts the retries so far.
/// With the budget spent, attributes the faults to recovery.failures and
/// returns false: the caller rethrows. Otherwise attributes them to
/// recovery.retries, bills the backoff on the simulated clock (kOther)
/// inside a `retry:<what>` span, counts the retry and returns true: the
/// caller retries.
bool RetryTransient(sim::Platform& platform, const std::string& what,
                    std::uint64_t delta, int& retries);

/// Runs `op` (returning a simulated end time) under RetryTransient,
/// attributing every injected fault to recovery.retries or
/// recovery.failures (delta accounting). Only injected faults are retried,
/// so with the injector disarmed this just runs `op`. `what` labels
/// trace/log output.
double RetryTransfer(sim::Platform& platform, const char* what,
                     const std::function<double()>& op);

}  // namespace accmg::runtime
