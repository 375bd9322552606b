// AccService: the resident compile-once / serve-many front of the accmg
// system (ROADMAP item: "Compile-once, serve-many").
//
// One long-lived simulated platform is shared by every job. The moving
// parts, in submission order:
//
//   Submit ──> JobQueue (bounded; per-tenant round-robin; same-hash
//              batching) ──> worker pops a batch ──> ProgramCache
//              (one compile per batch key) ──> DeviceArena lease
//              (disjoint devices) ──> ProgramRunner::Run on a fork of
//              the platform ──> per-job billing + trace export.
//
// Concurrency contract: everything — admission, compilation, binding and
// the simulated executions — runs concurrently across workers. Each
// execution attempt runs on its own sim::Platform::Fork(): the fork shares
// the devices, the worker pool and the fault injector, and has its own
// SimClock (starting at 0) and counters. A job touches only its leased
// devices, and leases are disjoint, so a job's report — simulated time,
// bytes, transfers and kernel launches — is bit-identical to the same job
// run alone on those device ids, however many jobs run beside it. The
// billing-identity test and bench_serve_saturation verify exactly that.
//
// Robustness (docs/ROBUSTNESS.md): every device lease is RAII
// (DeviceArena::Lease releases on destruction), so no exception path in a
// worker can leak devices. Jobs that die on an injected fault get re-run
// up to Config::job_retries times on a fresh lease clamped to the healthy
// device count; devices the fault injector killed are revoked from the
// arena after every attempt, and transiently-faulting lease members are
// soft-quarantined. A per-job wall-clock deadline (JobRequest::deadline_ms,
// default Config::default_deadline_ms) is enforced end-to-end: expired
// queued jobs fail without running, and a watchdog thread cancels expired
// running jobs via the executor's cooperative interrupt flag. Failed jobs
// carry a typed error_kind; admission rejects leases larger than the
// healthy device count (degraded mode).
//
// Metrics: service.jobs.{submitted,completed,failed} (counters),
// service.billed.bytes / service.billed.transfers (counters),
// service.billed.sim_seconds (histogram), recovery.job_retries /
// recovery.watchdog_cancels / service.admission.degraded_rejects
// (counters), plus the cache/queue/arena metrics documented in their
// headers. docs/SERVING.md is the operator guide for all of this.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/arena.h"
#include "service/cache.h"
#include "service/job.h"
#include "service/queue.h"
#include "sim/platform.h"

namespace accmg::service {

class AccService {
 public:
  struct Config {
    sim::Platform* platform = nullptr;  ///< required; outlives the service

    int workers = 2;  ///< worker threads popping job batches

    std::size_t cache_capacity = 64;  ///< compiled-program LRU entries
    std::size_t cache_shards = 8;

    std::size_t queue_capacity = 64;  ///< admission bound (hard reject)
    std::size_t max_batch = 8;        ///< same-hash jobs per popped batch

    /// When non-empty, jobs that run with ExecOptions::trace get their
    /// events exported to `<trace_dir>/job_<id>.json` (Chrome trace format,
    /// filtered to that job's events). The directory must exist.
    std::string trace_dir;

    /// Times a faulted job may be re-run on a fresh (healthy-clamped)
    /// lease before it fails for good.
    int job_retries = 1;

    /// Default JobRequest::deadline_ms when the request leaves it at 0
    /// (<= 0 here means jobs have no deadline unless they ask for one).
    double default_deadline_ms = 0;

    /// Watchdog scan period for expired running jobs.
    double watchdog_poll_ms = 5;
  };

  explicit AccService(Config config);
  /// Stops admission, drains queued jobs, joins workers.
  ~AccService();

  AccService(const AccService&) = delete;
  AccService& operator=(const AccService&) = delete;

  /// Admits a job. Returns its id, or -1 when it was rejected — queue
  /// capacity, the service stopping, or a lease larger than the healthy
  /// device count (degraded mode). `reject_reason`, when non-null, names
  /// the reason of a -1 return.
  int Submit(JobRequest request, std::string* reject_reason = nullptr);

  /// State of a known job id (throws on unknown ids).
  JobState Status(int job_id) const;

  /// Blocks until the job reaches kDone/kFailed and returns its result.
  JobResult Wait(int job_id);

  /// Bounded Wait: returns nullopt when `timeout` elapses before the job
  /// finishes (the job keeps running — this only bounds the wait).
  std::optional<JobResult> WaitFor(int job_id,
                                   std::chrono::milliseconds timeout);

  /// Blocks until every admitted job has finished.
  void Drain();

  /// Stops admission, drains already-queued jobs, joins workers.
  /// Idempotent; also run by the destructor.
  void Stop();

  ProgramCache& cache() { return cache_; }
  DeviceArena& arena() { return arena_; }
  JobQueue& queue() { return queue_; }
  const Config& config() const { return config_; }

 private:
  /// Live bookkeeping of one running job, shared with the watchdog.
  struct RunningJob {
    std::atomic<bool> cancel{false};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  void WorkerLoop();
  void WatchdogLoop();
  void ProcessBatch(std::vector<QueuedJob> batch);
  void RunJob(QueuedJob& job,
              const std::shared_ptr<const runtime::AccProgram>& program,
              bool cache_hit);
  /// One execution attempt: healthy-clamped RAII lease, bind, run, bill,
  /// trace export, on_finish. Throws to signal failure; the lease is
  /// released on every path.
  void RunAttempt(QueuedJob& job,
                  const std::shared_ptr<const runtime::AccProgram>& program,
                  JobResult& result, RunningJob& running);
  /// Revokes devices the fault injector reports dead from the arena.
  void SyncDeadDevices();
  void Finish(JobResult result);

  Config config_;
  ProgramCache cache_;
  DeviceArena arena_;
  JobQueue queue_;

  mutable std::mutex jobs_mutex_;
  std::condition_variable job_done_;
  std::unordered_map<int, JobResult> jobs_;  ///< state + eventual result
  int next_job_id_ = 0;

  mutable std::mutex running_mutex_;
  std::condition_variable watchdog_wake_;
  std::unordered_map<int, std::shared_ptr<RunningJob>> running_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace accmg::service
