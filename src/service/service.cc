#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace accmg::service {

namespace {

struct ServiceMetrics {
  metrics::Counter& submitted;
  metrics::Counter& completed;
  metrics::Counter& failed;
  metrics::Counter& billed_bytes;
  metrics::Counter& billed_transfers;
  metrics::Histogram& billed_sim_seconds;
  metrics::Counter& job_retries;
  metrics::Counter& watchdog_cancels;
  metrics::Counter& degraded_rejects;

  static ServiceMetrics& Get() {
    static ServiceMetrics m{
        metrics::Registry::Global().counter("service.jobs.submitted"),
        metrics::Registry::Global().counter("service.jobs.completed"),
        metrics::Registry::Global().counter("service.jobs.failed"),
        metrics::Registry::Global().counter("service.billed.bytes"),
        metrics::Registry::Global().counter("service.billed.transfers"),
        metrics::Registry::Global().histogram("service.billed.sim_seconds"),
        metrics::Registry::Global().counter("recovery.job_retries"),
        metrics::Registry::Global().counter("recovery.watchdog_cancels"),
        metrics::Registry::Global().counter(
            "service.admission.degraded_rejects"),
    };
    return m;
  }
};

bool Terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed;
}

/// Typed failure class of a job error (JobResult::error_kind).
const char* ClassifyError(const std::exception& e) {
  if (dynamic_cast<const DeviceLostError*>(&e) != nullptr) {
    return "device_lost";
  }
  if (dynamic_cast<const FaultError*>(&e) != nullptr) return "fault";
  if (dynamic_cast<const JobTimeoutError*>(&e) != nullptr) return "timeout";
  if (dynamic_cast<const CompileError*>(&e) != nullptr) return "compile";
  return "internal";
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

AccService::AccService(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity, config_.cache_shards),
      arena_(config_.platform != nullptr ? config_.platform->num_devices()
                                         : 1),
      queue_(config_.queue_capacity) {
  ACCMG_REQUIRE(config_.platform != nullptr, "AccService requires a platform");
  ACCMG_REQUIRE(config_.workers >= 1, "AccService requires >= 1 worker");
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AccService::~AccService() { Stop(); }

int AccService::Submit(JobRequest request, std::string* reject_reason) {
  ACCMG_REQUIRE(request.gpus >= 1 && request.gpus <= arena_.num_devices(),
                "job requests more GPUs than the platform has");
  // Degraded-mode admission: dead devices never come back, so a lease the
  // healthy set cannot cover is rejected up front with the reason instead
  // of being queued to fail later.
  const int healthy = arena_.healthy_count();
  if (request.gpus > healthy) {
    ServiceMetrics::Get().degraded_rejects.Add();
    if (reject_reason != nullptr) {
      *reject_reason = "degraded: " + std::to_string(request.gpus) +
                       " gpus requested, " + std::to_string(healthy) +
                       " healthy";
    }
    return -1;
  }
  QueuedJob job;
  job.program_key =
      ProgramCache::KeyFor(request.source, request.compile_options);
  double deadline_ms = request.deadline_ms;
  if (deadline_ms == 0) deadline_ms = config_.default_deadline_ms;
  if (deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(
                       static_cast<std::int64_t>(deadline_ms * 1000));
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job.id = next_job_id_++;
    JobResult& record = jobs_[job.id];
    record.job_id = job.id;
    record.state = JobState::kQueued;
    record.program_key = job.program_key;
  }
  const int id = job.id;
  job.request = std::move(request);
  if (!queue_.Push(std::move(job))) {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(id);
    if (reject_reason != nullptr) *reject_reason = "queue-full";
    return -1;
  }
  ServiceMetrics::Get().submitted.Add();
  return id;
}

JobState AccService::Status(int job_id) const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  ACCMG_REQUIRE(it != jobs_.end(), "unknown job id");
  return it->second.state;
}

JobResult AccService::Wait(int job_id) {
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  ACCMG_REQUIRE(it != jobs_.end(), "unknown job id");
  job_done_.wait(lock, [&] { return Terminal(jobs_.at(job_id).state); });
  return jobs_.at(job_id);
}

std::optional<JobResult> AccService::WaitFor(
    int job_id, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  ACCMG_REQUIRE(it != jobs_.end(), "unknown job id");
  if (!job_done_.wait_for(lock, timeout,
                          [&] { return Terminal(jobs_.at(job_id).state); })) {
    return std::nullopt;
  }
  return jobs_.at(job_id);
}

void AccService::Drain() {
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  job_done_.wait(lock, [&] {
    for (const auto& [id, record] : jobs_) {
      if (!Terminal(record.state)) return false;
    }
    return true;
  });
}

void AccService::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Stop();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_wake_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void AccService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(running_mutex_);
  const auto poll = std::chrono::microseconds(
      static_cast<std::int64_t>(std::max(1.0, config_.watchdog_poll_ms) *
                                1000));
  while (!watchdog_stop_) {
    watchdog_wake_.wait_for(lock, poll);
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, running] : running_) {
      if (running->has_deadline && now >= running->deadline &&
          !running->cancel.exchange(true)) {
        ServiceMetrics::Get().watchdog_cancels.Add();
      }
    }
  }
}

void AccService::SyncDeadDevices() {
  const sim::FaultInjector& faults = config_.platform->faults();
  if (!faults.armed()) return;
  for (const int d : faults.dead_devices()) arena_.MarkDead(d);
}

void AccService::WorkerLoop() {
  while (true) {
    std::vector<QueuedJob> batch = queue_.PopBatch(config_.max_batch);
    if (batch.empty()) return;  // stopped and drained
    ProcessBatch(std::move(batch));
  }
}

void AccService::ProcessBatch(std::vector<QueuedJob> batch) {
  // One cache probe — and at most one compile — for the whole batch; every
  // job in it has the same program key by construction (queue.h).
  std::shared_ptr<const runtime::AccProgram> program;
  bool first_was_hit = false;
  std::string compile_error;
  try {
    const JobRequest& lead = batch.front().request;
    program = cache_.GetOrCompile(lead.name, lead.source, lead.compile_options,
                                  &first_was_hit);
  } catch (const std::exception& e) {
    compile_error = e.what();
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (program == nullptr) {
      JobResult result;
      result.job_id = batch[i].id;
      result.program_key = batch[i].program_key;
      result.state = JobState::kFailed;
      result.error = "compile failed: " + compile_error;
      result.error_kind = "compile";
      if (batch[i].request.on_finish) batch[i].request.on_finish(nullptr);
      Finish(std::move(result));
      continue;
    }
    if (batch[i].ExpiredBy(std::chrono::steady_clock::now())) {
      // The deadline covers queue wait too: an expired job fails without
      // burning a device lease.
      JobResult result;
      result.job_id = batch[i].id;
      result.program_key = batch[i].program_key;
      result.state = JobState::kFailed;
      result.error = "deadline expired while queued";
      result.error_kind = "timeout";
      if (batch[i].request.on_finish) batch[i].request.on_finish(nullptr);
      Finish(std::move(result));
      continue;
    }
    // Batch-mates after the first never trigger a compile, so they count
    // as cache hits regardless of how the leader fared.
    RunJob(batch[i], program, i == 0 ? first_was_hit : true);
  }
}

void AccService::RunJob(
    QueuedJob& job, const std::shared_ptr<const runtime::AccProgram>& program,
    bool cache_hit) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.at(job.id).state = JobState::kRunning;
  }

  JobResult result;
  result.job_id = job.id;
  result.program_key = job.program_key;
  result.cache_hit = cache_hit;

  auto running = std::make_shared<RunningJob>();
  running->has_deadline = job.has_deadline;
  running->deadline = job.deadline;
  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_[job.id] = running;
  }

  for (int attempt = 0;; ++attempt) {
    try {
      RunAttempt(job, program, result, *running);
      result.state = JobState::kDone;
      result.error.clear();
      result.error_kind.clear();
      break;
    } catch (const std::exception& e) {
      // The attempt's lease is already released (RAII) and any devices the
      // injector killed are revoked before the next lease is taken.
      SyncDeadDevices();
      result.error_kind = ClassifyError(e);
      const bool retryable =
          dynamic_cast<const FaultError*>(&e) != nullptr &&
          !running->cancel.load(std::memory_order_relaxed);
      if (retryable && attempt < config_.job_retries) {
        // Transiently-faulting devices get a spell of soft quarantine so
        // the re-lease prefers others when the arena has spares.
        if (result.error_kind == "fault") {
          for (const int d : result.devices) arena_.MarkSuspect(d);
        }
        ServiceMetrics::Get().job_retries.Add();
        ++result.retries;
        continue;
      }
      result.state = JobState::kFailed;
      result.error = e.what();
      if (job.request.on_finish) job.request.on_finish(nullptr);
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_.erase(job.id);
  }
  Finish(std::move(result));
}

void AccService::RunAttempt(
    QueuedJob& job, const std::shared_ptr<const runtime::AccProgram>& program,
    JobResult& result, RunningJob& running) {
  // Degraded mode: the lease shrinks to what is still healthy rather than
  // waiting forever on devices that cannot come back.
  const int gpus = std::min(job.request.gpus, arena_.healthy_count());
  if (gpus < 1) {
    throw DeviceLostError(-1, "no healthy devices left in the arena");
  }

  // RAII lease: every exit path below — including thrown faults, timeouts
  // and bind/run exceptions — releases the devices via ~Lease.
  DeviceArena::Lease lease;
  if (job.has_deadline) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= job.deadline) {
      throw JobTimeoutError("deadline expired before a device lease");
    }
    lease = arena_.Acquire(
        gpus, std::chrono::duration_cast<std::chrono::milliseconds>(
                  job.deadline - now));
    if (!lease.valid()) {
      throw JobTimeoutError("deadline expired waiting for a device lease");
    }
  } else {
    lease = arena_.Acquire(gpus);
  }
  result.devices = lease.devices();

  // The attempt accounts on its own fork: the leased devices, the pool and
  // the fault injector are shared, the clock and counters are the job's.
  // The fork outlives the runner, which on_finish still reads.
  const std::unique_ptr<sim::Platform> platform = config_.platform->Fork();
  runtime::RunConfig run_config;
  run_config.platform = platform.get();
  run_config.num_gpus = gpus;
  run_config.devices = lease.devices();
  run_config.options = job.request.exec_options;
  run_config.options.job_id = job.id;
  run_config.options.cancel = &running.cancel;

  trace::JobScope job_scope(job.id);
  runtime::ProgramRunner runner(*program, run_config);
  if (job.request.bind) job.request.bind(runner);
  result.report = runner.Run(job.request.function);

  const sim::PlatformCounters& c = result.report.counters;
  ServiceMetrics::Get().billed_bytes.Add(c.h2d_bytes + c.d2h_bytes +
                                         c.p2p_bytes);
  ServiceMetrics::Get().billed_transfers.Add(
      c.h2d_transfers + c.d2h_transfers + c.p2p_transfers);
  ServiceMetrics::Get().billed_sim_seconds.Observe(
      result.report.total_seconds);

  if (run_config.options.trace && !config_.trace_dir.empty()) {
    const std::string path =
        config_.trace_dir + "/job_" + std::to_string(job.id) + ".json";
    if (trace::Tracer::Global().WriteChromeTraceFile(path, job.id)) {
      result.trace_path = path;
    }
  }

  SyncDeadDevices();
  if (job.request.on_finish) job.request.on_finish(&runner);
}

void AccService::Finish(JobResult result) {
  if (result.state == JobState::kFailed) {
    ServiceMetrics::Get().failed.Add();
  } else {
    ServiceMetrics::Get().completed.Add();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_[result.job_id] = std::move(result);
  }
  job_done_.notify_all();
}

}  // namespace accmg::service
