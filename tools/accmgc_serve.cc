// accmgc_serve — the resident compile-once / serve-many front of accmg.
//
// Boots one long-lived simulated platform plus an AccService (program
// cache, admission queue, device arena, worker pool) and speaks the
// line-delimited request protocol of service/protocol.h on stdin/stdout:
//
//   $ accmgc_serve --gpus=4 --workers=2
//   ready gpus=4 workers=2 cache=64 queue=64
//   submit app=md gpus=2 validate=1
//   job 0
//   result 0
//   result 0 done key=63ae21a6b72c cache=miss gpus=2 sim_s=0.004410 ...
//   quit
//   bye
//
// Flags:
//   --gpus=N            simulated GPUs on the platform (default 4)
//   --platform=NAME     desktop | super (Table I presets; default super)
//   --workers=N         service worker threads (default 2)
//   --cache-capacity=N  compiled-program LRU entries (default 64)
//   --queue-capacity=N  admission bound (default 64)
//   --max-batch=N       same-hash jobs per popped batch (default 8)
//   --trace-dir=DIR     export per-job Chrome traces for trace=1 jobs
//   --fault-plan=SPEC   arm the fault injector (sim/fault.h spec, e.g.
//                       "seed=7,kernel=0.01,transfer=0.02,death=0.001")
//   --chaos=SEED        arm the moderate-chaos preset with that seed
//   --job-retries=N     re-runs a faulted job gets on a fresh lease (dft 1)
//   --deadline-ms=N     default per-job wall-clock deadline (0 = none)
//
// Submit parameters (all optional except app=):
//   app=md|kmeans|bfs|spmv   builtin workload
//   gpus=N        device-lease size (default 1)
//   tenant=T      fairness domain (default "default")
//   scale=N       input size multiplier (default 1)
//   validate=1    diff outputs against the native reference on finish
//   trace=1       record spans; with --trace-dir, export job_<id>.json
//   async=1       dependence-driven async offload pipeline
//   weighted=1    spec-throughput task mapping (TaskMapper::kSpec)
//   no-check=1    disable the static directive checker (changes the key!)
//   opt-level=N   translator mid-end level 0|1|2 (default 1; part of the
//                 program-cache key, so levels never share an entry)
//   salt=TEXT     appended as a source comment — forces a distinct cache key
//   deadline-ms=N per-job wall-clock deadline (overrides --deadline-ms)
//
// docs/SERVING.md documents the architecture and a full transcript.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "common/error.h"
#include "common/metrics.h"
#include "service/builtin_apps.h"
#include "service/protocol.h"
#include "service/service.h"
#include "sim/fault.h"
#include "sim/platform.h"

namespace {

using accmg::service::AccService;
using accmg::service::AppJobOptions;
using accmg::service::AppJobOutcome;
using accmg::service::JobResult;
using accmg::service::Request;

struct Flags {
  int gpus = 4;
  std::string platform = "super";
  int workers = 2;
  std::size_t cache_capacity = 64;
  std::size_t queue_capacity = 64;
  std::size_t max_batch = 8;
  std::string trace_dir;
  std::string fault_plan;  ///< sim::FaultPlan::Parse spec; empty = disarmed
  bool chaos = false;
  long chaos_seed = 0;
  int job_retries = 1;
  double deadline_ms = 0;
};

bool ParseIntFlag(const char* arg, const char* name, long* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  const long value = std::strtol(arg + len + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value < 0) {
    std::fprintf(stderr, "accmgc_serve: bad value in %s\n", arg);
    std::exit(2);
  }
  *out = value;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    long value = 0;
    if (ParseIntFlag(arg, "--gpus", &value)) {
      flags.gpus = static_cast<int>(value);
    } else if (ParseIntFlag(arg, "--workers", &value)) {
      flags.workers = static_cast<int>(value);
    } else if (ParseIntFlag(arg, "--cache-capacity", &value)) {
      flags.cache_capacity = static_cast<std::size_t>(value);
    } else if (ParseIntFlag(arg, "--queue-capacity", &value)) {
      flags.queue_capacity = static_cast<std::size_t>(value);
    } else if (ParseIntFlag(arg, "--max-batch", &value)) {
      flags.max_batch = static_cast<std::size_t>(value);
    } else if (ParseIntFlag(arg, "--chaos", &value)) {
      flags.chaos = true;
      flags.chaos_seed = value;
    } else if (ParseIntFlag(arg, "--job-retries", &value)) {
      flags.job_retries = static_cast<int>(value);
    } else if (ParseIntFlag(arg, "--deadline-ms", &value)) {
      flags.deadline_ms = static_cast<double>(value);
    } else if (std::strncmp(arg, "--platform=", 11) == 0) {
      flags.platform = arg + 11;
    } else if (std::strncmp(arg, "--trace-dir=", 12) == 0) {
      flags.trace_dir = arg + 12;
    } else if (std::strncmp(arg, "--fault-plan=", 13) == 0) {
      flags.fault_plan = arg + 13;
    } else {
      std::fprintf(stderr, "accmgc_serve: unknown flag %s\n", arg);
      std::exit(2);
    }
  }
  return flags;
}

/// Per-job bookkeeping the protocol needs at `result` time.
struct Submitted {
  std::shared_ptr<AppJobOutcome> outcome;
  bool validated = false;
};

int SubmitFromParams(AccService& service, const Request& request,
                     std::map<int, Submitted>& submitted, std::string* error,
                     std::string* reject_reason) {
  AppJobOptions options;
  auto param = [&](const char* key) -> const std::string* {
    auto it = request.params.find(key);
    return it == request.params.end() ? nullptr : &it->second;
  };
  auto flag_set = [&](const char* key) {
    const std::string* value = param(key);
    return value != nullptr && *value != "0";
  };

  const std::string* app = param("app");
  if (app == nullptr || !accmg::service::IsBuiltinApp(*app)) {
    *error = "submit needs app=md|kmeans|bfs|spmv";
    return -1;
  }
  options.app = *app;
  if (const std::string* tenant = param("tenant")) options.tenant = *tenant;
  if (const std::string* salt = param("salt")) options.source_salt = *salt;
  if (const std::string* gpus = param("gpus")) options.gpus = std::stoi(*gpus);
  if (const std::string* scale = param("scale")) {
    options.scale = std::stoi(*scale);
  }
  options.validate_result = flag_set("validate");
  options.exec.trace = flag_set("trace");
  options.exec.async_pipeline = flag_set("async");
  if (flag_set("weighted")) {
    options.exec.mapper = accmg::runtime::TaskMapper::kSpec;
  }
  options.compile.check_directives = !flag_set("no-check");
  if (const std::string* opt = param("opt-level")) {
    const int level = std::stoi(*opt);
    if (level < 0 || level > 2) {
      *error = "opt-level must be 0, 1 or 2";
      return -1;
    }
    options.compile.opt_level = level;
  }

  auto outcome = std::make_shared<AppJobOutcome>();
  accmg::service::JobRequest job =
      accmg::service::MakeAppJob(options, outcome);
  if (const std::string* deadline = param("deadline-ms")) {
    job.deadline_ms = std::stod(*deadline);
  }
  const int id = service.Submit(std::move(job), reject_reason);
  if (id >= 0) {
    submitted[id] = Submitted{std::move(outcome), options.validate_result};
  }
  return id;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  std::unique_ptr<accmg::sim::Platform> platform =
      flags.platform == "desktop"
          ? accmg::sim::MakeDesktopMachine(flags.gpus)
          : accmg::sim::MakeSupercomputerNode(flags.gpus);

  bool faults_armed = false;
  try {
    if (!flags.fault_plan.empty()) {
      platform->ArmFaults(accmg::sim::FaultPlan::Parse(flags.fault_plan));
      faults_armed = true;
    } else if (flags.chaos) {
      platform->ArmFaults(accmg::sim::FaultPlan::Chaos(
          static_cast<std::uint64_t>(flags.chaos_seed)));
      faults_armed = true;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "accmgc_serve: bad fault plan: %s\n", e.what());
    return 2;
  }

  AccService::Config config;
  config.platform = platform.get();
  config.workers = flags.workers;
  config.cache_capacity = flags.cache_capacity;
  config.queue_capacity = flags.queue_capacity;
  config.max_batch = flags.max_batch;
  config.trace_dir = flags.trace_dir;
  config.job_retries = flags.job_retries;
  config.default_deadline_ms = flags.deadline_ms;
  AccService service(config);

  std::map<int, Submitted> submitted;

  std::cout << "ready gpus=" << flags.gpus << " workers=" << flags.workers
            << " cache=" << flags.cache_capacity
            << " queue=" << flags.queue_capacity
            << (faults_armed ? " faults=armed" : "") << std::endl;

  std::string line;
  while (std::getline(std::cin, line)) {
    const Request request = accmg::service::ParseRequest(line);
    try {
      switch (request.kind) {
        case Request::Kind::kInvalid:
          if (!request.error.empty()) {
            std::cout << "error " << request.error << std::endl;
          }
          break;
        case Request::Kind::kSubmit: {
          std::string error;
          std::string reject_reason;
          const int id = SubmitFromParams(service, request, submitted, &error,
                                          &reject_reason);
          if (id >= 0) {
            std::cout << "job " << id << std::endl;
          } else if (!error.empty()) {
            std::cout << "error " << error << std::endl;
          } else {
            std::cout << "rejected "
                      << (reject_reason.empty() ? "queue-full" : reject_reason)
                      << std::endl;
          }
          break;
        }
        case Request::Kind::kStatus:
          std::cout << "status " << request.job_id << ' '
                    << accmg::service::JobStateName(
                           service.Status(request.job_id))
                    << std::endl;
          break;
        case Request::Kind::kResult: {
          JobResult result;
          if (request.timeout_ms >= 0) {
            auto bounded = service.WaitFor(
                request.job_id,
                std::chrono::milliseconds(
                    static_cast<long long>(request.timeout_ms)));
            if (!bounded.has_value()) {
              std::cout << "result " << request.job_id << " timeout"
                        << " waited_ms=" << request.timeout_ms << std::endl;
              break;
            }
            result = std::move(*bounded);
          } else {
            result = service.Wait(request.job_id);
          }
          std::string reply = accmg::service::FormatResultLine(result);
          auto it = submitted.find(request.job_id);
          if (it != submitted.end() && it->second.validated &&
              it->second.outcome->checked) {
            reply += it->second.outcome->ok
                         ? " check=ok"
                         : " check=FAIL(" + it->second.outcome->detail + ")";
          }
          std::cout << reply << std::endl;
          break;
        }
        case Request::Kind::kMetrics:
          accmg::metrics::Registry::Global().WriteText(std::cout);
          std::cout << "end" << std::endl;
          break;
        case Request::Kind::kQuit:
          std::cout << "bye" << std::endl;
          service.Stop();
          return 0;
      }
    } catch (const std::exception& e) {
      std::cout << "error " << e.what() << std::endl;
    }
  }
  service.Stop();
  return 0;
}
