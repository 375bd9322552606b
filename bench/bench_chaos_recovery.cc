// Chaos-recovery benchmark for the fault-injection layer (sim/fault.h) and
// the recovery machinery around it (runtime/recovery.h, service workers):
// what does surviving faults cost, and how much goodput is left under them?
//
// A fixed stream of builtin-app jobs runs through one AccService per fault
// level — clean baseline, transient-only, transient+stalls, and
// transient+device-loss — on the same seeded plans every run, so numbers
// are comparable across commits. Per level the JSON reports:
//
//   - goodput_jobs_per_sec: jobs that finished kDone per wall second (the
//     paper-facing number: throughput that survives the chaos);
//   - done/failed split and the recovery counters booked while the level
//     ran (retries, degraded device-shrinks, terminal failures, injected);
//   - mean_sim_s over done jobs and sim_overhead_vs_clean, the factor the
//     simulated time grew versus the clean baseline — retry re-execution
//     plus backoff, the "recovery latency" of the level.
//
// The process exits nonzero when the accounting identity
// fault.injected == recovery.retries + recovery.degraded +
// recovery.failures breaks or when a faulted level completes zero jobs —
// either means recovery regressed, and the ctest check
// smoke.bench_chaos_recovery treats it as a failure.
//
// Usage: bench_chaos_recovery [--quick] [--out=<path>]
//   --quick  fewer jobs per level (smoke check)
//   --out    write the JSON object to <path> (always printed to stdout)
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "service/builtin_apps.h"
#include "service/service.h"
#include "sim/fault.h"
#include "sim/platform.h"

namespace accmg {
namespace {

struct Accounting {
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failures = 0;
  std::uint64_t stalls = 0;

  static Accounting Snapshot() {
    auto& reg = metrics::Registry::Global();
    Accounting s;
    s.injected = reg.counter("fault.injected").value();
    s.retries = reg.counter("recovery.retries").value();
    s.degraded = reg.counter("recovery.degraded").value();
    s.failures = reg.counter("recovery.failures").value();
    s.stalls = reg.counter("fault.stalls").value();
    return s;
  }

  Accounting DeltaSince(const Accounting& base) const {
    return Accounting{injected - base.injected, retries - base.retries,
                      degraded - base.degraded, failures - base.failures,
                      stalls - base.stalls};
  }

  bool IdentityHolds() const {
    return injected == retries + degraded + failures;
  }
};

struct LevelResult {
  std::string level;
  std::string plan;
  int jobs = 0;
  int done = 0;
  int failed = 0;
  Accounting delta;
  double wall_s = 0;
  double mean_sim_s = 0;  ///< over done jobs
  double goodput_jobs_per_sec = 0;
};

LevelResult RunLevel(const std::string& level, const std::string& plan,
                     int jobs) {
  LevelResult result;
  result.level = level;
  result.plan = plan;
  result.jobs = jobs;

  auto platform = sim::MakeSupercomputerNode(4);
  if (!plan.empty()) platform->ArmFaults(sim::FaultPlan::Parse(plan));

  service::AccService::Config config;
  config.platform = platform.get();
  config.workers = 2;
  config.job_retries = 3;
  config.default_deadline_ms = 60000;  // hang backstop; never the fast path
  service::AccService service(config);

  const Accounting before = Accounting::Snapshot();
  Stopwatch wall;

  const char* apps[] = {"md", "kmeans", "bfs", "spmv"};
  std::vector<int> ids;
  for (int j = 0; j < jobs; ++j) {
    service::AppJobOptions options;
    options.app = apps[j % 4];
    options.gpus = 1 + j % 2;  // alternate 1- and 2-GPU leases
    const int id = service.Submit(service::MakeAppJob(options));
    if (id < 0) {
      std::cerr << "bench_chaos_recovery: job rejected at level " << level
                << "\n";
      std::exit(1);
    }
    ids.push_back(id);
  }

  double done_sim_s = 0;
  for (const int id : ids) {
    const service::JobResult job = service.Wait(id);
    if (job.state == service::JobState::kDone) {
      ++result.done;
      done_sim_s += job.report.total_seconds;
    } else {
      ++result.failed;
    }
  }

  result.wall_s = wall.ElapsedSeconds();
  result.delta = Accounting::Snapshot().DeltaSince(before);
  result.mean_sim_s = result.done > 0 ? done_sim_s / result.done : 0;
  result.goodput_jobs_per_sec =
      result.wall_s > 0 ? result.done / result.wall_s : 0;
  return result;
}

std::string ToJson(const std::vector<LevelResult>& levels, double clean_sim_s,
                   bool ok) {
  bench::JsonValue level_rows = bench::JsonValue::Array();
  for (const LevelResult& r : levels) {
    const double overhead =
        clean_sim_s > 0 && r.mean_sim_s > 0 ? r.mean_sim_s / clean_sim_s : 0;
    level_rows.Push(bench::JsonValue::Object()
                        .Set("level", r.level)
                        .Set("plan", r.plan)
                        .Set("jobs", r.jobs)
                        .Set("done", r.done)
                        .Set("failed", r.failed)
                        .Set("injected", r.delta.injected)
                        .Set("retries", r.delta.retries)
                        .Set("degraded", r.delta.degraded)
                        .Set("failures", r.delta.failures)
                        .Set("stalls", r.delta.stalls)
                        .Set("wall_s", r.wall_s)
                        .Set("goodput_jobs_per_sec", r.goodput_jobs_per_sec)
                        .Set("mean_sim_s", r.mean_sim_s)
                        .Set("sim_overhead_vs_clean", overhead)
                        .Set("identity_ok", r.delta.IdentityHolds()));
  }
  return bench::JsonValue::Object()
             .Set("levels", std::move(level_rows))
             .Set("ok", ok)
             .Dump() +
         "\n";
}

}  // namespace
}  // namespace accmg

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: bench_chaos_recovery [--quick] [--out=<path>]\n";
      return 2;
    }
  }

  const int jobs = quick ? 8 : 32;
  const std::vector<std::pair<std::string, std::string>> plans = {
      {"clean", ""},
      {"transient", "seed=101,kernel=0.02,transfer=0.02"},
      {"stalls", "seed=102,kernel=0.02,transfer=0.02,stall=0.05"},
      {"device-loss", "seed=103,kernel=0.03,transfer=0.03,death=0.01"},
  };

  std::vector<accmg::LevelResult> levels;
  for (const auto& [level, plan] : plans) {
    levels.push_back(accmg::RunLevel(level, plan, jobs));
  }

  bool ok = true;
  const double clean_sim_s = levels.front().mean_sim_s;
  for (const accmg::LevelResult& r : levels) {
    if (!r.delta.IdentityHolds()) {
      std::cerr << "bench_chaos_recovery: accounting identity broke at level "
                << r.level << "\n";
      ok = false;
    }
    if (r.done == 0) {
      std::cerr << "bench_chaos_recovery: zero goodput at level " << r.level
                << "\n";
      ok = false;
    }
  }

  const std::string json = accmg::ToJson(levels, clean_sim_s, ok);
  std::cout << json;
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    file << json;
  }
  return ok ? 0 : 1;
}
