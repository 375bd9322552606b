// Saturation benchmark for the resident service (src/service/): how much
// does the compiled-program cache buy under a stream of jobs, and does
// per-job billing stay exact when jobs run concurrently through one
// service?
//
// Two phases, both emitted as machine-readable JSON:
//
// 1. Saturation: N copies of a compile-heavy synthetic program (many small
//    parallel loops — translation dominates execution) are pushed through
//    an AccService, once with every job carrying a unique source salt
//    (cold: every submission compiles) and once byte-identical (warm: one
//    compile, N-1 cache hits). The jobs/sec ratio is the cache's win;
//    the acceptance bar is warm >= 3x cold on the 2-GPU platform.
//
// 2. Billing identity: a mix of builtin-app jobs runs concurrently through
//    one service, and then each job runs once more in isolation (fresh
//    platform, ordinary RunConfig) on the device ids its lease had. Each
//    concurrent job's billed bytes, transfer counts and simulated
//    total_seconds must be bit-identical to its isolated run. This is the
//    end-to-end check that every service job accounts on its own fork of
//    the platform (sim::Platform::Fork). Any mismatch fails the process.
//
// Usage: bench_serve_saturation [--quick] [--out=<path>]
//   --quick  fewer jobs (smoke check)
//   --out    write the JSON object to <path> (always printed to stdout)
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "ir/ir.h"
#include "runtime/program.h"
#include "service/builtin_apps.h"
#include "service/service.h"
#include "sim/platform.h"
#include "sim/topology.h"

namespace accmg {
namespace {

/// A program whose translation cost dwarfs its execution cost: `loops`
/// independent parallel loops over a tiny array. Each loop becomes its own
/// kernel through the full frontend/translator pipeline.
std::string MakeSyntheticSource(int loops) {
  std::ostringstream os;
  os << "void serveload(int n, float* a, float* b) {\n";
  os << "  #pragma acc data copy(a[0:n]) copyin(b[0:n])\n  {\n";
  for (int k = 0; k < loops; ++k) {
    // Long straight-line bodies: parsing, sema and translation pay per
    // statement, while execution pays per statement *per element* — with a
    // tiny n the compile share dominates, which is the point of this
    // workload (measure the cache, not the interpreter).
    os << "    #pragma acc localaccess(a: stride(1))\n"
       << "    #pragma acc parallel loop\n"
       << "    for (int i = 0; i < n; i++) {\n"
       << "      float t0 = a[i] * 0.5f + b[i] + " << k << ".0f;\n";
    for (int s = 1; s <= 16; ++s) {
      os << "      float t" << s << " = t" << s - 1 << " * 1.0625f - b[i] * "
         << s << ".5f + " << s << ".25f;\n";
    }
    os << "      a[i] = t16 * 0.125f + t8 * 0.25f + t0 * 0.5f;\n"
       << "    }\n";
  }
  os << "  }\n}\n";
  return os.str();
}

service::JobRequest MakeSyntheticJob(std::string source) {
  struct State {
    std::vector<float> a, b;
  };
  auto state = std::make_shared<State>();
  const int n = 8;
  state->a.assign(n, 1.0f);
  state->b.assign(n, 0.5f);

  service::JobRequest request;
  request.name = "serveload";
  request.function = "serveload";
  request.source = std::move(source);
  request.gpus = 1;
  // The interpreter executes whole thread blocks; a 256-wide block over 8
  // elements would spend 97% of its time on bounds-failed threads and
  // drown the compile cost this bench wants to expose.
  request.exec_options.block_size = 8;
  request.bind = [state, n](runtime::ProgramRunner& runner) {
    runner.BindScalar("n", static_cast<std::int64_t>(n));
    runner.BindArray("a", state->a.data(), ir::ValType::kF32, n);
    runner.BindArray("b", state->b.data(), ir::ValType::kF32, n);
  };
  return request;
}

struct SaturationRow {
  int gpus = 0;
  int jobs = 0;
  double cold_jobs_per_sec = 0;
  double warm_jobs_per_sec = 0;

  double WarmOverCold() const {
    return cold_jobs_per_sec > 0 ? warm_jobs_per_sec / cold_jobs_per_sec : 0;
  }
};

double RunStream(sim::Platform& platform, int jobs, bool cold,
                 const std::string& source) {
  service::AccService::Config config;
  config.platform = &platform;
  config.workers = 2;
  config.cache_capacity = static_cast<std::size_t>(jobs) + 8;
  config.queue_capacity = static_cast<std::size_t>(jobs) + 8;
  service::AccService service(config);

  Stopwatch watch;
  for (int j = 0; j < jobs; ++j) {
    std::string job_source = source;
    if (cold) {
      // A unique trailing comment changes the SHA-256 cache key without
      // changing semantics: every submission compiles from scratch.
      job_source += "// cold-salt " + std::to_string(j) + "\n";
    }
    const int id = service.Submit(MakeSyntheticJob(std::move(job_source)));
    if (id < 0) {
      std::cerr << "bench_serve_saturation: admission reject at job " << j
                << "\n";
      std::exit(1);
    }
  }
  service.Drain();
  return watch.ElapsedSeconds();
}

SaturationRow MeasureSaturation(int gpus, int jobs,
                                const std::string& source) {
  SaturationRow row;
  row.gpus = gpus;
  row.jobs = jobs;
  {
    auto platform = sim::MakeSupercomputerNode(gpus);
    row.cold_jobs_per_sec = jobs / RunStream(*platform, jobs, true, source);
  }
  {
    auto platform = sim::MakeSupercomputerNode(gpus);
    row.warm_jobs_per_sec = jobs / RunStream(*platform, jobs, false, source);
  }
  return row;
}

struct IdentityRow {
  std::string app;
  int gpus = 0;
  std::uint64_t sequential_bytes = 0, concurrent_bytes = 0;
  std::uint64_t sequential_transfers = 0, concurrent_transfers = 0;
  double sequential_total_seconds = 0, concurrent_total_seconds = 0;

  bool Identical() const {
    return sequential_bytes == concurrent_bytes &&
           sequential_transfers == concurrent_transfers &&
           sequential_total_seconds == concurrent_total_seconds;
  }
};

std::uint64_t TotalBytes(const sim::PlatformCounters& c) {
  return c.h2d_bytes + c.d2h_bytes + c.p2p_bytes;
}
std::uint64_t TotalTransfers(const sim::PlatformCounters& c) {
  return c.h2d_transfers + c.d2h_transfers + c.p2p_transfers;
}

/// The 4-GPU node both sides of the identity check run on, with a
/// one-thread worker pool: bfs's kernel has racing reads, so on a wider
/// pool its simulated time depends on how its chunks interleave (two
/// isolated runs already differ in the 7th digit), while on one worker
/// every launch's chunks run in grid order.
std::unique_ptr<sim::Platform> MakeIdentityNode() {
  return std::make_unique<sim::Platform>(
      std::vector<sim::DeviceSpec>(4, sim::TeslaM2050()),
      sim::SupercomputerTopology(4), sim::DualXeonNode(),
      /*worker_threads=*/1);
}

/// Isolated baseline: `request` alone through the ordinary runner on a
/// fresh node, on exactly `devices`.
runtime::RunReport IsolatedRun(const service::JobRequest& request,
                               const std::vector<int>& devices) {
  const runtime::AccProgram program = runtime::AccProgram::FromSource(
      request.name, request.source, request.compile_options);
  auto platform = MakeIdentityNode();
  runtime::RunConfig config;
  config.platform = platform.get();
  config.devices = devices;
  config.options = request.exec_options;
  runtime::ProgramRunner runner(program, config);
  request.bind(runner);
  return runner.Run(request.function);
}

std::vector<IdentityRow> MeasureBillingIdentity() {
  struct JobSpec {
    std::string app;
    int gpus;
  };
  const std::vector<JobSpec> specs = {
      {"md", 2},  {"kmeans", 2}, {"bfs", 2},
      {"spmv", 2}, {"md", 1},    {"spmv", 1},
  };

  auto options_of = [](const JobSpec& spec) {
    service::AppJobOptions options;
    options.app = spec.app;
    options.gpus = spec.gpus;
    return options;
  };

  // Concurrent: every job in flight at once on one 4-GPU platform.
  auto platform = MakeIdentityNode();
  service::AccService::Config config;
  config.platform = platform.get();
  config.workers = 3;
  service::AccService service(config);
  std::vector<int> ids;
  for (const JobSpec& spec : specs) {
    const int id = service.Submit(service::MakeAppJob(options_of(spec)));
    if (id < 0) {
      std::cerr << "bench_serve_saturation: identity job rejected\n";
      std::exit(1);
    }
    ids.push_back(id);
  }
  std::vector<IdentityRow> rows;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const service::JobResult result = service.Wait(ids[i]);
    if (result.state != service::JobState::kDone) {
      std::cerr << "bench_serve_saturation: job failed: " << result.error
                << "\n";
      std::exit(1);
    }
    // Sequential: the same job alone, on the device ids of its lease.
    const runtime::RunReport alone =
        IsolatedRun(service::MakeAppJob(options_of(specs[i])), result.devices);
    IdentityRow row;
    row.app = specs[i].app;
    row.gpus = specs[i].gpus;
    row.sequential_bytes = TotalBytes(alone.counters);
    row.concurrent_bytes = TotalBytes(result.report.counters);
    row.sequential_transfers = TotalTransfers(alone.counters);
    row.concurrent_transfers = TotalTransfers(result.report.counters);
    row.sequential_total_seconds = alone.total_seconds;
    row.concurrent_total_seconds = result.report.total_seconds;
    rows.push_back(row);
  }
  return rows;
}

std::string ToJson(const std::vector<SaturationRow>& saturation,
                   const std::vector<IdentityRow>& identity, bool ok) {
  bench::JsonValue sat_rows = bench::JsonValue::Array();
  for (const SaturationRow& r : saturation) {
    sat_rows.Push(bench::JsonValue::Object()
                      .Set("gpus", r.gpus)
                      .Set("jobs", r.jobs)
                      .Set("cold_jobs_per_sec", r.cold_jobs_per_sec)
                      .Set("warm_jobs_per_sec", r.warm_jobs_per_sec)
                      .Set("warm_over_cold", r.WarmOverCold()));
  }
  bench::JsonValue identity_rows = bench::JsonValue::Array();
  for (const IdentityRow& r : identity) {
    identity_rows.Push(bench::JsonValue::Object()
                           .Set("app", r.app)
                           .Set("gpus", r.gpus)
                           .Set("sequential_bytes", r.sequential_bytes)
                           .Set("concurrent_bytes", r.concurrent_bytes)
                           .Set("sequential_transfers", r.sequential_transfers)
                           .Set("concurrent_transfers", r.concurrent_transfers)
                           .Set("sequential_total_seconds",
                                r.sequential_total_seconds)
                           .Set("concurrent_total_seconds",
                                r.concurrent_total_seconds)
                           .Set("identical", r.Identical()));
  }
  return bench::JsonValue::Object()
             .Set("saturation", std::move(sat_rows))
             .Set("billing_identity", std::move(identity_rows))
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
      std::cerr << "usage: bench_serve_saturation [--quick] [--out=<path>]\n";
      return 2;
    }
  }

  const int jobs = quick ? 32 : 64;
  const std::string source = accmg::MakeSyntheticSource(24);

  std::vector<accmg::SaturationRow> saturation;
  for (const int gpus : {2, 4, 8}) {
    saturation.push_back(accmg::MeasureSaturation(gpus, jobs, source));
  }
  const std::vector<accmg::IdentityRow> identity =
      accmg::MeasureBillingIdentity();

  bool ok = true;
  for (const accmg::IdentityRow& row : identity) {
    if (!row.Identical()) {
      std::cerr << "billing identity violated for " << row.app << " on "
                << row.gpus << " GPUs\n";
      ok = false;
    }
  }
  for (const accmg::SaturationRow& row : saturation) {
    if (row.gpus == 2 && row.WarmOverCold() < 3.0) {
      std::cerr << "warm-cache speedup below 3x at 2 GPUs: "
                << row.WarmOverCold() << "\n";
      ok = false;
    }
  }

  const std::string json = accmg::ToJson(saturation, identity, ok);
  std::cout << json;
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    file << json;
  }
  return ok ? 0 : 1;
}
