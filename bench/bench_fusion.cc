// Fusion benchmark: the optimizing mid-end's dependence-proven offload
// fusion (docs/ARCHITECTURE.md, "Optimizing mid-end"), fused (--opt-level=1,
// the default) vs unfused (--opt-level=0), on 1/2/4 GPUs of the
// supercomputer node.
//
// Workloads:
//   jacobi_heat  stencil + source-injection + copyback per step. The
//                injection loop fuses into the stencil (same iteration
//                space, writes meet reads on the same thread), deleting one
//                dirty-propagation round of the replicated `unew` per step.
//                The copyback must NOT fuse: it writes `u` while the
//                stencil reads u[i-1]/u[i+1] — a cross-offload dependence
//                that needs the exchange between the kernels.
//   kmeans       the paper app; the assignment loop fuses into the update
//                loop (membership is written and read on the same thread).
//   md           the paper app; a single loop — nothing to fuse, traffic
//                must be identical at every level (control).
//
// The run self-checks: results must be bit-identical across levels; the
// jacobi_heat injection loop must actually fuse; on >= 2 GPUs the fused
// jacobi_heat run must bill strictly fewer offload rounds and strictly
// fewer GPU-GPU bytes; no workload may ever bill MORE traffic when fused.
// Exit code 1 on any violation — ctest runs this as smoke.bench_fusion.
//
// Usage:
//   bench_fusion                 print the comparison table
//   bench_fusion --json=FILE     also dump rows as a JSON array
//                                (results/bench_fusion.json is the
//                                committed artifact)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "runtime/program.h"
#include "sim/platform.h"

namespace accmg::bench {
namespace {

constexpr char kJacobiHeatSource[] = R"(
void jacobi_heat(int n, int steps, double alpha, double* u, double* unew,
                 double* src) {
  #pragma acc data copy(u[0:n]) create(unew[0:n]) copyin(src[0:n])
  {
    for (int t = 0; t < steps; t++) {
      #pragma acc localaccess(u: stride(1), left(1), right(1))
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        int l = i - 1;
        int r = i + 1;
        if (l < 0) { l = 0; }
        if (r >= n) { r = n - 1; }
        unew[i] = u[i] + alpha * (u[l] - 2.0 * u[i] + u[r]);
      }
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        unew[i] = unew[i] + src[i];
      }
      #pragma acc localaccess(u: stride(1))
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        u[i] = unew[i];
      }
    }
  }
}
)";

/// Fusions recorded in a compiled program: a fused offload with k
/// constituents counts as k-1 fusions.
int CountFusions(const runtime::AccProgram& program) {
  int fusions = 0;
  for (const auto& fn : program.compiled().functions) {
    for (const auto& offload : fn.offloads) {
      if (!offload.fused.empty()) {
        fusions += static_cast<int>(offload.fused.size()) - 1;
      }
    }
  }
  return fusions;
}

struct Row {
  std::string app;
  int gpus = 0;
  int opt_level = 0;
  int fusions = 0;
  runtime::RunReport report;
};

struct Outcome {
  Row row;
  /// Raw output bytes for the bit-identical cross-level check.
  std::vector<unsigned char> output;
};

template <typename T>
void AppendBytes(std::vector<unsigned char>* out, const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  out->insert(out->end(), p, p + v.size() * sizeof(T));
}

Outcome RunJacobi(int gpus, int opt_level) {
  const double scale = BenchScale();
  const int n = std::max(1024, static_cast<int>(scale * (1 << 22)));
  const int steps = 20;
  translator::CompileOptions copts;
  copts.opt_level = opt_level;
  const runtime::AccProgram& program =
      runtime::AccProgram::Cached("jacobi_heat", kJacobiHeatSource, copts);

  auto platform = sim::MakeSupercomputerNode(4);
  std::vector<double> u(static_cast<std::size_t>(n));
  std::vector<double> unew(static_cast<std::size_t>(n), 0.0);
  std::vector<double> src(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    u[static_cast<std::size_t>(i)] = (i > n / 4 && i < n / 2) ? 100.0 : 0.0;
    src[static_cast<std::size_t>(i)] = (i % 97 == 0) ? 0.5 : 0.0;
  }
  runtime::ProgramRunner runner(
      program, runtime::RunConfig{.platform = platform.get(),
                                  .num_gpus = gpus});
  runner.BindArray("u", u.data(), ir::ValType::kF64, n);
  runner.BindArray("unew", unew.data(), ir::ValType::kF64, n);
  runner.BindArray("src", src.data(), ir::ValType::kF64, n);
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  runner.BindScalar("steps", static_cast<std::int64_t>(steps));
  runner.BindScalar("alpha", 0.24);

  Outcome out;
  out.row = Row{"jacobi_heat", gpus, opt_level, CountFusions(program),
                runner.Run("jacobi_heat")};
  AppendBytes(&out.output, u);
  return out;
}

Outcome RunKmeans(int gpus, int opt_level) {
  static const auto* input = new apps::KmeansInput(
      apps::MakePaperKmeansInput(BenchScale()));
  translator::CompileOptions copts;
  copts.opt_level = opt_level;
  auto platform = sim::MakeSupercomputerNode(4);
  apps::KmeansResult result;
  Outcome out;
  out.row = Row{"kmeans", gpus, opt_level,
                CountFusions(runtime::AccProgram::Cached(
                    "kmeans", apps::KmeansSource(), copts)),
                apps::RunKmeansAcc(*input, *platform, gpus, &result, {},
                                   copts)};
  AppendBytes(&out.output, result.centroids);
  AppendBytes(&out.output, result.membership);
  return out;
}

Outcome RunMd(int gpus, int opt_level) {
  static const auto* input =
      new apps::MdInput(apps::MakePaperMdInput(BenchScale()));
  translator::CompileOptions copts;
  copts.opt_level = opt_level;
  auto platform = sim::MakeSupercomputerNode(4);
  std::vector<float> force;
  Outcome out;
  out.row = Row{"md", gpus, opt_level,
                CountFusions(runtime::AccProgram::Cached(
                    "md", apps::MdSource(), copts)),
                apps::RunMdAcc(*input, *platform, gpus, &force, {}, copts)};
  AppendBytes(&out.output, force);
  return out;
}

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--json=FILE]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Offload-fusion benchmark, supercomputer node "
              "(input scale %.3g)\n", BenchScale());

  using RunFn = Outcome (*)(int, int);
  const std::pair<const char*, RunFn> workloads[] = {
      {"jacobi_heat", RunJacobi}, {"kmeans", RunKmeans}, {"md", RunMd}};

  Table table({"app", "gpus", "opt", "fusions", "total [ms]", "offloads",
               "halo", "dirty chunks", "p2p xfers", "GPU-GPU bytes"});
  JsonValue rows = JsonValue::Array();
  int failures = 0;

  for (const auto& [name, run] : workloads) {
    for (const int gpus : {1, 2, 4}) {
      const Outcome unfused = run(gpus, 0);
      const Outcome fused = run(gpus, 1);
      if (fused.output != unfused.output) {
        std::printf("%s gpus=%d: RESULT MISMATCH between opt levels!\n",
                    name, gpus);
        ++failures;
      }
      const auto& u = unfused.row.report;
      const auto& f = fused.row.report;
      if (f.counters.p2p_bytes > u.counters.p2p_bytes) {
        std::printf("%s gpus=%d: fused run billed MORE GPU-GPU bytes "
                    "(%llu > %llu)!\n", name, gpus,
                    static_cast<unsigned long long>(f.counters.p2p_bytes),
                    static_cast<unsigned long long>(u.counters.p2p_bytes));
        ++failures;
      }
      if (std::strcmp(name, "jacobi_heat") == 0) {
        if (fused.row.fusions < 1) {
          std::printf("jacobi_heat: expected >= 1 fusion at opt-level 1, "
                      "got %d\n", fused.row.fusions);
          ++failures;
        }
        if (gpus >= 2 &&
            (f.kernel_executions >= u.kernel_executions ||
             f.counters.p2p_bytes >= u.counters.p2p_bytes)) {
          std::printf("jacobi_heat gpus=%d: fusion did not reduce exchange "
                      "rounds (%llu vs %llu) and GPU-GPU bytes "
                      "(%llu vs %llu)\n", gpus,
                      static_cast<unsigned long long>(f.kernel_executions),
                      static_cast<unsigned long long>(u.kernel_executions),
                      static_cast<unsigned long long>(f.counters.p2p_bytes),
                      static_cast<unsigned long long>(u.counters.p2p_bytes));
          ++failures;
        }
      }
      for (const Outcome* o : {&unfused, &fused}) {
        const Row& row = o->row;
        const auto& r = row.report;
        table.AddRow({
            row.app,
            std::to_string(row.gpus),
            std::to_string(row.opt_level),
            std::to_string(row.fusions),
            FormatFixed(r.total_seconds * 1e3, 3),
            std::to_string(r.kernel_executions),
            std::to_string(r.comm.halo_refreshes),
            std::to_string(r.comm.dirty_chunks_sent),
            std::to_string(r.counters.p2p_transfers),
            std::to_string(r.counters.p2p_bytes),
        });
        rows.Push(JsonValue::Object()
                      .Set("app", row.app)
                      .Set("gpus", row.gpus)
                      .Set("opt_level", row.opt_level)
                      .Set("fusions", row.fusions)
                      .Set("total_s", r.total_seconds)
                      .Set("offload_runs", r.kernel_executions)
                      .Set("halo_refreshes", r.comm.halo_refreshes)
                      .Set("dirty_chunks_sent", r.comm.dirty_chunks_sent)
                      .Set("p2p_transfers", r.counters.p2p_transfers)
                      .Set("p2p_bytes", r.counters.p2p_bytes));
      }
    }
  }

  table.Print("Fused (opt 1) vs unfused (opt 0) offload execution");
  std::printf(
      "\nExpected shape: jacobi_heat and kmeans lose one offload round per "
      "iteration when\nfused, with bit-identical results; jacobi_heat on "
      ">= 2 GPUs bills strictly fewer\nGPU-GPU bytes (one dirty-propagation "
      "round of the replicated array deleted per\nstep); md is the "
      "single-loop control with identical traffic at every level.\n");

  if (!json_path.empty() && !WriteJsonFile(json_path, rows)) ++failures;
  if (failures > 0) {
    std::fprintf(stderr, "bench_fusion: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_fusion: all checks passed\n");
  return 0;
}

}  // namespace
}  // namespace accmg::bench

int main(int argc, char** argv) { return accmg::bench::Main(argc, argv); }
