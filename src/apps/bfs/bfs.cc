#include "apps/bfs/bfs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <queue>

#include "common/error.h"
#include "common/rng.h"

namespace accmg::apps {

namespace {

constexpr char kBfsSource[] = R"(
void bfs(int nnodes, int degree, int maxlevels,
         int* offsets, int* edges, int* cost, int* flag) {
  #pragma acc data copyin(offsets[0:nnodes+1], edges[0:nnodes*degree]) \
                   copy(cost[0:nnodes]) copy(flag[0:1])
  {
    int level = 0;
    int again = 1;
    while (again && level < maxlevels) {
      flag[0] = 0;
      /* CSR adjacency: node i's edges live in
         [offsets[i], offsets[i+1]); the graph is degree-regular, so both
         arrays have stride-form local access (offsets needs a halo of one
         element on the right for the offsets[i+1] read). */
      #pragma acc localaccess(offsets: stride(1), right(1)) \
                  (edges: stride(degree))
      #pragma acc parallel loop
      for (int i = 0; i < nnodes; i++) {
        if (cost[i] == level) {
          int first = offsets[i];
          int last = offsets[i + 1];
          for (int e = first; e < last; e++) {
            int nb = edges[e];
            if (cost[nb] < 0) {
              cost[nb] = level + 1;
              flag[0] = 1;
            }
          }
        }
      }
      again = flag[0];
      level = level + 1;
    }
  }
}
)";

}  // namespace

const std::string& BfsSource() {
  static const std::string* source = new std::string(kBfsSource);
  return *source;
}

BfsInput MakeBfsInput(int nnodes, int degree, std::uint64_t seed) {
  ACCMG_REQUIRE(nnodes > 1 && degree > 0, "bad BFS input shape");
  BfsInput input;
  input.nnodes = nnodes;
  input.degree = degree;
  input.source = 0;
  input.max_levels = 64;
  input.edges.resize(static_cast<std::size_t>(nnodes) *
                     static_cast<std::size_t>(degree));
  input.offsets.resize(static_cast<std::size_t>(nnodes) + 1);
  for (int i = 0; i <= nnodes; ++i) {
    input.offsets[static_cast<std::size_t>(i)] = i * degree;
  }
  Rng rng(seed);
  // Mostly-local neighbourhood plus sparse uniform shortcuts: diameters of
  // ~8-12 levels for realistic sizes, matching the 10 kernel launches of
  // Table II.
  const std::int64_t local_window = std::max<std::int64_t>(8, nnodes / 2048);
  for (int i = 0; i < nnodes; ++i) {
    for (int j = 0; j < degree; ++j) {
      std::int64_t nb;
      if (j % 32 == 0) {
        nb = static_cast<std::int64_t>(
            rng.NextBounded(static_cast<std::uint64_t>(nnodes)));
      } else {
        nb = i + rng.NextInt(-local_window, local_window);
        nb = std::clamp<std::int64_t>(nb, 0, nnodes - 1);
      }
      if (nb == i) nb = (i + 1) % nnodes;
      input.edges[static_cast<std::size_t>(i) *
                      static_cast<std::size_t>(degree) +
                  static_cast<std::size_t>(j)] = static_cast<std::int32_t>(nb);
    }
  }
  return input;
}

BfsInput MakePaperBfsInput(double scale) {
  // SHOC SM-node shaped graph: the 444.9 MB footprint is edge-dominated;
  // at full scale we use 1M nodes x 104 neighbours (~440 MB with cost and
  // flag arrays).
  const int nnodes = std::max(1024, static_cast<int>(1000000 * scale));
  return MakeBfsInput(nnodes, 104);
}

std::vector<std::int32_t> BfsReference(const BfsInput& input) {
  std::vector<std::int32_t> cost(static_cast<std::size_t>(input.nnodes), -1);
  cost[static_cast<std::size_t>(input.source)] = 0;
  std::queue<int> frontier;
  frontier.push(input.source);
  while (!frontier.empty()) {
    const int node = frontier.front();
    frontier.pop();
    const std::int32_t next = cost[static_cast<std::size_t>(node)] + 1;
    if (next > input.max_levels) continue;
    const std::int32_t first = input.offsets[static_cast<std::size_t>(node)];
    const std::int32_t last =
        input.offsets[static_cast<std::size_t>(node) + 1];
    for (std::int32_t e = first; e < last; ++e) {
      const std::int32_t nb = input.edges[static_cast<std::size_t>(e)];
      if (cost[static_cast<std::size_t>(nb)] < 0) {
        cost[static_cast<std::size_t>(nb)] = next;
        frontier.push(nb);
      }
    }
  }
  return cost;
}

namespace {

runtime::RunReport RunBfsProgram(const BfsInput& input,
                                 sim::Platform& platform, int num_gpus,
                                 bool use_cpu,
                                 std::vector<std::int32_t>* cost_out,
                                 const runtime::ExecOptions& options,
                                 const translator::CompileOptions& copts =
                                     {}) {
  const runtime::AccProgram& program =
      runtime::AccProgram::Cached("bfs", BfsSource(), copts);
  cost_out->assign(static_cast<std::size_t>(input.nnodes), -1);
  (*cost_out)[static_cast<std::size_t>(input.source)] = 0;
  std::int32_t flag = 0;

  runtime::RunConfig config;
  config.platform = &platform;
  config.num_gpus = num_gpus;
  config.use_cpu = use_cpu;
  config.options = options;
  runtime::ProgramRunner runner(program, config);
  runner.BindArray("offsets", const_cast<std::int32_t*>(input.offsets.data()),
                   ir::ValType::kI32,
                   static_cast<std::int64_t>(input.offsets.size()));
  runner.BindArray("edges", const_cast<std::int32_t*>(input.edges.data()),
                   ir::ValType::kI32,
                   static_cast<std::int64_t>(input.edges.size()));
  runner.BindArray("cost", cost_out->data(), ir::ValType::kI32,
                   static_cast<std::int64_t>(cost_out->size()));
  runner.BindArray("flag", &flag, ir::ValType::kI32, 1);
  runner.BindScalar("nnodes", static_cast<std::int64_t>(input.nnodes));
  runner.BindScalar("degree", static_cast<std::int64_t>(input.degree));
  runner.BindScalar("maxlevels", static_cast<std::int64_t>(input.max_levels));
  return runner.Run("bfs");
}

}  // namespace

runtime::RunReport RunBfsAcc(const BfsInput& input, sim::Platform& platform,
                             int num_gpus, std::vector<std::int32_t>* cost_out,
                             const runtime::ExecOptions& options,
                             const translator::CompileOptions& copts) {
  return RunBfsProgram(input, platform, num_gpus, /*use_cpu=*/false, cost_out,
                       options, copts);
}

runtime::RunReport RunBfsOpenMp(const BfsInput& input, sim::Platform& platform,
                                std::vector<std::int32_t>* cost_out) {
  return RunBfsProgram(input, platform, 1, /*use_cpu=*/true, cost_out, {});
}

runtime::RunReport RunBfsCuda(const BfsInput& input, sim::Platform& platform,
                              std::vector<std::int32_t>* cost_out) {
  platform.ResetAccounting();
  cost_out->assign(static_cast<std::size_t>(input.nnodes), -1);
  (*cost_out)[static_cast<std::size_t>(input.source)] = 0;

  sim::Device& dev = platform.device(0);
  auto offsets = dev.Allocate("cuda:offsets",
                              input.offsets.size() * sizeof(std::int32_t));
  auto edges =
      dev.Allocate("cuda:edges", input.edges.size() * sizeof(std::int32_t));
  auto cost =
      dev.Allocate("cuda:cost", cost_out->size() * sizeof(std::int32_t));
  auto flag = dev.Allocate("cuda:flag", sizeof(std::int32_t));
  platform.CopyHostToDevice(*offsets, 0, input.offsets.data(),
                            input.offsets.size() * sizeof(std::int32_t));
  platform.CopyHostToDevice(*edges, 0, input.edges.data(),
                            input.edges.size() * sizeof(std::int32_t));
  platform.CopyHostToDevice(*cost, 0, cost_out->data(),
                            cost_out->size() * sizeof(std::int32_t));
  platform.Barrier(sim::TimeCategory::kCpuGpu);

  const std::span<const std::int32_t> offsets_view =
      offsets->Typed<std::int32_t>();
  const std::span<const std::int32_t> edge_view = edges->Typed<std::int32_t>();
  const std::span<std::int32_t> cost_view = cost->Typed<std::int32_t>();
  const std::span<std::int32_t> flag_view = flag->Typed<std::int32_t>();
  const int degree = input.degree;

  int level = 0;
  bool again = true;
  std::uint64_t launches = 0;
  while (again && level < input.max_levels) {
    std::int32_t zero = 0;
    platform.CopyHostToDevice(*flag, 0, &zero, sizeof zero);
    platform.Barrier(sim::TimeCategory::kCpuGpu);

    sim::LambdaKernel kernel([&, offsets_view, edge_view, cost_view,
                              flag_view, level](std::int64_t i,
                                                sim::KernelStats& stats) {
      const auto ii = static_cast<std::size_t>(i);
      stats.instructions += 3;
      stats.bytes_read += 4;
      // Other threads may be writing cost_view[ii] (the race below).
      if (std::atomic_ref<std::int32_t>(cost_view[ii])
              .load(std::memory_order_relaxed) != level) {
        return;
      }
      const auto first = static_cast<std::size_t>(offsets_view[ii]);
      const auto last = static_cast<std::size_t>(offsets_view[ii + 1]);
      for (std::size_t e = first; e < last; ++e) {
        const auto nb = static_cast<std::size_t>(edge_view[e]);
        // Benign race, same as the SHOC CUDA kernel — relaxed atomics keep
        // it defined behaviour on the host.
        std::atomic_ref<std::int32_t> nb_cost(cost_view[nb]);
        if (nb_cost.load(std::memory_order_relaxed) < 0) {
          nb_cost.store(level + 1, std::memory_order_relaxed);
          std::atomic_ref<std::int32_t>(flag_view[0])
              .store(1, std::memory_order_relaxed);
          stats.bytes_written += 4;
        }
      }
      stats.instructions += static_cast<std::uint64_t>(degree) * 11;
      stats.bytes_read += static_cast<std::uint64_t>(degree) * 8;
    });
    sim::KernelLaunch launch;
    launch.body = &kernel;
    launch.num_threads = input.nnodes;
    launch.name = "bfs_cuda";
    platform.LaunchKernel(0, launch);
    platform.Barrier(sim::TimeCategory::kKernel);
    ++launches;

    std::int32_t host_flag = 0;
    platform.CopyDeviceToHost(&host_flag, *flag, 0, sizeof host_flag);
    platform.Barrier(sim::TimeCategory::kCpuGpu);
    again = host_flag != 0;
    ++level;
  }

  platform.CopyDeviceToHost(cost_out->data(), *cost, 0,
                            cost_out->size() * sizeof(std::int32_t));
  platform.Barrier(sim::TimeCategory::kCpuGpu);

  runtime::RunReport report;
  report.time = platform.clock().breakdown();
  report.total_seconds = report.time.Total();
  report.counters = platform.counters();
  report.kernel_executions = launches;
  report.peak_user_bytes = offsets->size_bytes() + edges->size_bytes() +
                           cost->size_bytes() + flag->size_bytes();
  return report;
}

}  // namespace accmg::apps
