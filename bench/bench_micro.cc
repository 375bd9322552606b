// Microbenchmarks (google-benchmark) for the infrastructure layers: the IR
// interpreter, the frontend, the simulated-clock scheduler and the
// communication manager's dirty-element merge. These measure *real wall
// time* of this implementation (unlike the figure benches, which report
// simulated time).
#include <benchmark/benchmark.h>

#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/md/md.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/builder.h"
#include "ir/exec.h"
#include "ir/native_tier.h"
#include "runtime/comm_manager.h"
#include "runtime/data_loader.h"
#include "runtime/program.h"
#include "sim/platform.h"
#include "translator/offload.h"

namespace accmg {
namespace {

// --- IR interpreter throughput ---------------------------------------------

ir::KernelIR BuildSaxpyKernel() {
  ir::KernelBuilder builder("saxpy");
  const int x = builder.AddArray("x", ir::ValType::kF32);
  const int y = builder.AddArray("y", ir::ValType::kF32);
  const int a = builder.AddScalar("a", ir::ValType::kF32);
  const int xv = builder.Load(x, builder.thread_id_reg());
  const int prod = builder.Binary(ir::Opcode::kMulF, a, xv);
  const int rp = builder.Unary(ir::Opcode::kRoundF32, prod);
  const int yv = builder.Load(y, builder.thread_id_reg());
  const int sum = builder.Binary(ir::Opcode::kAddF, rp, yv);
  const int rs = builder.Unary(ir::Opcode::kRoundF32, sum);
  builder.Store(y, builder.thread_id_reg(), rs);
  return builder.Build();
}

/// Runs the benchmark body on one tier of the process's kernel engine:
/// interpreted only, or native (the kernel is compiled before timing).
class TierScope {
 public:
  TierScope(bool native, const ir::DecodedKernel& kernel) {
    ir::NativeTier& tier = ir::NativeTier::Process();
    tier.SetModeForTesting(native ? ir::NativeTier::Mode::kEager
                                  : ir::NativeTier::Mode::kOff);
    if (native && !tier.BuildNowForTesting(kernel)) {
      throw std::runtime_error("native build failed");
    }
  }
  ~TierScope() {
    ir::NativeTier::Process().SetModeForTesting(
        ir::NativeTier::Mode::kTiered);
  }
};

void Saxpy(benchmark::State& state, bool native) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  static const ir::KernelIR kernel = BuildSaxpyKernel();
  std::vector<float> x(static_cast<std::size_t>(n), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(n), 2.0f);

  static const ir::DecodedKernel decoded(kernel);
  const TierScope tier(native, decoded);
  ir::KernelExec exec(decoded);
  for (auto& binding : exec.bindings) {
    binding.lo = 0;
    binding.hi = n;
    binding.write_lo = 0;
    binding.write_hi = n;
    binding.logical_size = n;
  }
  exec.bindings[0].data = reinterpret_cast<std::byte*>(x.data());
  exec.bindings[1].data = reinterpret_cast<std::byte*>(y.data());
  exec.scalar_values[0] = ir::EncodeScalar(ir::ValType::kF32, 1.5, 0);

  for (auto _ : state) {
    sim::KernelStats stats;
    exec.Execute(0, n, stats);
    benchmark::DoNotOptimize(stats.instructions);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_InterpreterSaxpy(benchmark::State& state) { Saxpy(state, false); }
void BM_NativeSaxpy(benchmark::State& state) { Saxpy(state, true); }
BENCHMARK(BM_InterpreterSaxpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_NativeSaxpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// The md kernel, translated from its OpenACC source: per thread a loop over
// 128 neighbours with index loads, float math rounded to f32 after every op
// and a data-dependent cutoff `if`. Unlike saxpy it exercises block
// boundaries, back-edges and fused arithmetic+round pairs. Items are
// neighbour interactions.
void MdInner(benchmark::State& state, bool native) {
  const int atoms = static_cast<int>(state.range(0));
  constexpr int kMaxNeigh = 128;
  static const runtime::AccProgram program =
      runtime::AccProgram::FromSource("md", apps::MdSource());
  const translator::LoopOffload& offload =
      program.compiled().functions[0].offloads[0];
  const ir::KernelIR& kernel = offload.kernel;
  apps::MdInput input = apps::MakeMdInput(atoms, kMaxNeigh);
  std::vector<float> force(3 * static_cast<std::size_t>(atoms), 0.0f);

  const TierScope tier(native, offload.decoded);
  ir::KernelExec exec(offload.decoded);
  auto bind = [&](const char* name, void* data, std::int64_t count) {
    ir::ArrayBinding& binding =
        exec.bindings[static_cast<std::size_t>(kernel.FindArray(name))];
    binding.data = static_cast<std::byte*>(data);
    binding.hi = binding.write_hi = binding.logical_size = count;
  };
  bind("pos", input.pos.data(), static_cast<std::int64_t>(input.pos.size()));
  bind("neigh", input.neigh.data(),
       static_cast<std::int64_t>(input.neigh.size()));
  bind("force", force.data(), static_cast<std::int64_t>(force.size()));
  auto scalar = [&](const char* name, double fval, std::int64_t ival) {
    const auto s = static_cast<std::size_t>(kernel.FindScalar(name));
    exec.scalar_values[s] = ir::EncodeScalar(kernel.scalars[s].type, fval, ival);
  };
  scalar("maxneigh", 0, kMaxNeigh);
  scalar("cutsq", input.cutsq, 0);
  scalar("lj1", input.lj1, 0);
  scalar("lj2", input.lj2, 0);

  for (auto _ : state) {
    sim::KernelStats stats;
    exec.Execute(0, atoms, stats);
    benchmark::DoNotOptimize(stats.instructions);
    benchmark::DoNotOptimize(force.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * atoms * kMaxNeigh);
}
void BM_InterpreterMdInner(benchmark::State& state) { MdInner(state, false); }
void BM_NativeMdInner(benchmark::State& state) { MdInner(state, true); }
BENCHMARK(BM_InterpreterMdInner)->Arg(1 << 10)->Arg(1 << 13);
BENCHMARK(BM_NativeMdInner)->Arg(1 << 10)->Arg(1 << 13);

// --- frontend throughput -----------------------------------------------------

void BM_ParseAndAnalyze(benchmark::State& state) {
  const std::string source = R"(
void kmeans_like(int n, int k, int f, float* data, float* cent, int* mem) {
  #pragma acc data copyin(data[0:n*f]) copy(cent[0:k*f], mem[0:n])
  {
    #pragma acc localaccess(data: stride(f)) (mem: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      int best = 0;
      float bd = 3.0e38f;
      for (int c = 0; c < k; c++) {
        float d = 0.0f;
        for (int j = 0; j < f; j++) {
          float diff = data[i * f + j] - cent[c * f + j];
          d += diff * diff;
        }
        if (d < bd) { bd = d; best = c; }
      }
      mem[i] = best;
    }
  }
}
)";
  for (auto _ : state) {
    frontend::SourceBuffer buffer("bench.c", source);
    auto program = frontend::ParseAndAnalyze(buffer);
    benchmark::DoNotOptimize(program->functions.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(source.size()));
}
BENCHMARK(BM_ParseAndAnalyze);

void BM_TranslateToIr(benchmark::State& state) {
  const std::string source = R"(
void f(int n, float* a, float* b) {
  #pragma acc localaccess(a: stride(1), left(1), right(1)) (b: stride(1))
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    int l = i - 1;
    if (l < 0) { l = 0; }
    b[i] = 0.5f * (a[i] + a[l]);
  }
}
)";
  frontend::SourceBuffer buffer("bench.c", source);
  auto program = frontend::ParseAndAnalyze(buffer);
  for (auto _ : state) {
    translator::CompiledProgram compiled = translator::Compile(*program);
    benchmark::DoNotOptimize(compiled.functions[0].offloads.size());
  }
}
BENCHMARK(BM_TranslateToIr);

/// `loops` adjacent same-thread loops with 16-temporary bodies, all fusible
/// into one offload (the shape of perfbench's cold-compile fusible chains).
std::string FusibleChainSource(int loops) {
  std::ostringstream os;
  os << "void chain(int n, float* a, float* b) {\n";
  for (int k = 0; k < loops; ++k) {
    os << "  #pragma acc localaccess(a: stride(1)) (b: stride(1))\n"
       << "  #pragma acc parallel loop\n"
       << "  for (int i = 0; i < n; i++) {\n"
       << "    float t0 = a[i] * 0.75f + b[i] + " << k << ".0f;\n";
    for (int s = 1; s <= 16; ++s) {
      os << "    float t" << s << " = t" << s - 1 << " * 1.0625f - b[i] * "
         << s << ".5f + " << s << ".25f;\n";
    }
    os << "    a[i] = t16 * 0.125f + t8 * 0.25f + t0 * 0.5f;\n  }\n";
  }
  os << "}\n";
  return os.str();
}

/// Source-to-IR compile at opt level 1: frontend, translation, and the
/// mid-end's fusion and CSE over a chain of `range(0)` loops. Time per loop
/// should stay flat as the chain grows.
void BM_CompileFusibleChain(benchmark::State& state) {
  const std::string source =
      FusibleChainSource(static_cast<int>(state.range(0)));
  translator::CompileOptions options;
  options.opt_level = 1;
  for (auto _ : state) {
    frontend::SourceBuffer buffer("chain.c", source);
    auto program = frontend::ParseAndAnalyze(buffer);
    translator::CompiledProgram compiled =
        translator::Compile(*program, options);
    benchmark::DoNotOptimize(compiled.functions[0].offloads.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompileFusibleChain)->Arg(12)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

// --- simulated clock ----------------------------------------------------------

void BM_ClockScheduling(benchmark::State& state) {
  sim::SimClock clock;
  std::vector<sim::SimClock::Resource> resources;
  for (int i = 0; i < 8; ++i) {
    resources.push_back(clock.NewResource("r" + std::to_string(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    clock.Schedule(resources[i++ & 7], 1e-6);
    if ((i & 1023) == 0) clock.Barrier(sim::TimeCategory::kOther);
  }
  benchmark::DoNotOptimize(clock.Now());
}
BENCHMARK(BM_ClockScheduling);

// --- dirty propagation ---------------------------------------------------------

void BM_DirtyPropagation(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const double dirty_fraction = 0.01;
  auto platform = sim::MakeDesktopMachine(2);
  runtime::ExecOptions options;
  runtime::DataLoader loader(*platform, options, {0, 1});
  runtime::CommManager comm(*platform, options, {0, 1});

  std::vector<std::int32_t> host(static_cast<std::size_t>(n), 0);
  runtime::ManagedArray array("a", ir::ValType::kI32, n, host.data(), 2);
  runtime::ArrayRequirement req;
  req.array = &array;
  req.written = true;
  req.dirty_tracked = true;
  req.read_ranges.assign(2, runtime::Range{0, n});
  req.own_ranges.assign(2, runtime::Range{0, n});
  loader.EnsurePlacement(req);

  const auto stride = static_cast<std::int64_t>(1.0 / dirty_fraction);
  for (auto _ : state) {
    state.PauseTiming();
    runtime::DeviceShard& shard = array.shard(0);
    for (std::int64_t i = 0; i < n; i += stride) {
      shard.dirty1->bytes()[static_cast<std::size_t>(i)] = std::byte{1};
      shard.dirty2->bytes()[static_cast<std::size_t>(i / shard.chunk_elems)] =
          std::byte{1};
    }
    state.ResumeTiming();
    comm.PropagateReplicated(array);
  }
  state.SetItemsProcessed(state.iterations() * (n / stride));
}
BENCHMARK(BM_DirtyPropagation)->Arg(1 << 18)->Arg(1 << 22);

}  // namespace
}  // namespace accmg

BENCHMARK_MAIN();
