// Wall-clock benchmark for the coherence hot paths, comparing the optimized
// implementations (word-level dirty scanning + span coalescing + thread-pool
// fan-out, sorted miss replay, pairwise-tree reduction) against the serial
// element-at-a-time references in tests/support/comm_reference.h.
//
// Both versions bill identical simulated transfers (enforced by
// tests/comm_equivalence_test.cc); this bench measures only the host-side
// wall-clock gap. Results are emitted as machine-readable JSON:
//   [{"phase": "dirty-merge", "gpus": 4, "density": 0.25,
//     "elements": 1048576, "reference_ms": ..., "optimized_ms": ...,
//     "speedup": ...}, ...]
//
// Usage: bench_comm_hotpath [--quick] [--out=<path>]
//   --quick  smaller arrays and fewer repetitions (smoke check)
//   --out    write the JSON array to <path> (always printed to stdout too)
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "runtime/comm_manager.h"
#include "runtime/data_loader.h"
#include "runtime/managed_array.h"
#include "runtime/reduction.h"
#include "sim/platform.h"
#include "support/comm_reference.h"

namespace accmg::runtime {
namespace {

struct Result {
  std::string phase;
  int gpus = 0;
  double density = 0.0;
  std::int64_t elements = 0;
  double reference_ms = 0.0;
  double optimized_ms = 0.0;

  double Speedup() const {
    return optimized_ms > 0.0 ? reference_ms / optimized_ms : 0.0;
  }
};

/// A simulated machine plus one managed array, mirroring the setup the
/// executor produces before each hot path runs.
struct Harness {
  std::unique_ptr<sim::Platform> platform;
  ExecOptions options;
  std::vector<int> devices;
  std::vector<std::byte> host;
  std::unique_ptr<ManagedArray> array;
  std::unique_ptr<DataLoader> loader;

  Harness(int gpus, ir::ValType type, std::int64_t count) {
    platform = sim::MakeDesktopMachine(gpus);
    for (int d = 0; d < gpus; ++d) devices.push_back(d);
    host.resize(static_cast<std::size_t>(count) * ir::ValTypeSize(type));
    array =
        std::make_unique<ManagedArray>("a", type, count, host.data(), gpus);
    loader = std::make_unique<DataLoader>(*platform, options, devices);
  }

  void LoadReplicated(bool dirty_tracked) {
    ArrayRequirement req;
    req.array = array.get();
    req.written = true;
    req.dirty_tracked = dirty_tracked;
    req.read_ranges.assign(devices.size(), Range{0, array->count()});
    req.own_ranges.assign(devices.size(), Range{0, array->count()});
    loader->EnsurePlacement(req);
  }

  void LoadDistributed() {
    ArrayRequirement req;
    req.array = array.get();
    req.written = true;
    req.miss_checked = true;
    req.distributed = true;
    const std::int64_t n = array->count();
    const auto gpus = static_cast<std::int64_t>(devices.size());
    for (std::int64_t g = 0; g < gpus; ++g) {
      const Range own{n * g / gpus, n * (g + 1) / gpus};
      req.read_ranges.push_back(own);
      req.own_ranges.push_back(own);
    }
    loader->EnsurePlacement(req);
  }
};

/// Byte-level snapshot of every shard's data + dirty state + miss records,
/// so each timed repetition starts from the identical painted pattern
/// without re-running the (slow, random) painting loop.
struct ShardSnapshot {
  std::vector<std::vector<std::byte>> data;
  std::vector<std::vector<std::byte>> dirty1;
  std::vector<std::vector<std::byte>> dirty2;
  std::vector<std::vector<ir::WriteMissRecord>> miss;

  static ShardSnapshot Capture(Harness& h) {
    ShardSnapshot s;
    for (int device : h.devices) {
      const DeviceShard& shard = h.array->shard(device);
      auto span_copy = [](const sim::DeviceBuffer* buf) {
        std::vector<std::byte> bytes;
        if (buf != nullptr) {
          bytes.assign(buf->bytes().begin(), buf->bytes().end());
        }
        return bytes;
      };
      s.data.push_back(span_copy(shard.data.get()));
      s.dirty1.push_back(span_copy(shard.dirty1.get()));
      s.dirty2.push_back(span_copy(shard.dirty2.get()));
      s.miss.push_back(shard.miss.records);
    }
    return s;
  }

  void Restore(Harness& h) const {
    for (std::size_t d = 0; d < h.devices.size(); ++d) {
      DeviceShard& shard = h.array->shard(h.devices[d]);
      auto restore = [](const std::vector<std::byte>& bytes,
                        sim::DeviceBuffer* buf) {
        if (buf != nullptr && !bytes.empty()) {
          std::memcpy(buf->bytes().data(), bytes.data(), bytes.size());
        }
      };
      restore(data[d], shard.data.get());
      restore(dirty1[d], shard.dirty1.get());
      restore(dirty2[d], shard.dirty2.get());
      shard.miss.records = miss[d];
    }
  }
};

/// Paints the dirty pattern an instrumented kernel would leave behind:
/// contiguous runs of written elements (kernels march through iteration
/// ranges) separated by clean gaps sized so the overall fraction of dirty
/// elements is `density`. Each device gets a different random phase so the
/// devices' runs partially overlap.
void PaintDirtyPattern(Harness& h, std::uint64_t seed, double density) {
  Rng rng(seed);
  const std::int64_t n = h.array->count();
  const std::size_t elem = h.array->elem_size();
  const std::int64_t mean_run = 64;
  const auto mean_gap = static_cast<std::int64_t>(
      static_cast<double>(mean_run) * (1.0 - density) / density);
  for (int device : h.devices) {
    DeviceShard& shard = h.array->shard(device);
    std::byte* data = shard.data->bytes().data();
    std::byte* dirty1 = shard.dirty1->bytes().data();
    std::byte* dirty2 = shard.dirty2->bytes().data();
    std::int64_t i = rng.NextInt(0, 2 * mean_run);
    while (i < n) {
      const std::int64_t run = rng.NextInt(1, 2 * mean_run - 1);
      const std::int64_t hi = std::min<std::int64_t>(n, i + run);
      for (std::int64_t j = i; j < hi; ++j) {
        const std::uint64_t value = rng.NextU64();
        std::memcpy(data + static_cast<std::size_t>(j) * elem, &value, elem);
        dirty1[j] = std::byte{1};
        dirty2[j / shard.chunk_elems] = std::byte{1};
      }
      i = hi + 1 + rng.NextInt(0, std::max<std::int64_t>(1, 2 * mean_gap));
    }
  }
}

/// Fills each device's miss buffer the way an instrumented kernel would:
/// runs of consecutive indices (the kernel walks its iteration range and
/// records every store that lands outside its owned segment), with the
/// occasional duplicate write to the same element.
void FillMissRecords(Harness& h, std::uint64_t seed, int records_per_gpu) {
  Rng rng(seed);
  const std::int64_t n = h.array->count();
  for (int device : h.devices) {
    DeviceShard& shard = h.array->shard(device);
    shard.miss.records.reserve(static_cast<std::size_t>(records_per_gpu));
    int count = 0;
    while (count < records_per_gpu) {
      const std::int64_t start = rng.NextInt(0, n - 1);
      const std::int64_t run = std::min<std::int64_t>(
          {rng.NextInt(8, 256), records_per_gpu - count, n - start});
      for (std::int64_t j = 0; j < run; ++j) {
        shard.miss.records.push_back(
            ir::WriteMissRecord{start + j, rng.NextU64()});
        // Sprinkle duplicate writes: the later record must win on replay.
        if ((count + j) % 61 == 0) {
          shard.miss.records.push_back(
              ir::WriteMissRecord{start + j, rng.NextU64()});
        }
      }
      count += static_cast<int>(run);
    }
  }
}

template <typename Fn>
double TimedReps(int reps, const ShardSnapshot& snapshot, Harness& h,
                 Fn&& run) {
  double total = 0.0;
  for (int r = 0; r < reps; ++r) {
    snapshot.Restore(h);
    Stopwatch watch;
    run();
    total += watch.ElapsedSeconds();
  }
  return total * 1000.0 / reps;
}

Result BenchDirtyMerge(int gpus, std::int64_t elements, double density,
                       int reps) {
  Result result{"dirty-merge", gpus, density, elements, 0.0, 0.0};

  Harness opt(gpus, ir::ValType::kI32, elements);
  opt.LoadReplicated(/*dirty_tracked=*/true);
  PaintDirtyPattern(opt, 0xD117B175 + gpus, density);
  const ShardSnapshot snap_opt = ShardSnapshot::Capture(opt);
  CommManager comm(*opt.platform, opt.options, opt.devices);
  result.optimized_ms = TimedReps(reps, snap_opt, opt, [&] {
    comm.PropagateReplicated(*opt.array);
  });

  Harness ref(gpus, ir::ValType::kI32, elements);
  ref.LoadReplicated(/*dirty_tracked=*/true);
  PaintDirtyPattern(ref, 0xD117B175 + gpus, density);
  const ShardSnapshot snap_ref = ShardSnapshot::Capture(ref);
  result.reference_ms = TimedReps(reps, snap_ref, ref, [&] {
    reference::PropagateReplicated(*ref.platform, ref.devices, *ref.array);
  });
  return result;
}

Result BenchMissReplay(int gpus, std::int64_t elements, int records_per_gpu,
                       int reps) {
  Result result{"miss-replay", gpus,
                static_cast<double>(records_per_gpu), elements, 0.0, 0.0};

  Harness opt(gpus, ir::ValType::kI64, elements);
  opt.LoadDistributed();
  FillMissRecords(opt, 0x3155F1A5 + gpus, records_per_gpu);
  const ShardSnapshot snap_opt = ShardSnapshot::Capture(opt);
  CommManager comm(*opt.platform, opt.options, opt.devices);
  result.optimized_ms = TimedReps(reps, snap_opt, opt, [&] {
    comm.ReplayWriteMisses(*opt.array);
  });

  Harness ref(gpus, ir::ValType::kI64, elements);
  ref.LoadDistributed();
  FillMissRecords(ref, 0x3155F1A5 + gpus, records_per_gpu);
  const ShardSnapshot snap_ref = ShardSnapshot::Capture(ref);
  result.reference_ms = TimedReps(reps, snap_ref, ref, [&] {
    reference::ReplayWriteMisses(*ref.platform, ref.devices, *ref.array);
  });
  return result;
}

Result BenchReduction(int gpus, std::int64_t elements, int reps) {
  Result result{"reduction", gpus, 1.0, elements, 0.0, 0.0};

  auto make_partials = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> partials(
        static_cast<std::size_t>(gpus));
    for (auto& p : partials) {
      p.resize(static_cast<std::size_t>(elements));
      for (auto& v : p) {
        const double d = rng.NextDouble(-100.0, 100.0);
        std::memcpy(&v, &d, sizeof(v));
      }
    }
    return partials;
  };
  auto views = [](const std::vector<std::vector<std::uint64_t>>& p) {
    std::vector<const std::vector<std::uint64_t>*> v;
    for (const auto& partial : p) v.push_back(&partial);
    return v;
  };

  Harness opt(gpus, ir::ValType::kF64, elements);
  opt.LoadReplicated(/*dirty_tracked=*/false);
  const auto partials_opt = make_partials(0x4ED0C710);
  const ShardSnapshot snap_opt = ShardSnapshot::Capture(opt);
  result.optimized_ms = TimedReps(reps, snap_opt, opt, [&] {
    CombineArrayReduction(*opt.platform, opt.devices, *opt.array,
                          ir::RedOp::kAdd, ir::ValType::kF64, 0, elements,
                          views(partials_opt));
  });

  Harness ref(gpus, ir::ValType::kF64, elements);
  ref.LoadReplicated(/*dirty_tracked=*/false);
  const auto partials_ref = make_partials(0x4ED0C710);
  const ShardSnapshot snap_ref = ShardSnapshot::Capture(ref);
  result.reference_ms = TimedReps(reps, snap_ref, ref, [&] {
    reference::CombineArrayReduction(*ref.platform, ref.devices, *ref.array,
                                     ir::RedOp::kAdd, ir::ValType::kF64, 0,
                                     elements, views(partials_ref));
  });
  return result;
}

std::string ToJson(const std::vector<Result>& results) {
  bench::JsonValue rows = bench::JsonValue::Array();
  for (const Result& r : results) {
    rows.Push(bench::JsonValue::Object()
                  .Set("phase", r.phase)
                  .Set("gpus", r.gpus)
                  .Set("density", r.density)
                  .Set("elements", r.elements)
                  .Set("reference_ms", r.reference_ms)
                  .Set("optimized_ms", r.optimized_ms)
                  .Set("speedup", r.Speedup()));
  }
  return rows.Dump() + "\n";
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_comm_hotpath [--quick] [--out=<path>]\n";
      return 2;
    }
  }

  const std::int64_t elements = quick ? (1 << 17) : (1 << 20);
  const int reps = quick ? 2 : 5;
  const std::vector<double> densities =
      quick ? std::vector<double>{0.25} : std::vector<double>{0.05, 0.25, 0.6};

  std::vector<Result> results;
  for (int gpus : {2, 4}) {
    for (double density : densities) {
      results.push_back(BenchDirtyMerge(gpus, elements, density, reps));
      std::cerr << "dirty-merge gpus=" << gpus << " density=" << density
                << " ref=" << results.back().reference_ms
                << "ms opt=" << results.back().optimized_ms
                << "ms speedup=" << results.back().Speedup() << "x\n";
    }
  }
  for (int gpus : {2, 4}) {
    const int records = quick ? 20000 : 200000;
    results.push_back(BenchMissReplay(gpus, elements, records, reps));
    std::cerr << "miss-replay gpus=" << gpus << " records=" << records
              << " ref=" << results.back().reference_ms
              << "ms opt=" << results.back().optimized_ms
              << "ms speedup=" << results.back().Speedup() << "x\n";
  }
  for (int gpus : {2, 4}) {
    results.push_back(BenchReduction(gpus, elements / 2, reps));
    std::cerr << "reduction gpus=" << gpus
              << " ref=" << results.back().reference_ms
              << "ms opt=" << results.back().optimized_ms
              << "ms speedup=" << results.back().Speedup() << "x\n";
  }

  const std::string json = ToJson(results);
  std::cout << json;
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    if (!file) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    file << json;
    std::cerr << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace accmg::runtime

int main(int argc, char** argv) { return accmg::runtime::Main(argc, argv); }
