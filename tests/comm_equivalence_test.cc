// Randomized differential tests for the optimized coherence hot paths.
//
// Each test builds two identical virtual machines, applies the same random
// write pattern to both, then runs the optimized path (word-level dirty
// scanning + span coalescing + thread-pool fan-out, sorted miss replay,
// pairwise-tree reduction) on one and the straightforward reference
// implementation (tests/support/comm_reference.h) on the other. The optimized
// paths must be pure wall-clock improvements: bit-identical final array
// contents AND identical billed bytes, transfer counts, and simulated time.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "runtime/comm_manager.h"
#include "runtime/data_loader.h"
#include "runtime/managed_array.h"
#include "runtime/program.h"
#include "runtime/reduction.h"
#include "sim/platform.h"
#include "support/comm_reference.h"

namespace accmg::runtime {
namespace {

/// One side of a differential run: its own platform (so billing and the sim
/// clock accumulate independently), host storage, and managed array.
struct Side {
  std::unique_ptr<sim::Platform> platform;
  ExecOptions options;
  std::vector<int> devices;
  std::vector<std::byte> host;
  std::unique_ptr<ManagedArray> array;
  std::unique_ptr<DataLoader> loader;

  Side(int gpus, ir::ValType type, std::int64_t count,
       std::size_t chunk_bytes) {
    platform = sim::MakeDesktopMachine(gpus);
    for (int d = 0; d < gpus; ++d) devices.push_back(d);
    options.dirty_chunk_bytes = chunk_bytes;
    host.resize(static_cast<std::size_t>(count) * ir::ValTypeSize(type));
    array = std::make_unique<ManagedArray>("a", type, count, host.data(),
                                           gpus);
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
    platform->ResetAccounting();
  }

  void LoadDistributed(bool miss_checked) {
    ArrayRequirement req;
    req.array = array.get();
    req.written = true;
    req.miss_checked = miss_checked;
    req.distributed = true;
    const std::int64_t n = array->count();
    const auto gpus = static_cast<std::int64_t>(devices.size());
    for (std::int64_t g = 0; g < gpus; ++g) {
      const Range own{n * g / gpus, n * (g + 1) / gpus};
      req.read_ranges.push_back(own);
      req.own_ranges.push_back(own);
    }
    loader->EnsurePlacement(req);
    platform->ResetAccounting();
  }
};

/// Marks `index` written with `raw` on `device`, as the instrumented kernel
/// would: data bytes + both dirty-bit levels.
void WriteDirty(Side& side, int device, std::int64_t index,
                std::uint64_t raw) {
  DeviceShard& shard = side.array->shard(device);
  const std::size_t elem = side.array->elem_size();
  std::memcpy(shard.data->bytes().data() +
                  static_cast<std::size_t>(index) * elem,
              &raw, elem);
  shard.dirty1->bytes()[static_cast<std::size_t>(index)] = std::byte{1};
  shard.dirty2->bytes()[static_cast<std::size_t>(index / shard.chunk_elems)] =
      std::byte{1};
}

/// Identical random dirty pattern on both sides (`seed` drives everything):
/// per-device random writes at `density`, plus a deliberately overlapping
/// stretch every device writes so last-writer-wins ordering is exercised.
void PaintDirtyPattern(Side& side, std::uint64_t seed, double density) {
  Rng rng(seed);
  const std::int64_t n = side.array->count();
  for (int device : side.devices) {
    for (std::int64_t i = 0; i < n; ++i) {
      const bool dirty = rng.NextDouble() < density;
      const std::uint64_t value = rng.NextU64();
      if (dirty) WriteDirty(side, device, i, value);
    }
  }
  // Overlap: every device writes [0, min(8, n)) with a device-tagged value.
  for (int device : side.devices) {
    for (std::int64_t i = 0; i < std::min<std::int64_t>(8, n); ++i) {
      WriteDirty(side, device, i,
                 seed ^ (static_cast<std::uint64_t>(device) << 32) ^
                     static_cast<std::uint64_t>(i));
    }
  }
}

/// Identical random miss records on both sides, including duplicate writes
/// to the same index (the later record must win on replay).
void FillMissRecords(Side& side, std::uint64_t seed, int records_per_gpu) {
  Rng rng(seed);
  const std::int64_t n = side.array->count();
  for (int device : side.devices) {
    DeviceShard& shard = side.array->shard(device);
    std::int64_t previous = 0;
    for (int k = 0; k < records_per_gpu; ++k) {
      // Every 4th record duplicates the previous index with a new value.
      const std::int64_t index =
          (k % 4 == 3) ? previous : rng.NextInt(0, n - 1);
      previous = index;
      shard.miss.records.push_back(
          ir::WriteMissRecord{index, rng.NextU64()});
    }
  }
}

void ExpectSidesIdentical(Side& optimized, Side& ref) {
  // Bit-identical device contents, dirty state, and miss buffers.
  for (int device : optimized.devices) {
    const DeviceShard& a = optimized.array->shard(device);
    const DeviceShard& b = ref.array->shard(device);
    ASSERT_EQ(a.data->size_bytes(), b.data->size_bytes());
    EXPECT_EQ(std::memcmp(a.data->bytes().data(), b.data->bytes().data(),
                          a.data->size_bytes()),
              0)
        << "device " << device << " contents diverge";
    if (a.dirty1 != nullptr) {
      EXPECT_EQ(std::memcmp(a.dirty1->bytes().data(),
                            b.dirty1->bytes().data(), a.dirty1->size_bytes()),
                0);
      EXPECT_EQ(std::memcmp(a.dirty2->bytes().data(),
                            b.dirty2->bytes().data(), a.dirty2->size_bytes()),
                0);
    }
    EXPECT_EQ(a.miss.records.size(), b.miss.records.size());
  }
  // Identical billed transfers and bytes.
  const sim::PlatformCounters& ca = optimized.platform->counters();
  const sim::PlatformCounters& cb = ref.platform->counters();
  EXPECT_EQ(ca.h2d_transfers, cb.h2d_transfers);
  EXPECT_EQ(ca.d2h_transfers, cb.d2h_transfers);
  EXPECT_EQ(ca.p2p_transfers, cb.p2p_transfers);
  EXPECT_EQ(ca.h2d_bytes, cb.h2d_bytes);
  EXPECT_EQ(ca.d2h_bytes, cb.d2h_bytes);
  EXPECT_EQ(ca.p2p_bytes, cb.p2p_bytes);
  // Identical simulated time, category by category (exact — the billing
  // sequences must match, not just approximately agree).
  optimized.platform->Barrier(sim::TimeCategory::kGpuGpu);
  ref.platform->Barrier(sim::TimeCategory::kGpuGpu);
  const auto& ta = optimized.platform->clock().breakdown();
  const auto& tb = ref.platform->clock().breakdown();
  for (int c = 0; c < sim::kNumTimeCategories; ++c) {
    EXPECT_EQ(ta.seconds[c], tb.seconds[c])
        << "sim time diverges in category " << c;
  }
}

TEST(CommEquivalence, DirtyMergeMatchesReference) {
  Rng meta(0xD117B175);
  for (int trial = 0; trial < 12; ++trial) {
    const int gpus = 2 + trial % 3;
    const auto n = meta.NextInt(200, 5000);
    const double density = meta.NextDouble() * meta.NextDouble();  // skew low
    const std::size_t chunk_bytes = std::size_t{64}
                                    << meta.NextInt(0, 4);  // 64..1024 B
    const ir::ValType type =
        trial % 2 == 0 ? ir::ValType::kI32 : ir::ValType::kF64;
    const std::uint64_t seed = meta.NextU64();
    SCOPED_TRACE("trial " + std::to_string(trial) + " gpus=" +
                 std::to_string(gpus) + " n=" + std::to_string(n));

    Side optimized(gpus, type, n, chunk_bytes);
    Side ref(gpus, type, n, chunk_bytes);
    optimized.LoadReplicated(/*dirty_tracked=*/true);
    ref.LoadReplicated(/*dirty_tracked=*/true);
    PaintDirtyPattern(optimized, seed, density);
    PaintDirtyPattern(ref, seed, density);

    CommManager comm(*optimized.platform, optimized.options,
                     optimized.devices);
    comm.PropagateReplicated(*optimized.array);
    reference::PropagateReplicated(*ref.platform, ref.devices, *ref.array);
    ExpectSidesIdentical(optimized, ref);
  }
}

TEST(CommEquivalence, DirtyMergeEdgePatterns) {
  // Full density, single dirty elements straddling chunk boundaries, runs
  // crossing chunk boundaries, and a completely clean array.
  const std::int64_t n = 1000;
  const std::size_t chunk_bytes = 64;  // 16 i32 elements per chunk
  for (int pattern = 0; pattern < 4; ++pattern) {
    SCOPED_TRACE("pattern " + std::to_string(pattern));
    Side optimized(3, ir::ValType::kI32, n, chunk_bytes);
    Side ref(3, ir::ValType::kI32, n, chunk_bytes);
    optimized.LoadReplicated(true);
    ref.LoadReplicated(true);

    auto paint = [&](Side& side) {
      const std::int64_t chunk = side.array->shard(0).chunk_elems;
      switch (pattern) {
        case 0:  // everything dirty on every device
          for (int d : side.devices) {
            for (std::int64_t i = 0; i < n; ++i) {
              WriteDirty(side, d, i, 0x1111 * (d + 1) + i);
            }
          }
          break;
        case 1:  // lone elements at chunk boundaries
          WriteDirty(side, 0, chunk - 1, 7);
          WriteDirty(side, 1, chunk, 8);
          WriteDirty(side, 2, 2 * chunk - 1, 9);
          break;
        case 2:  // one run crossing a chunk boundary
          for (std::int64_t i = chunk - 3; i < chunk + 3; ++i) {
            WriteDirty(side, 1, i, 100 + i);
          }
          break;
        case 3:  // nothing dirty
          break;
      }
    };
    paint(optimized);
    paint(ref);

    CommManager comm(*optimized.platform, optimized.options,
                     optimized.devices);
    comm.PropagateReplicated(*optimized.array);
    reference::PropagateReplicated(*ref.platform, ref.devices, *ref.array);
    ExpectSidesIdentical(optimized, ref);
  }
}

TEST(CommEquivalence, MissReplayMatchesReference) {
  Rng meta(0x3155F1A5);
  for (int trial = 0; trial < 10; ++trial) {
    const int gpus = 2 + trial % 3;
    const auto n = meta.NextInt(100, 3000);
    const int records = static_cast<int>(meta.NextInt(1, 400));
    const ir::ValType type =
        trial % 2 == 0 ? ir::ValType::kI64 : ir::ValType::kF32;
    const std::uint64_t seed = meta.NextU64();
    SCOPED_TRACE("trial " + std::to_string(trial) + " gpus=" +
                 std::to_string(gpus) + " records=" + std::to_string(records));

    Side optimized(gpus, type, n, 1 << 20);
    Side ref(gpus, type, n, 1 << 20);
    optimized.LoadDistributed(/*miss_checked=*/true);
    ref.LoadDistributed(/*miss_checked=*/true);
    FillMissRecords(optimized, seed, records);
    FillMissRecords(ref, seed, records);

    CommManager comm(*optimized.platform, optimized.options,
                     optimized.devices);
    comm.ReplayWriteMisses(*optimized.array);
    reference::ReplayWriteMisses(*ref.platform, ref.devices, *ref.array);
    ExpectSidesIdentical(optimized, ref);
  }
}

TEST(CommEquivalence, TreeReductionMatchesReference) {
  struct Case {
    ir::RedOp op;
    ir::ValType type;
  };
  const Case cases[] = {
      {ir::RedOp::kAdd, ir::ValType::kI64},
      {ir::RedOp::kAdd, ir::ValType::kF64},  // FP: tree order must match
      {ir::RedOp::kMax, ir::ValType::kI32},
      {ir::RedOp::kMin, ir::ValType::kF32},
      {ir::RedOp::kMul, ir::ValType::kF64},
  };
  Rng meta(0x4ED0C710);
  for (const Case& c : cases) {
    for (int gpus = 1; gpus <= 4; ++gpus) {
      SCOPED_TRACE(std::string("op=") + ir::RedOpName(c.op) + " gpus=" +
                   std::to_string(gpus));
      const auto n = meta.NextInt(50, 2000);
      const std::int64_t lower = meta.NextInt(0, n / 4);
      const std::int64_t length = meta.NextInt(1, n - lower);
      const std::uint64_t seed = meta.NextU64();

      Side optimized(gpus, c.type, n, 1 << 20);
      Side ref(gpus, c.type, n, 1 << 20);
      optimized.LoadReplicated(/*dirty_tracked=*/false);
      ref.LoadReplicated(/*dirty_tracked=*/false);

      // Identical random partials for both sides. For f32 the raw value
      // must be a valid 32-bit pattern in the low bytes.
      auto make_partials = [&] {
        Rng rng(seed);
        std::vector<std::vector<std::uint64_t>> partials(
            static_cast<std::size_t>(gpus));
        for (auto& p : partials) {
          p.resize(static_cast<std::size_t>(length));
          for (auto& v : p) {
            switch (c.type) {
              case ir::ValType::kI32:
                v = static_cast<std::uint32_t>(rng.NextU64());
                break;
              case ir::ValType::kI64:
                v = rng.NextU64();
                break;
              case ir::ValType::kF32: {
                const float f =
                    static_cast<float>(rng.NextDouble(-100.0, 100.0));
                std::uint32_t bits;
                std::memcpy(&bits, &f, sizeof(bits));
                v = bits;
                break;
              }
              case ir::ValType::kF64: {
                const double d = rng.NextDouble(-100.0, 100.0);
                std::memcpy(&v, &d, sizeof(v));
                break;
              }
            }
          }
        }
        return partials;
      };
      const auto partials_a = make_partials();
      const auto partials_b = make_partials();
      auto views = [](const std::vector<std::vector<std::uint64_t>>& p) {
        std::vector<const std::vector<std::uint64_t>*> v;
        for (const auto& partial : p) v.push_back(&partial);
        return v;
      };

      CombineArrayReduction(*optimized.platform, optimized.devices,
                            *optimized.array, c.op, c.type, lower, length,
                            views(partials_a));
      reference::CombineArrayReduction(*ref.platform, ref.devices,
                                       *ref.array, c.op, c.type, lower,
                                       length, views(partials_b));
      ExpectSidesIdentical(optimized, ref);
    }
  }
}

// ---------------------------------------------------------------------------
// Async-pipeline scheduling knobs (ready_at / Stream::kAsync)
// ---------------------------------------------------------------------------

/// Two writers dirty overlapping spans; propagation resolves the overlap
/// last-writer-wins in device order. Differential under the async pipeline's
/// scheduling knobs: a deferred start time and the second DMA engine must
/// not change the functional result, the billed traffic, or the
/// optimized-vs-reference agreement.
TEST(CommEquivalence, RacingWritersOverlappingSpansUnderAsyncKnobs) {
  Rng meta(0x0E21A77E);
  for (int trial = 0; trial < 8; ++trial) {
    const int gpus = 2 + trial % 3;
    const auto n = meta.NextInt(300, 3000);
    const std::size_t chunk_bytes = std::size_t{64} << meta.NextInt(0, 3);
    const std::uint64_t seed = meta.NextU64();
    const double ready_at = trial % 2 == 0 ? 0.0 : 1.5e-3;
    const sim::Stream stream =
        trial % 2 == 0 ? sim::Stream::kDefault : sim::Stream::kAsync;
    SCOPED_TRACE("trial " + std::to_string(trial) + " gpus=" +
                 std::to_string(gpus) + " n=" + std::to_string(n));

    Side optimized(gpus, ir::ValType::kI64, n, chunk_bytes);
    Side ref(gpus, ir::ValType::kI64, n, chunk_bytes);
    optimized.LoadReplicated(/*dirty_tracked=*/true);
    ref.LoadReplicated(/*dirty_tracked=*/true);

    // Every device writes a span; consecutive devices overlap halfway, so
    // each overlapped element has two racing writers.
    auto paint = [&](Side& side) {
      Rng rng(seed);
      const std::int64_t span = n / (gpus + 1);
      for (int d = 0; d < gpus; ++d) {
        const std::int64_t lo = d * span / 2;
        for (std::int64_t i = lo; i < lo + span; ++i) {
          WriteDirty(side, d,
                     i, rng.NextU64() ^ (static_cast<std::uint64_t>(d) << 56));
        }
      }
    };
    paint(optimized);
    paint(ref);

    CommManager comm(*optimized.platform, optimized.options,
                     optimized.devices);
    comm.PropagateReplicated(*optimized.array, ready_at, stream);
    reference::PropagateReplicated(*ref.platform, ref.devices, *ref.array,
                                   ready_at, stream);
    ExpectSidesIdentical(optimized, ref);
  }
}

/// PropagateReplicated snapshots the senders' dirty state when it is
/// CALLED (task-issue time), not when the deferred transfers drain. Writes
/// landing after the call — while the billed transfers are still "on the
/// wire" at ready_at — must not ride along, and must still be dirty for
/// the next propagation.
TEST(CommEquivalence, PropagationSnapshotTakenAtIssueTime) {
  const std::int64_t n = 512;
  Side optimized(2, ir::ValType::kI64, n, 256);
  Side ref(2, ir::ValType::kI64, n, 256);
  optimized.LoadReplicated(/*dirty_tracked=*/true);
  ref.LoadReplicated(/*dirty_tracked=*/true);

  auto run = [&](Side& side, bool reference_impl) {
    // First writer: device 0 dirties [0, 64).
    for (std::int64_t i = 0; i < 64; ++i) {
      WriteDirty(side, 0, i, 0xA000 + static_cast<std::uint64_t>(i));
    }
    // Issue the propagation far in the future on the async engine.
    const double deferred = 2.0e-3;
    CommManager comm(*side.platform, side.options, side.devices);
    if (reference_impl) {
      reference::PropagateReplicated(*side.platform, side.devices,
                                     *side.array, deferred,
                                     sim::Stream::kAsync);
    } else {
      comm.PropagateReplicated(*side.array, deferred, sim::Stream::kAsync);
    }
    // Second writer races in after the issue: overlapping span [32, 96).
    for (std::int64_t i = 32; i < 96; ++i) {
      WriteDirty(side, 1, i, 0xB000 + static_cast<std::uint64_t>(i));
    }
    // The issued propagation already snapshotted: device 1's late writes
    // must still be marked dirty, and device 0 must not yet see them.
    const DeviceShard& d0 = side.array->shard(0);
    for (std::int64_t i = 64; i < 96; ++i) {
      std::uint64_t value = 0;
      std::memcpy(&value,
                  d0.data->bytes().data() + static_cast<std::size_t>(i) * 8,
                  8);
      EXPECT_NE(value, 0xB000 + static_cast<std::uint64_t>(i))
          << "late write leaked into the issued propagation at " << i;
    }
    // Second propagation drains the late writes.
    if (reference_impl) {
      reference::PropagateReplicated(*side.platform, side.devices,
                                     *side.array, deferred,
                                     sim::Stream::kAsync);
    } else {
      comm.PropagateReplicated(*side.array, deferred, sim::Stream::kAsync);
    }
  };
  run(optimized, false);
  run(ref, true);

  // Both devices now agree: [0, 32) from writer A, [32, 96) from writer B
  // (last writer wins on the overlap).
  for (int device : optimized.devices) {
    const DeviceShard& shard = optimized.array->shard(device);
    for (std::int64_t i = 0; i < 96; ++i) {
      std::uint64_t value = 0;
      std::memcpy(&value,
                  shard.data->bytes().data() +
                      static_cast<std::size_t>(i) * 8,
                  8);
      const std::uint64_t want =
          i < 32 ? 0xA000 + static_cast<std::uint64_t>(i)
                 : 0xB000 + static_cast<std::uint64_t>(i);
      EXPECT_EQ(value, want) << "device " << device << " element " << i;
    }
  }
  ExpectSidesIdentical(optimized, ref);
}

// ---------------------------------------------------------------------------
// Optimizing mid-end: fused vs unfused whole-program differential sweep
// ---------------------------------------------------------------------------

/// Emits a random sequence of adjacent parallel loops over three shared
/// arrays. Three statement shapes: same-thread element-wise maps (fusion
/// candidates), two-source combines (also same-thread), and clamped
/// shifted reads through a local (non-affine, so fusion must bail). The
/// mix makes some adjacent pairs legal to fuse and others not.
std::string MakeRandomLoopNest(Rng& rng, int loops) {
  const char* arrays[] = {"a", "b", "c"};
  std::string body;
  for (int l = 0; l < loops; ++l) {
    const auto dst_idx = rng.NextInt(0, 2);
    auto src_idx = rng.NextInt(0, 2);
    const std::string dst = arrays[dst_idx];
    const std::string k = std::to_string(rng.NextInt(1, 3));
    const std::string add = std::to_string(rng.NextInt(0, 9));
    body += "  #pragma acc parallel loop\n"
            "  for (int i = 0; i < n; i++) {\n";
    switch (rng.NextInt(0, 2)) {
      case 0:
        body += "    " + dst + "[i] = " + arrays[src_idx] + "[i] * " + k +
                " + " + add + ";\n";
        break;
      case 1:
        body += "    " + dst + "[i] = a[i] + b[i] + " + add + ";\n";
        break;
      default:
        // Reading through the clamped local defeats the affine summary;
        // keep the source distinct from the destination so the loop stays
        // race-free on its own.
        if (src_idx == dst_idx) src_idx = (dst_idx + 1) % 3;
        body += "    int r = i + 1;\n"
                "    if (r >= n) { r = n - 1; }\n"
                "    " + dst + "[i] = " + arrays[src_idx] + "[r] + " + add +
                ";\n";
        break;
    }
    body += "  }\n";
  }
  return "void f(int n, int* a, int* b, int* c) {\n"
         "  #pragma acc data copy(a[0:n], b[0:n], c[0:n])\n  {\n" +
         body + "  }\n}\n";
}

struct SweepRun {
  std::vector<std::int32_t> a, b, c;
  RunReport report;
  std::size_t offloads = 0;
};

SweepRun RunSweep(const std::string& source, int opt_level, int gpus,
                  std::int64_t n, std::uint64_t seed) {
  translator::CompileOptions copts;
  copts.opt_level = opt_level;
  const AccProgram program = AccProgram::FromSource("f", source, copts);
  SweepRun out;
  for (const auto& fn : program.compiled().functions) {
    out.offloads += fn.offloads.size();
  }
  Rng rng(seed);
  auto fill = [&](std::vector<std::int32_t>& v) {
    v.resize(static_cast<std::size_t>(n));
    for (auto& x : v) x = static_cast<std::int32_t>(rng.NextInt(0, 99));
  };
  fill(out.a);
  fill(out.b);
  fill(out.c);
  auto platform = sim::MakeDesktopMachine(gpus);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = gpus});
  runner.BindArray("a", out.a.data(), ir::ValType::kI32, n);
  runner.BindArray("b", out.b.data(), ir::ValType::kI32, n);
  runner.BindArray("c", out.c.data(), ir::ValType::kI32, n);
  runner.BindScalar("n", n);
  out.report = runner.Run("f");
  return out;
}

/// Random loop nests, each compiled at opt levels 0/1/2 and run on the same
/// inputs: results must be bit-identical, and the optimized levels must
/// never bill more offload rounds, GPU-GPU transfers, or GPU-GPU bytes
/// than the unfused baseline.
TEST(CommEquivalence, FusedVsUnfusedDifferentialSweep) {
  Rng meta(0xF05EDD1F);
  int fused_at_least_once = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const int gpus = 1 + static_cast<int>(trial % 3);
    const int loops = static_cast<int>(meta.NextInt(3, 5));
    const std::int64_t n = meta.NextInt(200, 4000);
    const std::uint64_t seed = meta.NextU64();
    const std::string source = MakeRandomLoopNest(meta, loops);
    SCOPED_TRACE("trial " + std::to_string(trial) + " gpus=" +
                 std::to_string(gpus) + " loops=" + std::to_string(loops) +
                 "\n" + source);

    const SweepRun base = RunSweep(source, 0, gpus, n, seed);
    ASSERT_EQ(base.offloads, static_cast<std::size_t>(loops));
    for (const int level : {1, 2}) {
      const SweepRun opt = RunSweep(source, level, gpus, n, seed);
      EXPECT_EQ(opt.a, base.a) << "opt level " << level;
      EXPECT_EQ(opt.b, base.b) << "opt level " << level;
      EXPECT_EQ(opt.c, base.c) << "opt level " << level;
      EXPECT_LE(opt.offloads, base.offloads);
      EXPECT_LE(opt.report.kernel_executions, base.report.kernel_executions);
      EXPECT_LE(opt.report.counters.p2p_transfers,
                base.report.counters.p2p_transfers);
      EXPECT_LE(opt.report.counters.p2p_bytes,
                base.report.counters.p2p_bytes);
      if (opt.offloads < base.offloads) ++fused_at_least_once;
    }
  }
  // The sweep is only interesting if fusion actually fires somewhere.
  EXPECT_GT(fused_at_least_once, 0);
}

}  // namespace
}  // namespace accmg::runtime
