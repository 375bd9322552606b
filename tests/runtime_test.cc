// Unit tests for the multi-GPU runtime: data loader policies and the
// reload-skip cache, comm manager (dirty propagation, miss replay, halo
// refresh), managed-array accounting, host-interpreter semantics, and the
// host-independence gate (results do not depend on worker thread counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>

#include "apps/bfs/bfs.h"
#include "apps/kmeans/kmeans.h"
#include "runtime/comm_manager.h"
#include "runtime/data_loader.h"
#include "runtime/managed_array.h"
#include "runtime/program.h"
#include "sim/fault.h"
#include "sim/platform.h"

namespace accmg::runtime {
namespace {

class LoaderFixture : public ::testing::Test {
 protected:
  LoaderFixture()
      : platform_(sim::MakeSupercomputerNode(3)),
        loader_(*platform_, options_, {0, 1, 2}),
        comm_(*platform_, options_, {0, 1, 2}) {}

  ArrayRequirement ReplicaReq(ManagedArray& array, bool written = false) {
    ArrayRequirement req;
    req.array = &array;
    req.written = written;
    req.dirty_tracked = written;
    req.read_ranges.assign(3, Range{0, array.count()});
    req.own_ranges.assign(3, Range{0, array.count()});
    return req;
  }

  ArrayRequirement DistributeReq(ManagedArray& array,
                                 std::int64_t halo = 0) {
    ArrayRequirement req;
    req.array = &array;
    req.distributed = true;
    const std::int64_t n = array.count();
    for (int g = 0; g < 3; ++g) {
      const Range own{n * g / 3, n * (g + 1) / 3};
      Range read{own.lo - halo, own.hi + halo};
      read.lo = std::max<std::int64_t>(read.lo, 0);
      read.hi = std::min(read.hi, n);
      req.read_ranges.push_back(read);
      req.own_ranges.push_back(own);
    }
    return req;
  }

  ExecOptions options_;
  std::unique_ptr<sim::Platform> platform_;
  DataLoader loader_;
  CommManager comm_;
};

TEST_F(LoaderFixture, ReplicaPolicyCopiesEverywhere) {
  std::vector<float> host(300);
  std::iota(host.begin(), host.end(), 0.0f);
  ManagedArray array("a", ir::ValType::kF32, 300, host.data(), 3);

  loader_.EnsurePlacement(ReplicaReq(array));
  EXPECT_EQ(array.placement(), Placement::kReplicated);
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(array.shard(d).valid);
    EXPECT_EQ(array.shard(d).data->Typed<float>()[37], 37.0f);
  }
  EXPECT_EQ(array.UserBytes(), 3 * 300 * sizeof(float));
}

TEST_F(LoaderFixture, DistributionLoadsOnlySegments) {
  std::vector<float> host(300);
  std::iota(host.begin(), host.end(), 0.0f);
  ManagedArray array("a", ir::ValType::kF32, 300, host.data(), 3);

  loader_.EnsurePlacement(DistributeReq(array));
  EXPECT_EQ(array.placement(), Placement::kDistributed);
  EXPECT_EQ(array.UserBytes(), 300 * sizeof(float));  // no duplication
  // Device 1 holds [100, 200) and sees global values.
  EXPECT_EQ(array.shard(1).loaded, (Range{100, 200}));
  EXPECT_EQ(array.shard(1).data->Typed<float>()[0], 100.0f);
  EXPECT_EQ(array.OwnerOf(150), 1);
  EXPECT_EQ(array.OwnerOf(299), 2);
}

TEST_F(LoaderFixture, HaloWidensLoadedRanges) {
  std::vector<float> host(300, 1.0f);
  ManagedArray array("a", ir::ValType::kF32, 300, host.data(), 3);
  loader_.EnsurePlacement(DistributeReq(array, /*halo=*/2));
  EXPECT_EQ(array.shard(1).loaded, (Range{98, 202}));
  EXPECT_EQ(array.shard(1).owned, (Range{100, 200}));
  EXPECT_EQ(array.shard(0).loaded, (Range{0, 102}));
}

TEST_F(LoaderFixture, ReloadSkipCacheHitsOnRepeat) {
  std::vector<float> host(300, 1.0f);
  ManagedArray array("a", ir::ValType::kF32, 300, host.data(), 3);
  loader_.EnsurePlacement(DistributeReq(array));
  const auto loads_before = loader_.stats().loads_performed;
  loader_.EnsurePlacement(DistributeReq(array));
  loader_.EnsurePlacement(DistributeReq(array));
  EXPECT_EQ(loader_.stats().loads_performed, loads_before);
  EXPECT_EQ(loader_.stats().loads_skipped, 2u);
}

TEST_F(LoaderFixture, PlacementTransitionGathersFirst) {
  std::vector<std::int32_t> host(300);
  std::iota(host.begin(), host.end(), 0);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);

  loader_.EnsurePlacement(DistributeReq(array));
  // Mutate device 2's owned segment, as a kernel would.
  array.shard(2).data->Typed<std::int32_t>()[0] = -5;  // global index 200
  array.set_host_valid(false);

  // Switching to replication must preserve the device-side value.
  loader_.EnsurePlacement(ReplicaReq(array));
  EXPECT_EQ(array.shard(0).data->Typed<std::int32_t>()[200], -5);
  EXPECT_EQ(host[200], -5);  // the gather refreshed the host copy
}

TEST_F(LoaderFixture, GatherFromReplicaUsesAnyValidShard) {
  std::vector<float> host(64, 0.0f);
  ManagedArray array("a", ir::ValType::kF32, 64, host.data(), 3);
  loader_.EnsurePlacement(ReplicaReq(array));
  array.shard(1).data->Typed<float>()[5] = 9.0f;
  array.shard(0).valid = false;  // force the gather to look further
  array.shard(2).valid = false;
  array.set_host_valid(false);
  loader_.GatherToHost(array);
  EXPECT_EQ(host[5], 9.0f);
}

TEST_F(LoaderFixture, SystemBuffersFollowInstrumentation) {
  std::vector<std::int32_t> host(1000, 0);
  ManagedArray array("a", ir::ValType::kI32, 1000, host.data(), 3);
  ArrayRequirement req = ReplicaReq(array, /*written=*/true);
  loader_.EnsurePlacement(req);
  EXPECT_GT(array.SystemBytes(), 0u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_NE(array.shard(d).dirty1, nullptr);
    EXPECT_NE(array.shard(d).dirty2, nullptr);
  }
  // Dropping the instrumentation frees the buffers.
  req.dirty_tracked = false;
  req.written = false;
  loader_.EnsurePlacement(req);
  EXPECT_EQ(array.SystemBytes(), 0u);
}

TEST_F(LoaderFixture, DirtyPropagationMakesReplicasCoherent) {
  std::vector<std::int32_t> host(1000, 0);
  ManagedArray array("a", ir::ValType::kI32, 1000, host.data(), 3);
  loader_.EnsurePlacement(ReplicaReq(array, /*written=*/true));

  // Device 0 writes element 10, device 2 writes element 900; both mark
  // dirty bits as the instrumented kernel would.
  auto write = [&](int device, std::int64_t index, std::int32_t value) {
    DeviceShard& shard = array.shard(device);
    shard.data->Typed<std::int32_t>()[static_cast<std::size_t>(index)] = value;
    shard.dirty1->bytes()[static_cast<std::size_t>(index)] = std::byte{1};
    shard.dirty2->bytes()[static_cast<std::size_t>(index / shard.chunk_elems)] =
        std::byte{1};
  };
  write(0, 10, 111);
  write(2, 900, 222);

  comm_.PropagateReplicated(array);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(array.shard(d).data->Typed<std::int32_t>()[10], 111) << d;
    EXPECT_EQ(array.shard(d).data->Typed<std::int32_t>()[900], 222) << d;
  }
  // Dirty state cleared afterwards.
  for (int d = 0; d < 3; ++d) {
    for (std::byte b : array.shard(d).dirty1->bytes()) {
      EXPECT_EQ(b, std::byte{0});
    }
  }
  EXPECT_GT(comm_.stats().dirty_chunks_sent, 0u);
}

TEST_F(LoaderFixture, CleanChunksAreNeverTransferred) {
  // One small write in a large array: only one chunk should travel per peer.
  std::vector<std::int32_t> host(1 << 20, 0);
  ManagedArray array("a", ir::ValType::kI32, 1 << 20, host.data(), 3);
  loader_.EnsurePlacement(ReplicaReq(array, /*written=*/true));
  DeviceShard& shard = array.shard(0);
  shard.data->Typed<std::int32_t>()[77] = 1;
  shard.dirty1->bytes()[77] = std::byte{1};
  shard.dirty2->bytes()[77 / shard.chunk_elems] = std::byte{1};

  platform_->ResetAccounting();
  comm_.PropagateReplicated(array);
  EXPECT_EQ(comm_.stats().dirty_chunks_sent, 2u);  // one chunk x two peers
  EXPECT_GT(comm_.stats().clean_chunks_skipped, 0u);
  // Traffic is ~2 chunks, far below the full array size.
  EXPECT_LT(platform_->counters().p2p_bytes, std::size_t{3} << 20);
}

TEST_F(LoaderFixture, MissReplayDeliversToOwners) {
  std::vector<std::int32_t> host(300, 0);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);
  ArrayRequirement req = DistributeReq(array);
  req.miss_checked = true;
  req.written = true;
  loader_.EnsurePlacement(req);

  // Device 0 recorded writes destined for devices 1 and 2.
  array.shard(0).miss.records.push_back(ir::WriteMissRecord{150, 42});
  array.shard(0).miss.records.push_back(ir::WriteMissRecord{250, 43});
  comm_.ReplayWriteMisses(array);

  EXPECT_EQ(array.shard(1).data->Typed<std::int32_t>()[50], 42);   // 150-100
  EXPECT_EQ(array.shard(2).data->Typed<std::int32_t>()[50], 43);   // 250-200
  EXPECT_TRUE(array.shard(0).miss.records.empty());
  EXPECT_EQ(comm_.stats().miss_records_replayed, 2u);
}

TEST_F(LoaderFixture, HaloRefreshPullsFromOwners) {
  std::vector<std::int32_t> host(300);
  std::iota(host.begin(), host.end(), 0);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);
  loader_.EnsurePlacement(DistributeReq(array, /*halo=*/2));

  // The owner of element 100 (device 1, loaded range [98, 202)) updates it;
  // device 0 holds it as a stale halo element.
  array.shard(1).data->Typed<std::int32_t>()[2] = 77;  // global index 100
  comm_.RefreshHalos(array);
  // Device 0 loaded [0, 102): element 100 sits at local offset 100.
  EXPECT_EQ(array.shard(0).data->Typed<std::int32_t>()[100], 77);
  EXPECT_GT(comm_.stats().halo_refreshes, 0u);
}

TEST_F(LoaderFixture, ScatterFromHostRefreshesSegments) {
  std::vector<std::int32_t> host(300, 1);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);
  loader_.EnsurePlacement(DistributeReq(array));
  host[150] = 99;
  loader_.ScatterFromHost(array);
  EXPECT_EQ(array.shard(1).data->Typed<std::int32_t>()[50], 99);
}

TEST_F(LoaderFixture, DropDeviceStateFreesMemory) {
  std::vector<float> host(256, 0.0f);
  ManagedArray array("a", ir::ValType::kF32, 256, host.data(), 3);
  loader_.EnsurePlacement(ReplicaReq(array, true));
  const std::size_t used = platform_->device(0).used_bytes();
  EXPECT_GT(used, 0u);
  array.DropDeviceState();
  EXPECT_EQ(platform_->device(0).used_bytes(), 0u);
  EXPECT_EQ(array.placement(), Placement::kHostOnly);
}

// ---------------------------------------------------------------------------
// Device-set changes: shard release, gather ordering, reload-skip hygiene
// ---------------------------------------------------------------------------

TEST_F(LoaderFixture, ReplicaShrinkReleasesNonParticipatingShards) {
  std::vector<float> host(256, 1.0f);
  ManagedArray array("a", ir::ValType::kF32, 256, host.data(), 3);
  loader_.EnsurePlacement(ReplicaReq(array));
  const std::size_t baseline = platform_->device(2).used_bytes();
  EXPECT_GT(baseline, 0u);

  // A smaller device set takes over. All of its replicas are already valid,
  // so the reload-skip path fires — it must still free device 2's shard
  // (previously leaked, and a stale-but-valid replica hazard).
  DataLoader small(*platform_, options_, {0, 1});
  ArrayRequirement req;
  req.array = &array;
  req.read_ranges.assign(2, Range{0, 256});
  req.own_ranges.assign(2, Range{0, 256});
  small.EnsurePlacement(req);
  EXPECT_EQ(small.stats().loads_skipped, 1u);
  EXPECT_EQ(platform_->device(2).used_bytes(), 0u);
  EXPECT_FALSE(array.shard(2).valid);
  EXPECT_EQ(array.shard(2).data, nullptr);
}

TEST_F(LoaderFixture, ShrinkGathersFromDepartingShardFirst) {
  std::vector<std::int32_t> host(100, 0);
  ManagedArray array("a", ir::ValType::kI32, 100, host.data(), 3);
  DataLoader only2(*platform_, options_, {2});
  ArrayRequirement req2;
  req2.array = &array;
  req2.read_ranges.assign(1, Range{0, 100});
  req2.own_ranges.assign(1, Range{0, 100});
  only2.EnsurePlacement(req2);
  // A kernel on device 2 writes; the host copy goes stale.
  array.shard(2).data->Typed<std::int32_t>()[42] = 7;
  array.set_host_valid(false);

  // New loader on {0, 1}: device 2 holds the only valid copy, so the load
  // must gather it home before releasing the departing shard.
  DataLoader pair(*platform_, options_, {0, 1});
  ArrayRequirement req01;
  req01.array = &array;
  req01.read_ranges.assign(2, Range{0, 100});
  req01.own_ranges.assign(2, Range{0, 100});
  pair.EnsurePlacement(req01);
  EXPECT_EQ(host[42], 7);
  EXPECT_EQ(array.shard(0).data->Typed<std::int32_t>()[42], 7);
  EXPECT_EQ(array.shard(2).data, nullptr);
  EXPECT_EQ(platform_->device(2).used_bytes(), 0u);
}

TEST_F(LoaderFixture, DistributedReloadSkipRequiresStaleShardsInvalid) {
  std::vector<std::int32_t> host(300);
  std::iota(host.begin(), host.end(), 0);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);
  loader_.EnsurePlacement(DistributeReq(array));
  EXPECT_EQ(array.OwnerOf(250), 2);

  // Shrink to {0, 1} with ranges identical to what those devices already
  // hold. The per-device check alone would skip the reload and leave device
  // 2's stale shard claiming ownership of [200, 300).
  DataLoader pair(*platform_, options_, {0, 1});
  ArrayRequirement req;
  req.array = &array;
  req.distributed = true;
  req.read_ranges = {Range{0, 100}, Range{100, 200}};
  req.own_ranges = {Range{0, 100}, Range{100, 200}};
  pair.EnsurePlacement(req);
  EXPECT_FALSE(array.shard(2).valid);
  EXPECT_EQ(platform_->device(2).used_bytes(), 0u);
  EXPECT_EQ(array.OwnerOf(250), -1);  // no silent stale owner

  // Nothing stale remains, so the identical request is now a cache hit.
  const auto loads = pair.stats().loads_performed;
  pair.EnsurePlacement(req);
  EXPECT_EQ(pair.stats().loads_performed, loads);
  EXPECT_EQ(pair.stats().loads_skipped, 1u);

  // Re-grow to three devices: the full partition comes back correctly.
  loader_.EnsurePlacement(DistributeReq(array));
  EXPECT_EQ(array.OwnerOf(250), 2);
  EXPECT_EQ(array.shard(2).data->Typed<std::int32_t>()[50], 250);
}

TEST_F(LoaderFixture, DistReplicaDistRoundTripIsBitIdentical) {
  std::vector<float> host(300);
  for (int i = 0; i < 300; ++i) {
    host[static_cast<std::size_t>(i)] = 0.1f * static_cast<float>(i);
  }
  ManagedArray array("a", ir::ValType::kF32, 300, host.data(), 3);

  loader_.EnsurePlacement(DistributeReq(array));
  // Owners mutate their segments, as a kernel would.
  for (int d = 0; d < 3; ++d) {
    array.shard(d).data->Typed<float>()[10] = 1000.0f + static_cast<float>(d);
  }
  array.set_host_valid(false);
  loader_.GatherToHost(array);
  const std::vector<float> snapshot = host;

  // dist -> replica -> dist: every transition must preserve the exact bytes.
  loader_.EnsurePlacement(ReplicaReq(array));
  EXPECT_EQ(array.placement(), Placement::kReplicated);
  loader_.EnsurePlacement(DistributeReq(array, /*halo=*/1));
  EXPECT_EQ(array.placement(), Placement::kDistributed);
  const auto skipped = loader_.stats().loads_skipped;
  loader_.EnsurePlacement(DistributeReq(array, /*halo=*/1));
  EXPECT_EQ(loader_.stats().loads_skipped, skipped + 1);  // genuine cache hit

  array.set_host_valid(false);
  loader_.GatherToHost(array);
  EXPECT_EQ(std::memcmp(host.data(), snapshot.data(),
                        snapshot.size() * sizeof(float)),
            0);
  // Global element 110 (device 1's earlier write) at its new local offset.
  EXPECT_EQ(array.shard(1).data->Typed<float>()[11], 1001.0f);
}

// ---------------------------------------------------------------------------
// Halo refresh edge cases
// ---------------------------------------------------------------------------

TEST_F(LoaderFixture, HaloRefreshHandlesEmptyOwnedShard) {
  std::vector<std::int32_t> host(300);
  std::iota(host.begin(), host.end(), 0);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);
  // Device 1 participates with a loaded window but owns nothing: its whole
  // residency is halo, fed by two different owners.
  ArrayRequirement req;
  req.array = &array;
  req.distributed = true;
  req.read_ranges = {Range{0, 150}, Range{100, 200}, Range{150, 300}};
  req.own_ranges = {Range{0, 150}, Range{150, 150}, Range{150, 300}};
  loader_.EnsurePlacement(req);

  array.shard(0).data->Typed<std::int32_t>()[120] = -120;  // global 120
  array.shard(2).data->Typed<std::int32_t>()[30] = -180;   // global 180
  comm_.RefreshHalos(array);
  // Device 1 loaded [100, 200): both pieces must arrive from their owners.
  EXPECT_EQ(array.shard(1).data->Typed<std::int32_t>()[20], -120);
  EXPECT_EQ(array.shard(1).data->Typed<std::int32_t>()[80], -180);
}

TEST_F(LoaderFixture, HaloRefreshRejectsStaleOwnerShard) {
  std::vector<std::int32_t> host(300, 0);
  ManagedArray array("a", ir::ValType::kI32, 300, host.data(), 3);
  loader_.EnsurePlacement(DistributeReq(array, /*halo=*/2));
  // Device 1 owns [100, 200) but its shard is stale: refreshing device 0's
  // halo from it would spread garbage silently.
  array.shard(1).valid = false;
  EXPECT_THROW(comm_.RefreshHalos(array), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Host interpreter semantics (through the public ProgramRunner)
// ---------------------------------------------------------------------------

TEST(HostInterpTest, HostControlFlowRuns) {
  constexpr char kSource[] = R"(
void collatz(int start, int steps) {
  int x = start;
  int count = 0;
  while (x != 1) {
    if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
    count++;
  }
  steps = count;
}
)";
  auto platform = sim::MakeDesktopMachine(1);
  const AccProgram program = AccProgram::FromSource("collatz", kSource);
  ProgramRunner runner(program, RunConfig{.platform = platform.get()});
  runner.BindScalar("start", static_cast<std::int64_t>(27));
  runner.BindScalar("steps", static_cast<std::int64_t>(0));
  runner.Run("collatz");
  EXPECT_EQ(runner.ScalarAfterRun("steps").AsInt(), 111);
}

TEST(HostInterpTest, HostArrayAccessAutoSyncs) {
  // The host reads a device-written array between kernels without an update
  // directive; the runtime must gather transparently.
  constexpr char kSource[] = R"(
void f(int n, int* a, int total) {
  #pragma acc data copy(a[0:n])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      a[i] = i * 2;
    }
    int sum = 0;
    for (int i = 0; i < n; i++) {
      sum += a[i];
    }
    total = sum;
  }
}
)";
  auto platform = sim::MakeDesktopMachine(2);
  const AccProgram program = AccProgram::FromSource("f", kSource);
  std::vector<std::int32_t> a(100, -1);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 2});
  runner.BindArray("a", a.data(), ir::ValType::kI32, 100);
  runner.BindScalar("n", static_cast<std::int64_t>(100));
  runner.BindScalar("total", static_cast<std::int64_t>(0));
  runner.Run("f");
  EXPECT_EQ(runner.ScalarAfterRun("total").AsInt(), 99 * 100);
}

TEST(HostInterpTest, HostWritesInvalidateDeviceCopies) {
  // Host rewrites the input between two kernels; the second kernel must see
  // the new values.
  constexpr char kSource[] = R"(
void f(int n, int* a, int* b) {
  #pragma acc data copy(a[0:n], b[0:n])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      b[i] = a[i];
    }
    for (int i = 0; i < n; i++) {
      a[i] = 100 + i;
    }
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      b[i] = b[i] + a[i];
    }
  }
}
)";
  auto platform = sim::MakeDesktopMachine(2);
  const AccProgram program = AccProgram::FromSource("f", kSource);
  std::vector<std::int32_t> a(50), b(50, 0);
  std::iota(a.begin(), a.end(), 0);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 2});
  runner.BindArray("a", a.data(), ir::ValType::kI32, 50);
  runner.BindArray("b", b.data(), ir::ValType::kI32, 50);
  runner.BindScalar("n", static_cast<std::int64_t>(50));
  runner.Run("f");
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(b[static_cast<std::size_t>(i)], i + 100 + i) << i;
  }
}

TEST(HostInterpTest, CopyinDoesNotWriteBack) {
  constexpr char kSource[] = R"(
void f(int n, int* in, int* out) {
  #pragma acc data copyin(in[0:n]) copyout(out[0:n])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      out[i] = in[i] + 1;
      in[i] = -999;
    }
  }
}
)";
  auto platform = sim::MakeDesktopMachine(2);
  const AccProgram program = AccProgram::FromSource("f", kSource);
  std::vector<std::int32_t> in(20, 5), out(20, 0);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 2});
  runner.BindArray("in", in.data(), ir::ValType::kI32, 20);
  runner.BindArray("out", out.data(), ir::ValType::kI32, 20);
  runner.BindScalar("n", static_cast<std::int64_t>(20));
  runner.Run("f");
  EXPECT_EQ(out[7], 6);
  EXPECT_EQ(in[7], 5);  // device-side mutation never copied back
}

TEST(HostInterpTest, ImplicitDataRegionForUnmanagedArrays) {
  // No data directive at all: the runtime creates a per-region lifetime.
  constexpr char kSource[] = R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    a[i] = 3.0f;
  }
}
)";
  auto platform = sim::MakeDesktopMachine(2);
  const AccProgram program = AccProgram::FromSource("f", kSource);
  std::vector<float> a(40, 0.0f);
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 2});
  runner.BindArray("a", a.data(), ir::ValType::kF32, 40);
  runner.BindScalar("n", static_cast<std::int64_t>(40));
  runner.Run("f");
  EXPECT_EQ(a[39], 3.0f);
  // The implicit region ended: all device memory is released.
  EXPECT_EQ(platform->device(0).used_bytes(), 0u);
}

TEST(HostInterpTest, UpdateDirectivesMoveData) {
  constexpr char kSource[] = R"(
void f(int n, int* a, int probe) {
  #pragma acc data copy(a[0:n])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      a[i] = 7;
    }
    #pragma acc update host(a)
    ;
    probe = a[0];
  }
}
)";
  auto platform = sim::MakeDesktopMachine(1);
  const AccProgram program = AccProgram::FromSource("f", kSource);
  std::vector<std::int32_t> a(10, 0);
  ProgramRunner runner(program, RunConfig{.platform = platform.get()});
  runner.BindArray("a", a.data(), ir::ValType::kI32, 10);
  runner.BindScalar("n", static_cast<std::int64_t>(10));
  runner.BindScalar("probe", static_cast<std::int64_t>(0));
  runner.Run("f");
  EXPECT_EQ(runner.ScalarAfterRun("probe").AsInt(), 7);
}

TEST(HostInterpTest, MissingBindingIsAnError) {
  constexpr char kSource[] = R"(
void f(int n, float* a) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 0.0f; }
}
)";
  auto platform = sim::MakeDesktopMachine(1);
  const AccProgram program = AccProgram::FromSource("f", kSource);
  ProgramRunner runner(program, RunConfig{.platform = platform.get()});
  runner.BindScalar("n", static_cast<std::int64_t>(4));
  EXPECT_THROW(runner.Run("f"), InvalidArgumentError);
}

TEST(HostInterpTest, UnknownFunctionIsAnError) {
  auto platform = sim::MakeDesktopMachine(1);
  const AccProgram program =
      AccProgram::FromSource("f", "void f(int n) { }");
  ProgramRunner runner(program, RunConfig{.platform = platform.get()});
  EXPECT_THROW(runner.Run("nope"), InvalidArgumentError);
}

TEST(HostInterpTest, TooManyGpusRejected) {
  auto platform = sim::MakeDesktopMachine(2);
  const AccProgram program =
      AccProgram::FromSource("f", "void f(int n) { }");
  ProgramRunner runner(program, RunConfig{.platform = platform.get(),
                                          .num_gpus = 5});
  runner.BindScalar("n", static_cast<std::int64_t>(1));
  EXPECT_THROW(runner.Run("f"), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Small-N sweeps: N < num_gpus leaves some devices with empty iteration
// ranges and empty owned segments. The boundary math clamps monotonically;
// these pin the downstream kernel-launch, halo, write-miss, and reduction
// paths against the empty-range cases, in both executor modes, with the
// validator as the oracle.
// ---------------------------------------------------------------------------

class SmallNSweep : public ::testing::TestWithParam<bool> {};

TEST_P(SmallNSweep, HaloStencilHandlesEmptyDeviceRanges) {
  constexpr char kSource[] = R"(
void f(int n, double* u, double* unew) {
  #pragma acc data copy(u[0:n]) create(unew[0:n])
  {
    #pragma acc localaccess(u: stride(1), left(1), right(1)) \
                (unew: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      int l = i - 1;
      int r = i + 1;
      if (l < 0) { l = 0; }
      if (r >= n) { r = n - 1; }
      unew[i] = u[i] + 0.5 * (u[l] - 2.0 * u[i] + u[r]);
    }
    #pragma acc localaccess(u: stride(1)) (unew: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) { u[i] = unew[i]; }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("f", kSource);
  for (const int n : {1, 2, 3, 5}) {
    for (const int gpus : {2, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " gpus=" +
                   std::to_string(gpus));
      auto platform = sim::MakeSupercomputerNode(4);
      std::vector<double> u(static_cast<std::size_t>(n));
      std::vector<double> unew(static_cast<std::size_t>(n), 0.0);
      for (int i = 0; i < n; ++i) u[static_cast<std::size_t>(i)] = i + 1;
      RunConfig config{.platform = platform.get(), .num_gpus = gpus};
      config.options.async_pipeline = GetParam();
      config.options.validate = true;
      ProgramRunner runner(program, config);
      runner.BindArray("u", u.data(), ir::ValType::kF64, n);
      runner.BindArray("unew", unew.data(), ir::ValType::kF64, n);
      runner.BindScalar("n", static_cast<std::int64_t>(n));
      const RunReport report = runner.Run("f");
      EXPECT_EQ(report.validator.divergences, 0u);
      EXPECT_GT(report.validator.kernels_checked, 0u);
    }
  }
}

TEST_P(SmallNSweep, WriteMissScatterHandlesEmptyDeviceRanges) {
  constexpr char kSource[] = R"(
void s(int n, int* perm, int* src, int* dst) {
  #pragma acc data copyin(perm[0:n], src[0:n]) copy(dst[0:n])
  {
    #pragma acc localaccess(src: stride(1)) (dst: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) { dst[perm[i]] = src[i] * 3; }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("s", kSource);
  for (const int n : {1, 2, 3}) {
    for (const int gpus : {2, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " gpus=" +
                   std::to_string(gpus));
      auto platform = sim::MakeSupercomputerNode(4);
      std::vector<std::int32_t> perm(static_cast<std::size_t>(n));
      std::vector<std::int32_t> src(static_cast<std::size_t>(n));
      std::vector<std::int32_t> dst(static_cast<std::size_t>(n), -1);
      for (int i = 0; i < n; ++i) {
        perm[static_cast<std::size_t>(i)] = n - 1 - i;  // reversal: all miss
        src[static_cast<std::size_t>(i)] = i;
      }
      RunConfig config{.platform = platform.get(), .num_gpus = gpus};
      config.options.async_pipeline = GetParam();
      config.options.validate = true;
      ProgramRunner runner(program, config);
      runner.BindArray("perm", perm.data(), ir::ValType::kI32, n);
      runner.BindArray("src", src.data(), ir::ValType::kI32, n);
      runner.BindArray("dst", dst.data(), ir::ValType::kI32, n);
      runner.BindScalar("n", static_cast<std::int64_t>(n));
      const RunReport report = runner.Run("s");
      EXPECT_EQ(report.validator.divergences, 0u);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(dst[static_cast<std::size_t>(n - 1 - i)], i * 3);
      }
    }
  }
}

TEST_P(SmallNSweep, ReductionsHandleEmptyDeviceRanges) {
  constexpr char kSource[] = R"(
void r(int n, int k, int* bins, int* hist, int* total) {
  int s = 0;
  #pragma acc data copyin(bins[0:n]) copy(hist[0:k]) copyout(total[0:1])
  {
    #pragma acc parallel loop reduction(+:s)
    for (int i = 0; i < n; i++) {
      int c = bins[i];
      #pragma acc reductiontoarray(+: hist[0:k])
      hist[c] += 1;
      s = s + 1;
    }
  }
  total[0] = s;
}
)";
  const AccProgram program = AccProgram::FromSource("r", kSource);
  struct Case {
    int n;
    int k;
  };
  for (const Case c : {Case{1, 4}, Case{2, 1}, Case{3, 2}}) {
    for (const int gpus : {2, 4}) {
      SCOPED_TRACE("n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
                   " gpus=" + std::to_string(gpus));
      auto platform = sim::MakeSupercomputerNode(4);
      std::vector<std::int32_t> bins(static_cast<std::size_t>(c.n));
      std::vector<std::int32_t> hist(static_cast<std::size_t>(c.k), 0);
      std::vector<std::int32_t> want(static_cast<std::size_t>(c.k), 0);
      std::vector<std::int32_t> total(1, -1);
      for (int i = 0; i < c.n; ++i) {
        bins[static_cast<std::size_t>(i)] = i % c.k;
        ++want[static_cast<std::size_t>(i % c.k)];
      }
      RunConfig config{.platform = platform.get(), .num_gpus = gpus};
      config.options.async_pipeline = GetParam();
      config.options.validate = true;
      ProgramRunner runner(program, config);
      runner.BindArray("bins", bins.data(), ir::ValType::kI32, c.n);
      runner.BindArray("hist", hist.data(), ir::ValType::kI32, c.k);
      runner.BindArray("total", total.data(), ir::ValType::kI32, 1);
      runner.BindScalar("n", static_cast<std::int64_t>(c.n));
      runner.BindScalar("k", static_cast<std::int64_t>(c.k));
      const RunReport report = runner.Run("r");
      EXPECT_EQ(report.validator.divergences, 0u);
      EXPECT_EQ(hist, want);
      EXPECT_EQ(total[0], c.n);
    }
  }
}

TEST_P(SmallNSweep, ZeroIterationLoopLeavesArraysIntact) {
  constexpr char kSource[] = R"(
void z(int n, int m, double* u) {
  #pragma acc data copy(u[0:n])
  {
    #pragma acc localaccess(u: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < m; i++) { u[i] = u[i] + 1.0; }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("z", kSource);
  for (const int m : {0, 1}) {
    for (const int gpus : {2, 4}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " gpus=" +
                   std::to_string(gpus));
      const int n = 8;
      auto platform = sim::MakeSupercomputerNode(4);
      std::vector<double> u(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) u[static_cast<std::size_t>(i)] = i;
      RunConfig config{.platform = platform.get(), .num_gpus = gpus};
      config.options.async_pipeline = GetParam();
      config.options.validate = true;
      ProgramRunner runner(program, config);
      runner.BindArray("u", u.data(), ir::ValType::kF64, n);
      runner.BindScalar("n", static_cast<std::int64_t>(n));
      runner.BindScalar("m", static_cast<std::int64_t>(m));
      const RunReport report = runner.Run("z");
      EXPECT_EQ(report.validator.divergences, 0u);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(u[static_cast<std::size_t>(i)],
                  i + (i < m ? 1.0 : 0.0));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SyncAndAsync, SmallNSweep, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "AsyncPipeline"
                                             : "Synchronous";
                         });

// ---------------------------------------------------------------------------
// 2-D row-block distribution (localaccess cols + 2-D data sections)
// ---------------------------------------------------------------------------

// Integer two-sweep row stencil: v gets the 3-row vertical sum (rows
// clamped at the grid edges), then u absorbs v with a divide so values stay
// bounded. Integer arithmetic makes the host reference comparison exact.
constexpr char kGrid2dSource[] = R"(
void g(int n, int m, int steps, int* u, int* v) {
  #pragma acc data copy(u[0:n][0:m]) create(v[0:n][0:m])
  {
    for (int t = 0; t < steps; t++) {
      #pragma acc localaccess(u: cols(m), left(1), right(1)) (v: cols(m))
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
          int im = i - 1;
          if (im < 0) { im = 0; }
          int ip = i + 1;
          if (ip > n - 1) { ip = n - 1; }
          v[i * m + j] = u[im * m + j] + u[i * m + j] + u[ip * m + j];
        }
      }
      #pragma acc localaccess(u: cols(m)) (v: cols(m))
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
          u[i * m + j] = v[i * m + j] - v[i * m + j] / 3;
        }
      }
    }
  }
})";

std::vector<std::int32_t> Grid2dReference(std::vector<std::int32_t> u, int n,
                                          int m, int steps) {
  std::vector<std::int32_t> v(u.size());
  for (int t = 0; t < steps; ++t) {
    for (int i = 0; i < n; ++i) {
      const int im = i > 0 ? i - 1 : 0;
      const int ip = i < n - 1 ? i + 1 : n - 1;
      for (int j = 0; j < m; ++j) {
        v[static_cast<std::size_t>(i * m + j)] =
            u[static_cast<std::size_t>(im * m + j)] +
            u[static_cast<std::size_t>(i * m + j)] +
            u[static_cast<std::size_t>(ip * m + j)];
      }
    }
    for (std::size_t k = 0; k < u.size(); ++k) u[k] = v[k] - v[k] / 3;
  }
  return u;
}

std::vector<std::int32_t> RunGrid2d(sim::Platform& platform, int gpus, int n,
                                    int m, int steps,
                                    const ExecOptions& options) {
  std::vector<std::int32_t> u(static_cast<std::size_t>(n * m));
  for (std::size_t k = 0; k < u.size(); ++k) {
    u[k] = static_cast<std::int32_t>((k * 37 + 11) % 101);
  }
  std::vector<std::int32_t> v(u.size(), 0);
  const auto program = AccProgram::FromSource("g", kGrid2dSource);
  RunConfig config{.platform = &platform, .num_gpus = gpus};
  config.options = options;
  ProgramRunner runner(program, config);
  runner.BindArray("u", u.data(), ir::ValType::kI32,
                   static_cast<std::int64_t>(u.size()));
  runner.BindArray("v", v.data(), ir::ValType::kI32,
                   static_cast<std::int64_t>(v.size()));
  runner.BindScalar("n", static_cast<std::int64_t>(n));
  runner.BindScalar("m", static_cast<std::int64_t>(m));
  runner.BindScalar("steps", static_cast<std::int64_t>(steps));
  runner.Run("g");
  return u;
}

std::vector<std::int32_t> Grid2dSeed(int n, int m) {
  std::vector<std::int32_t> u(static_cast<std::size_t>(n * m));
  for (std::size_t k = 0; k < u.size(); ++k) {
    u[k] = static_cast<std::int32_t>((k * 37 + 11) % 101);
  }
  return u;
}

TEST(TwoDRowBlockTest, MatchesHostReferenceAcrossGpuCounts) {
  const auto expected = Grid2dReference(Grid2dSeed(13, 7), 13, 7, 3);
  for (const int gpus : {1, 2, 3}) {
    auto platform = sim::MakeSupercomputerNode(3);
    ExecOptions options;
    options.validate = true;
    EXPECT_EQ(RunGrid2d(*platform, gpus, 13, 7, 3, options), expected)
        << "gpus=" << gpus;
  }
}

TEST(TwoDRowBlockTest, EmptyRowBlocksWhenRowsFewerThanGpus) {
  // 2 rows across 3 devices: device 2 owns zero rows, and the halo
  // machinery must ride through the empty shard (validator on).
  auto platform = sim::MakeSupercomputerNode(3);
  ExecOptions options;
  options.validate = true;
  EXPECT_EQ(RunGrid2d(*platform, 3, 2, 5, 2, options),
            Grid2dReference(Grid2dSeed(2, 5), 2, 5, 2));
}

TEST(TwoDRowBlockTest, SingleRowPerDeviceHalos) {
  // 3 rows on 3 devices: every owned block is exactly one row, so each
  // halo refresh copies a whole neighbouring shard.
  auto platform = sim::MakeSupercomputerNode(3);
  ExecOptions options;
  options.validate = true;
  EXPECT_EQ(RunGrid2d(*platform, 3, 3, 4, 3, options),
            Grid2dReference(Grid2dSeed(3, 4), 3, 4, 3));
}

TEST(TwoDRowBlockTest, AsyncPipelineMatchesSynchronous) {
  std::vector<std::int32_t> results[2];
  for (const bool async : {false, true}) {
    auto platform = sim::MakeSupercomputerNode(3);
    ExecOptions options;
    options.async_pipeline = async;
    options.validate = async;
    results[async ? 1 : 0] = RunGrid2d(*platform, 3, 12, 6, 3, options);
  }
  EXPECT_EQ(results[0], results[1]);
}

// Regression (equal-division remainder under recovery): 7 iterations on 3
// GPUs, one permanent device death mid-job. The shrink repartitions 7 rows
// over 2 survivors (7 % 2 != 0); the restored host image must split
// remainder-correctly and the validator must stay clean.
TEST(TwoDRowBlockTest, ShrinkRepartitionsRemainderAfterDeviceDeath) {
  auto platform = sim::MakeSupercomputerNode(3);
  platform->ArmFaults(sim::FaultPlan::Parse("seed=7,death=0.05,max-deaths=1"));
  ExecOptions options;
  options.validate = true;
  const auto got = RunGrid2d(*platform, 3, 7, 5, 4, options);
  EXPECT_GT(platform->faults().deaths(), 0) << "the plan never killed a "
                                               "device — regression vacuous";
  EXPECT_EQ(got, Grid2dReference(Grid2dSeed(7, 5), 7, 5, 4));
}

// --- Host independence: a result depends on the program, the inputs, the
// device count and the options, never on the host's worker thread count or
// on thread scheduling. Each case runs at 1, 2, 4 and 8 worker threads (8
// twice) and must reproduce the first run's output bytes, billed transfers
// and simulated time (which is a function of every launch's KernelStats). ---

/// What one run produced.
struct HostRun {
  std::vector<std::byte> output;
  RunReport report;
};

template <typename T>
void AppendBytes(std::vector<std::byte>& out, const std::vector<T>& values) {
  const auto* bytes = reinterpret_cast<const std::byte*>(values.data());
  out.insert(out.end(), bytes, bytes + values.size() * sizeof(T));
}

/// Runs `run` on supercomputer nodes of `gpus` GPUs at every worker count
/// and compares each run with the first. `sim_exact` is false for a kernel
/// with racing reads (bfs), whose instruction count follows the race.
void ExpectHostIndependent(
    const std::function<HostRun(sim::Platform&, int gpus)>& run,
    std::initializer_list<int> gpu_counts, bool sim_exact = true) {
  for (const int gpus : gpu_counts) {
    std::optional<HostRun> first;
    for (const std::size_t workers : {1, 2, 4, 8, 8}) {
      SCOPED_TRACE("gpus=" + std::to_string(gpus) +
                   " workers=" + std::to_string(workers));
      sim::Platform platform(
          std::vector<sim::DeviceSpec>(static_cast<std::size_t>(gpus),
                                       sim::TeslaM2050()),
          sim::SupercomputerTopology(gpus), sim::DualXeonNode(), workers);
      HostRun got = run(platform, gpus);
      if (!first) {
        first = std::move(got);
        continue;
      }
      EXPECT_TRUE(got.output == first->output) << "output bytes differ";
      EXPECT_EQ(got.report.counters, first->report.counters);
      if (sim_exact) {
        EXPECT_EQ(got.report.time.seconds, first->report.time.seconds);
        EXPECT_EQ(got.report.total_seconds, first->report.total_seconds);
      }
    }
  }
}

// The float-reduction cases run once more with the validator on: its golden
// run shares the platform's worker pool, and its bit-exact comparison must
// hold at every worker count.
TEST(HostIndependenceTest, KmeansFloatArrayReductions) {
  const apps::KmeansInput input = apps::MakeKmeansInput(1024, 34, 5, 3, 7);
  for (const bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validated" : "not validated");
    ExpectHostIndependent(
        [&](sim::Platform& platform, int gpus) {
          ExecOptions options;
          options.validate = validate;
          apps::KmeansResult result;
          HostRun run;
          run.report =
              apps::RunKmeansAcc(input, platform, gpus, &result, options);
          EXPECT_EQ(run.report.validator.kernels_checked > 0, validate);
          AppendBytes(run.output, result.centroids);
          AppendBytes(run.output, result.membership);
          return run;
        },
        {1, 2, 3});
  }
}

TEST(HostIndependenceTest, FloatScalarSum) {
  constexpr char kSource[] = R"(
void fsum(int n, float* a, float* out) {
  float s = 0.0f;
  #pragma acc data copyin(a[0:n]) copyout(out[0:1])
  {
    #pragma acc parallel loop reduction(+:s)
    for (int i = 0; i < n; i++) { s = s + a[i]; }
  }
  out[0] = s;
}
)";
  const AccProgram program = AccProgram::FromSource("fsum", kSource);
  constexpr int kN = 10000;
  // Magnitudes far apart, so every change of summation order rounds
  // differently.
  std::vector<float> a(kN);
  for (int i = 0; i < kN; ++i) {
    a[static_cast<std::size_t>(i)] =
        static_cast<float>(i * 7919 % 1000) * 0.37f + (i % 13 == 0 ? 1e4f : 0);
  }
  for (const bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validated" : "not validated");
    ExpectHostIndependent(
        [&](sim::Platform& platform, int gpus) {
          std::vector<float> out(1, 0);
          RunConfig config{.platform = &platform, .num_gpus = gpus};
          config.options.validate = validate;
          ProgramRunner runner(program, config);
          runner.BindArray("a", a.data(), ir::ValType::kF32, kN);
          runner.BindArray("out", out.data(), ir::ValType::kF32, 1);
          runner.BindScalar("n", static_cast<std::int64_t>(kN));
          HostRun run;
          run.report = runner.Run("fsum");
          EXPECT_EQ(run.report.validator.kernels_checked, validate ? 1u : 0u);
          AppendBytes(run.output, out);
          return run;
        },
        {1, 2, 3});
  }
}

TEST(HostIndependenceTest, Bfs) {
  const apps::BfsInput input = apps::MakeBfsInput(4000, 16, 11);
  ExpectHostIndependent(
      [&](sim::Platform& platform, int gpus) {
        std::vector<std::int32_t> cost;
        HostRun run;
        run.report = apps::RunBfsAcc(input, platform, gpus, &cost);
        AppendBytes(run.output, cost);
        return run;
      },
      {1, 2, 3}, /*sim_exact=*/false);
}

// Every duplicate destination lies in the last eighth of dst and is written
// only by iterations of the first half, which no device that owns that
// eighth runs on 2 or 3 GPUs: all its writes arrive as write misses, and the
// replay order alone picks the survivor. (On 1 GPU every write is a direct
// store, and duplicates from different chunks would race.)
TEST(HostIndependenceTest, DuplicateDestinationScatterReplaysInOrder) {
  constexpr char kSource[] = R"(
void scatter(int n, int* perm, float* src, float* dst) {
  #pragma acc data copyin(perm[0:n], src[0:n]) copy(dst[0:n])
  {
    #pragma acc localaccess(perm: stride(1)) (src: stride(1)) (dst: stride(1))
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) { dst[perm[i]] = src[i]; }
  }
}
)";
  const AccProgram program = AccProgram::FromSource("scatter", kSource);
  constexpr int kN = 4096;
  std::vector<std::int32_t> perm(kN);
  std::vector<float> src(kN);
  for (int i = 0; i < kN; ++i) {
    perm[static_cast<std::size_t>(i)] =
        i < kN / 2 ? kN - 1 - i % (kN / 8) : i - kN / 2;
    src[static_cast<std::size_t>(i)] = static_cast<float>(i);
  }
  ExpectHostIndependent(
      [&](sim::Platform& platform, int gpus) {
        std::vector<float> dst(kN, -1);
        ProgramRunner runner(program,
                             RunConfig{.platform = &platform, .num_gpus = gpus});
        runner.BindArray("perm", perm.data(), ir::ValType::kI32, kN);
        runner.BindArray("src", src.data(), ir::ValType::kF32, kN);
        runner.BindArray("dst", dst.data(), ir::ValType::kF32, kN);
        runner.BindScalar("n", static_cast<std::int64_t>(kN));
        HostRun run;
        run.report = runner.Run("scatter");
        EXPECT_EQ(run.report.comm.miss_records_replayed,
                  static_cast<std::uint64_t>(kN));
        AppendBytes(run.output, dst);
        return run;
      },
      {2, 3});
}

}  // namespace
}  // namespace accmg::runtime
