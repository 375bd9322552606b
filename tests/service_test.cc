// Tests for the resident service layer (src/service/): program-cache key
// correctness and LRU behaviour, admission/fairness/batching of the job
// queue, device-arena leasing, per-job billing exactness on a shared
// platform, and per-job trace export.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <list>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "runtime/program.h"
#include "service/arena.h"
#include "service/builtin_apps.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "service/service.h"
#include "sim/platform.h"

namespace accmg::service {
namespace {

// A minimal valid program; `salt` varies the text (and thus the key)
// without changing semantics.
std::string TinySource(const std::string& salt = "") {
  std::string source =
      "void f(int n, float* a) {\n"
      "  #pragma acc data copy(a[0:n])\n"
      "  {\n"
      "    #pragma acc localaccess(a: stride(1))\n"
      "    #pragma acc parallel loop\n"
      "    for (int i = 0; i < n; i++) {\n"
      "      a[i] = a[i] + 1.0f;\n"
      "    }\n"
      "  }\n"
      "}\n";
  if (!salt.empty()) source += "// " + salt + "\n";
  return source;
}

// ---------------------------------------------------------------- cache --

TEST(ProgramCacheTest, ByteIdenticalResubmitHits) {
  ProgramCache cache(8);
  bool hit = true;
  auto first = cache.GetOrCompile("f", TinySource(), {}, &hit);
  EXPECT_FALSE(hit);
  auto second = cache.GetOrCompile("f", TinySource(), {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // same compiled object
  EXPECT_EQ(cache.compiles(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ProgramCacheTest, DifferentCompileOptionsMiss) {
  ProgramCache cache(8);
  translator::CompileOptions checked;
  translator::CompileOptions unchecked;
  unchecked.check_directives = false;
  EXPECT_NE(ProgramCache::KeyFor(TinySource(), checked),
            ProgramCache::KeyFor(TinySource(), unchecked));
  cache.GetOrCompile("f", TinySource(), checked);
  bool hit = true;
  cache.GetOrCompile("f", TinySource(), unchecked, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.compiles(), 2u);
}

TEST(ProgramCacheTest, WhitespaceChangeIsADifferentKey) {
  // Keys are content hashes, not normalized text: any byte difference —
  // even trailing whitespace — is a different program to the cache.
  const std::string source = TinySource();
  EXPECT_NE(ProgramCache::KeyFor(source, {}),
            ProgramCache::KeyFor(source + " ", {}));
  EXPECT_NE(ProgramCache::KeyFor(source, {}),
            ProgramCache::KeyFor("\n" + source, {}));
  EXPECT_EQ(ProgramCache::KeyFor(source, {}),
            ProgramCache::KeyFor(TinySource(), {}));
}

TEST(ProgramCacheTest, NameIsNotPartOfTheKey) {
  ProgramCache cache(8);
  cache.GetOrCompile("alpha", TinySource(), {});
  bool hit = false;
  cache.GetOrCompile("beta", TinySource(), {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.compiles(), 1u);
}

TEST(ProgramCacheTest, EvictionKeepsLruInvariants) {
  // Single shard so the model below tracks the exact global LRU order.
  constexpr std::size_t kCapacity = 6;
  ProgramCache cache(kCapacity, /*shards=*/1);

  std::mt19937 rng(12345);
  std::list<std::string> model;  // front = most recently used
  const int kDistinct = 14;
  std::vector<std::string> salts;
  for (int i = 0; i < kDistinct; ++i) {
    salts.push_back("salt-" + std::to_string(i));
  }

  for (int step = 0; step < 120; ++step) {
    const std::string& salt =
        salts[rng() % static_cast<std::size_t>(kDistinct)];
    const bool expect_hit =
        std::find(model.begin(), model.end(), salt) != model.end();
    bool hit = false;
    cache.GetOrCompile("f", TinySource(salt), {}, &hit);
    ASSERT_EQ(hit, expect_hit) << "step " << step << " salt " << salt;

    model.remove(salt);
    model.push_front(salt);
    if (model.size() > kCapacity) model.pop_back();  // LRU eviction
    ASSERT_LE(cache.size(), kCapacity);
    ASSERT_EQ(cache.size(), model.size());
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.misses(), cache.compiles());
}

// ---------------------------------------------------------------- queue --

QueuedJob MakeQueued(int id, const std::string& tenant,
                     const std::string& key) {
  QueuedJob job;
  job.id = id;
  job.program_key = key;
  job.request.tenant = tenant;
  return job;
}

TEST(JobQueueTest, AdmissionRejectsWhenFull) {
  JobQueue queue(2);
  EXPECT_TRUE(queue.Push(MakeQueued(0, "a", "k0")));
  EXPECT_TRUE(queue.Push(MakeQueued(1, "a", "k1")));
  EXPECT_FALSE(queue.Push(MakeQueued(2, "a", "k2")));
  EXPECT_EQ(queue.rejects(), 1u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(JobQueueTest, TenantsServedRoundRobin) {
  JobQueue queue(16);
  // Tenant "a" floods first; "b" submits one job afterwards.
  queue.Push(MakeQueued(0, "a", "k0"));
  queue.Push(MakeQueued(1, "a", "k1"));
  queue.Push(MakeQueued(2, "a", "k2"));
  queue.Push(MakeQueued(3, "b", "k3"));

  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    const std::vector<QueuedJob> batch = queue.PopBatch(1);
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch[0].id);
  }
  // b's job jumps ahead of a's backlog: a, b, a, a.
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(JobQueueTest, BatchesSameProgramAcrossTenants) {
  JobQueue queue(16);
  queue.Push(MakeQueued(0, "a", "shared"));
  queue.Push(MakeQueued(1, "a", "other"));
  queue.Push(MakeQueued(2, "b", "shared"));
  queue.Push(MakeQueued(3, "c", "shared"));

  std::vector<QueuedJob> batch = queue.PopBatch(8);
  ASSERT_EQ(batch.size(), 3u);
  for (const QueuedJob& job : batch) EXPECT_EQ(job.program_key, "shared");
  EXPECT_EQ(batch[0].id, 0);  // the fair pick leads the batch

  batch = queue.PopBatch(8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(JobQueueTest, MaxBatchCapsTheBatch) {
  JobQueue queue(16);
  for (int i = 0; i < 5; ++i) queue.Push(MakeQueued(i, "a", "k"));
  EXPECT_EQ(queue.PopBatch(2).size(), 2u);
  EXPECT_EQ(queue.PopBatch(8).size(), 3u);
}

TEST(JobQueueTest, StopDrainsThenReturnsEmpty) {
  JobQueue queue(4);
  queue.Push(MakeQueued(0, "a", "k"));
  queue.Stop();
  EXPECT_FALSE(queue.Push(MakeQueued(1, "a", "k")));
  EXPECT_EQ(queue.PopBatch(8).size(), 1u);  // queued work still drains
  EXPECT_TRUE(queue.PopBatch(8).empty());   // then empty, without blocking
}

// ---------------------------------------------------------------- arena --

TEST(DeviceArenaTest, LeasesAreDisjoint) {
  DeviceArena arena(4);
  DeviceArena::Lease first = arena.Acquire(2);
  DeviceArena::Lease second = arena.Acquire(2);
  std::set<int> devices(first.devices().begin(), first.devices().end());
  devices.insert(second.devices().begin(), second.devices().end());
  EXPECT_EQ(devices.size(), 4u);  // no overlap
  EXPECT_EQ(arena.free_count(), 0);
  first.Release();
  EXPECT_EQ(arena.free_count(), 2);
}

TEST(DeviceArenaTest, AcquireBlocksUntilRelease) {
  DeviceArena arena(2);
  DeviceArena::Lease held = arena.Acquire(2);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    DeviceArena::Lease lease = arena.Acquire(1);
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(arena.free_count(), 2);
}

TEST(DeviceArenaTest, TicketsGrantInFifoOrder) {
  DeviceArena arena(2);
  DeviceArena::Lease held = arena.Acquire(2);

  std::vector<int> grant_order;
  std::mutex order_mutex;
  std::atomic<int> started{0};
  auto contender = [&](int id, int count) {
    ++started;
    DeviceArena::Lease lease = arena.Acquire(count);
    std::lock_guard<std::mutex> lock(order_mutex);
    grant_order.push_back(id);
  };
  // A 2-device job arrives first; a later 1-device job must NOT jump it
  // even though one device would free up first (strict FIFO).
  std::thread big(contender, 1, 2);
  while (started.load() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread small(contender, 2, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  held.Release();
  big.join();
  small.join();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 1);
  EXPECT_EQ(grant_order[1], 2);
}

// -------------------------------------------------------------- service --

// Runs `request` alone through the ordinary runner on a fresh 4-GPU node,
// on exactly `devices`.
runtime::RunReport SoloRun(const JobRequest& request,
                           const std::vector<int>& devices) {
  const runtime::AccProgram program = runtime::AccProgram::FromSource(
      request.name, request.source, request.compile_options);
  auto platform = sim::MakeSupercomputerNode(4);
  runtime::RunConfig config;
  config.platform = platform.get();
  config.devices = devices;
  config.options = request.exec_options;
  runtime::ProgramRunner runner(program, config);
  request.bind(runner);
  return runner.Run(request.function);
}

TEST(AccServiceTest, ConcurrentJobsBillExactlyLikeSequentialRuns) {
  // Jobs running concurrently through a long-lived service must report
  // exactly what the same job reports when run alone on the same device
  // ids: every simulated-time category, the total and the counters,
  // bit for bit.
  auto platform = sim::MakeSupercomputerNode(4);
  AccService::Config config;
  config.platform = platform.get();
  config.workers = 2;
  AccService service(config);

  // Other jobs first, so the service has billed work before the md jobs.
  for (const char* app : {"kmeans", "spmv", "bfs"}) {
    AppJobOptions options;
    options.app = app;
    options.gpus = 2;
    const JobResult warmup = service.Wait(service.Submit(MakeAppJob(options)));
    ASSERT_EQ(warmup.state, JobState::kDone) << warmup.error;
  }

  AppJobOptions options;
  options.app = "md";
  options.gpus = 2;
  std::vector<int> ids;
  for (int j = 0; j < 4; ++j) {
    ids.push_back(service.Submit(MakeAppJob(options)));
    ASSERT_GE(ids.back(), 0);
  }

  for (const int id : ids) {
    const JobResult result = service.Wait(id);
    ASSERT_EQ(result.state, JobState::kDone) << result.error;
    ASSERT_EQ(result.devices.size(), 2u);
    const runtime::RunReport solo =
        SoloRun(MakeAppJob(options), result.devices);
    for (int c = 0; c < sim::kNumTimeCategories; ++c) {
      EXPECT_EQ(result.report.time.seconds[c], solo.time.seconds[c])
          << "job " << id << " category "
          << sim::TimeCategoryName(static_cast<sim::TimeCategory>(c));
    }
    EXPECT_EQ(result.report.total_seconds, solo.total_seconds)
        << "job " << id;
    EXPECT_EQ(result.report.counters, solo.counters) << "job " << id;
  }
}

TEST(AccServiceTest, ValidatedAppsPassOnSharedPlatform) {
  auto platform = sim::MakeSupercomputerNode(4);
  AccService::Config config;
  config.platform = platform.get();
  config.workers = 2;
  AccService service(config);

  std::vector<std::shared_ptr<AppJobOutcome>> outcomes;
  std::vector<int> ids;
  for (const char* app : {"md", "kmeans", "bfs", "spmv"}) {
    AppJobOptions options;
    options.app = app;
    options.gpus = 2;
    options.validate_result = true;
    auto outcome = std::make_shared<AppJobOutcome>();
    ids.push_back(service.Submit(MakeAppJob(options, outcome)));
    outcomes.push_back(std::move(outcome));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobResult result = service.Wait(ids[i]);
    ASSERT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_TRUE(outcomes[i]->checked);
    EXPECT_TRUE(outcomes[i]->ok) << outcomes[i]->detail;
  }
}

TEST(AccServiceTest, CompileErrorFailsTheJobNotTheService) {
  auto platform = sim::MakeSupercomputerNode(2);
  AccService::Config config;
  config.platform = platform.get();
  config.workers = 1;
  AccService service(config);

  JobRequest bad;
  bad.name = "broken";
  bad.function = "f";
  bad.source = "void f(int n, float* a) { this is not a program";
  const int bad_id = service.Submit(std::move(bad));
  const JobResult bad_result = service.Wait(bad_id);
  EXPECT_EQ(bad_result.state, JobState::kFailed);
  EXPECT_FALSE(bad_result.error.empty());

  // The service keeps serving after a failed job.
  AppJobOptions options;
  options.app = "spmv";
  const JobResult good = service.Wait(service.Submit(MakeAppJob(options)));
  EXPECT_EQ(good.state, JobState::kDone) << good.error;
}

TEST(AccServiceTest, WarmResubmitCompilesZeroTimes) {
  auto platform = sim::MakeSupercomputerNode(2);
  AccService::Config config;
  config.platform = platform.get();
  config.workers = 1;
  AccService service(config);

  AppJobOptions options;
  options.app = "bfs";
  const JobResult cold = service.Wait(service.Submit(MakeAppJob(options)));
  ASSERT_EQ(cold.state, JobState::kDone) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const std::uint64_t compiles_after_cold = service.cache().compiles();

  for (int i = 0; i < 3; ++i) {
    const JobResult warm = service.Wait(service.Submit(MakeAppJob(options)));
    ASSERT_EQ(warm.state, JobState::kDone) << warm.error;
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.program_key, cold.program_key);
  }
  EXPECT_EQ(service.cache().compiles(), compiles_after_cold);
}

// ---------------------------------------------------------------- trace --

TEST(JobScopeTest, TagsEventsAndFiltersExport) {
  trace::Tracer& tracer = trace::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  {
    trace::JobScope job7(7);
    trace::Event event;
    event.name = "seven";
    event.category = "test";
    tracer.Record(std::move(event));
  }
  {
    trace::JobScope job8(8);
    trace::Event event;
    event.name = "eight";
    event.category = "test";
    tracer.Record(std::move(event));
  }
  trace::Event untagged;
  untagged.name = "none";
  untagged.category = "test";
  tracer.Record(std::move(untagged));
  tracer.set_enabled(false);

  std::ostringstream job7_json;
  tracer.WriteChromeTrace(job7_json, /*job_filter=*/7);
  EXPECT_NE(job7_json.str().find("seven"), std::string::npos);
  EXPECT_EQ(job7_json.str().find("eight"), std::string::npos);
  EXPECT_EQ(job7_json.str().find("\"none\""), std::string::npos);

  std::ostringstream all_json;
  tracer.WriteChromeTrace(all_json);
  EXPECT_NE(all_json.str().find("seven"), std::string::npos);
  EXPECT_NE(all_json.str().find("eight"), std::string::npos);
  tracer.Clear();
}

// ------------------------------------------------------------- protocol --

TEST(ProtocolTest, ParsesTheGrammar) {
  Request submit = ParseRequest("submit app=md gpus=2 tenant=t1");
  EXPECT_EQ(submit.kind, Request::Kind::kSubmit);
  EXPECT_EQ(submit.params.at("app"), "md");
  EXPECT_EQ(submit.params.at("gpus"), "2");
  EXPECT_EQ(submit.params.at("tenant"), "t1");

  Request status = ParseRequest("  status 12  ");
  EXPECT_EQ(status.kind, Request::Kind::kStatus);
  EXPECT_EQ(status.job_id, 12);

  EXPECT_EQ(ParseRequest("result 3").kind, Request::Kind::kResult);
  EXPECT_EQ(ParseRequest("metrics").kind, Request::Kind::kMetrics);
  EXPECT_EQ(ParseRequest("quit").kind, Request::Kind::kQuit);

  EXPECT_EQ(ParseRequest("").kind, Request::Kind::kInvalid);
  EXPECT_TRUE(ParseRequest("").error.empty());  // silently skippable
  EXPECT_EQ(ParseRequest("# comment").kind, Request::Kind::kInvalid);
  EXPECT_FALSE(ParseRequest("status nope").error.empty());
  EXPECT_FALSE(ParseRequest("submit app").error.empty());
  EXPECT_FALSE(ParseRequest("frobnicate").error.empty());
}

}  // namespace
}  // namespace accmg::service
