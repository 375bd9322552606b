#include "ir/native_tier.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/sha256.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "ir/exec.h"
#include "ir/native_emit.h"

extern char** environ;

namespace accmg::ir {

// Configured at build time (native_config.cc.in).
extern const char kNativeCompiler[];
extern const char kNativeExtraFlags[];

namespace {

// -ffp-contract=off: no multiply-add is fused, so every float op rounds as
// in the interpreter. -fno-builtin: exp/log/pow/fmin/fmax stay calls into
// the same libm as the interpreter's, never folded at compile time. No
// -march and no -ffast-math, for the same reason.
const char* const kFlags[] = {"-std=c++20", "-O2",          "-fPIC",
                              "-shared",    "-ffp-contract=off",
                              "-fno-builtin"};

std::vector<std::string> SplitFlags(const std::string& text) {
  std::vector<std::string> flags;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t end = text.find(' ', at);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    if (stop > at) flags.push_back(text.substr(at, stop - at));
    at = stop + 1;
  }
  return flags;
}

std::string Symbol(const std::string& hash) { return "accmg_native_" + hash; }

struct Metrics {
  metrics::Counter& builds;
  metrics::Counter& failures;
  metrics::Histogram& build_ms;
};

Metrics& TierMetrics() {
  static Metrics metrics{
      metrics::Registry::Global().counter("native.builds"),
      metrics::Registry::Global().counter("native.build_failures"),
      metrics::Registry::Global().histogram("native.build_ms")};
  return metrics;
}

/// Shuts the process tier down at exit, before the statics it uses go.
struct ProcessTierReaper {
  NativeTier* tier;
  ~ProcessTierReaper() { tier->Shutdown(); }
};

}  // namespace

NativeTier::NativeTier(std::string compiler,
                       std::vector<std::string> extra_flags)
    : compiler_(std::move(compiler)), extra_flags_(std::move(extra_flags)) {
  // Constructed before the tier, so destroyed after its shutdown.
  TierMetrics();
  trace::Tracer::Global();
}

NativeTier::~NativeTier() { Shutdown(); }

NativeTier& NativeTier::Process() {
  static NativeTier* const tier = [] {
    auto* created =
        new NativeTier(kNativeCompiler, SplitFlags(kNativeExtraFlags));
    static ProcessTierReaper reaper{created};
    return created;
  }();
  return *tier;
}

std::shared_ptr<NativeSlot> NativeTier::Slot(std::string key,
                                             std::size_t code_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = slots_.find(key); it != slots_.end()) return it->second;
  auto slot = std::make_shared<NativeSlot>();
  slot->tier = this;
  slot->key = std::move(key);
  slot->hot_at = kNativeHotInstructions *
                 std::max<std::uint64_t>(1, code_size / kNativeHotCodeSize);
  slots_.emplace(slot->key, slot);
  return slot;
}

ops::NativeFn NativeTier::ChunkFunction(NativeSlot& slot,
                                        const DecodedKernel& kernel) {
  const Mode mode = mode_.load(std::memory_order_relaxed);
  if (mode == Mode::kOff) return nullptr;
  if (const ops::NativeFn fn = slot.fn.load(std::memory_order_acquire)) {
    return fn;
  }
  if (mode != Mode::kEager) return nullptr;
  return BuildEagerly(slot, kernel);
}

ops::NativeFn NativeTier::BuildEagerly(NativeSlot& slot,
                                       const DecodedKernel& kernel) {
  {
    std::lock_guard<std::mutex> lock(slot.build_mutex);
    int cold = NativeSlot::kCold;
    if (slot.state.compare_exchange_strong(cold, NativeSlot::kQueued)) {
      slot.hash = Sha256Hex(slot.key);
      Build(slot, EmitNativeSource(kernel, Symbol(slot.hash)));
    }
  }
  // A build the build thread owns may still run.
  WaitIdleForTesting();
  return slot.fn.load(std::memory_order_acquire);
}

void NativeTier::AddExecuted(NativeSlot& slot, const DecodedKernel& kernel,
                             std::uint64_t instructions) {
  if (mode_.load(std::memory_order_relaxed) != Mode::kTiered) return;
  const std::uint64_t before =
      slot.executed.fetch_add(instructions, std::memory_order_relaxed);
  if (before < slot.hot_at && before + instructions >= slot.hot_at) {
    Enqueue(kernel, slot);
  }
}

void NativeTier::Enqueue(const DecodedKernel& kernel, NativeSlot& slot) {
  int cold = NativeSlot::kCold;
  if (!slot.state.compare_exchange_strong(cold, NativeSlot::kQueued)) return;
  slot.hash = Sha256Hex(slot.key);
  std::string source = EmitNativeSource(kernel, Symbol(slot.hash));
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) return;
  queue_.push_back(Job{slot.shared_from_this(), std::move(source)});
  if (!thread_.joinable()) thread_ = std::thread([this] { BuildLoop(); });
  wake_.notify_one();
}

void NativeTier::BuildLoop() {
  // Builds only take idle cores; the compiler inherits the nice value.
  setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 19);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
    if (stopped_) break;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    building_ = true;
    lock.unlock();
    try {
      trace::Span span("native-build", "native");
      Build(*job.slot, job.source);
    } catch (const std::exception& error) {
      // The kernel keeps interpreting; a failed slot is never retried.
      ACCMG_LOG(kDebug) << "native tier: build failed: " << error.what();
      job.slot->state.store(NativeSlot::kFailed);
      failures_.fetch_add(1);
      TierMetrics().failures.Add();
    }
    lock.lock();
    building_ = false;
    if (queue_.empty()) idle_.notify_all();
  }
  building_ = false;
  idle_.notify_all();
}

void NativeTier::Build(NativeSlot& slot, const std::string& source) {
  const Stopwatch watch;
  ops::NativeFn fn = nullptr;
  const std::string dir = TempDir();
  if (!dir.empty()) {
    const std::string base = dir + "/" + slot.hash;
    const std::string source_path = base + ".cc";
    const std::string object_path = base + ".so";
    const std::string log_path = base + ".log";
    {
      std::ofstream file(source_path, std::ios::binary);
      file << source;
    }
    if (Compile(source_path, object_path, log_path)) {
      // The handle stays open for the life of the process.
      if (void* handle = dlopen(object_path.c_str(), RTLD_NOW | RTLD_LOCAL)) {
        fn = reinterpret_cast<ops::NativeFn>(
            dlsym(handle, Symbol(slot.hash).c_str()));
      } else {
        ACCMG_LOG(kDebug) << "native tier: dlopen failed: " << dlerror();
      }
    } else {
      ACCMG_LOG(kDebug) << "native tier: compile of kernel " << slot.hash
                        << " failed";
    }
    std::remove(source_path.c_str());
    std::remove(object_path.c_str());
    std::remove(log_path.c_str());
  }
  Metrics& metrics = TierMetrics();
  if (fn == nullptr) {
    slot.state.store(NativeSlot::kFailed);
    failures_.fetch_add(1);
    metrics.failures.Add();
    return;
  }
  slot.fn.store(fn, std::memory_order_release);
  slot.state.store(NativeSlot::kReady);
  builds_.fetch_add(1);
  metrics.builds.Add();
  metrics.build_ms.Observe(watch.ElapsedSeconds() * 1e3);
}

bool NativeTier::Compile(const std::string& source_path,
                         const std::string& object_path,
                         const std::string& log_path) {
  std::vector<std::string> args{compiler_};
  args.insert(args.end(), std::begin(kFlags), std::end(kFlags));
  args.insert(args.end(), extra_flags_.begin(), extra_flags_.end());
  args.insert(args.end(), {"-o", object_path, source_path});
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  // The compiler leads its own process group, so that Shutdown can kill
  // the compiler together with the cc1plus and as processes it runs.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  pid_t pid = -1;
  int spawned = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spawned = stopped_ ? ECANCELED
                       : posix_spawn(&pid, compiler_.c_str(), &actions, &attr,
                                     argv.data(), environ);
    if (spawned == 0) children_.push_back(pid);
  }
  posix_spawnattr_destroy(&attr);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return false;

  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(children_, pid);
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string NativeTier::TempDir() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (temp_dir_.empty() && !stopped_) {
    std::error_code error;
    std::string pattern =
        (std::filesystem::temp_directory_path(error) / "accmg-native-XXXXXX")
            .string();
    if (!error && mkdtemp(pattern.data()) != nullptr) temp_dir_ = pattern;
  }
  return temp_dir_;
}

void NativeTier::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    queue_.clear();
    for (const pid_t pid : children_) kill(-pid, SIGKILL);
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!temp_dir_.empty() && children_.empty()) {
    std::error_code error;
    std::filesystem::remove_all(temp_dir_, error);
    temp_dir_.clear();
  }
}

void NativeTier::SetModeForTesting(Mode mode) { mode_.store(mode); }

bool NativeTier::BuildNowForTesting(const DecodedKernel& kernel) {
  NativeSlot* const slot = kernel.native_slot();
  return slot != nullptr && BuildEagerly(*slot, kernel) != nullptr;
}

void NativeTier::EnqueueForTesting(const DecodedKernel& kernel) {
  if (NativeSlot* const slot = kernel.native_slot()) Enqueue(kernel, *slot);
}

void NativeTier::WaitIdleForTesting() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return stopped_ || (queue_.empty() && !building_); });
}

std::string NativeTier::temp_dir_for_testing() {
  std::lock_guard<std::mutex> lock(mutex_);
  return temp_dir_;
}

}  // namespace accmg::ir
