// The native kernel tier: hot decoded kernels compiled to host machine code.
//
// Every DecodedKernel takes, at decoding, the slot of its content key
// (NativeContentKey) from the process-wide tier, so kernels that differ
// only in names or comments share one slot and one build. Interpreted
// chunks add their (weighted) instruction count to the slot; once the
// total passes kNativeHotInstructions, the kernel's source is emitted and
// queued for the tier's single build thread, which runs the system C++
// compiler (fixed at configure time) at nice 19 with posix_spawn, dlopens
// the shared object and publishes its function on the slot. Every chunk
// that starts after that runs the native function; the others interpret.
// A failed build marks the slot failed for good and the kernel keeps
// interpreting. Nothing on the compile or launch path waits for a build.
//
// The cache lives in process memory only: source, object and log files are
// unlinked as soon as the object is loaded, the temporary directory is
// removed at shutdown, and loaded objects stay mapped for the life of the
// process.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ir/kernel_ops.h"

namespace accmg::ir {

class DecodedKernel;
class NativeTier;

/// Interpreted instructions (weighted, as KernelStats counts them) after
/// which a kernel of up to kNativeHotCodeSize IR instructions is queued for
/// a native build: about 0.1 s of interpretation on a current x86-64 core,
/// roughly the cost of building such a kernel, so a kernel that never gets
/// that hot never pays for a build. Build time grows with the code, so a
/// larger kernel must run proportionally longer (a 96-loop fused chain
/// takes seconds to build).
inline constexpr std::uint64_t kNativeHotInstructions = std::uint64_t{1}
                                                        << 25;
inline constexpr std::uint64_t kNativeHotCodeSize = 128;

/// The native state of one kernel content key.
struct NativeSlot : std::enable_shared_from_this<NativeSlot> {
  enum State : int { kCold, kQueued, kReady, kFailed };

  NativeTier* tier = nullptr;
  std::string key;   ///< NativeContentKey of its kernels
  std::string hash;  ///< SHA-256 of `key`, set when the build is queued
  std::uint64_t hot_at = 0;  ///< `executed` that queues the build
  std::atomic<std::uint64_t> executed{0};  ///< interpreted instructions
  std::atomic<int> state{kCold};
  std::atomic<ops::NativeFn> fn{nullptr};  ///< set once kReady
  std::mutex build_mutex;                  ///< serializes eager builds
};

class NativeTier {
 public:
  /// How chunks choose their tier. kTiered is the only mode outside tests:
  /// kOff interprets everything, kEager builds every kernel synchronously
  /// at its first chunk (the differential tests' seam).
  enum class Mode { kTiered, kOff, kEager };

  /// A tier compiling with `compiler`, adding `extra_flags` (sanitizer
  /// flags of the host build) to the fixed flags.
  NativeTier(std::string compiler, std::vector<std::string> extra_flags);
  ~NativeTier();

  NativeTier(const NativeTier&) = delete;
  NativeTier& operator=(const NativeTier&) = delete;

  /// The process-wide tier, compiling with the configured compiler. It is
  /// shut down at exit and never destroyed.
  static NativeTier& Process();

  /// The slot of content key `key`, created cold on first use for a kernel
  /// of `code_size` IR instructions.
  std::shared_ptr<NativeSlot> Slot(std::string key, std::size_t code_size);

  /// The function a chunk of `kernel` starting now runs, or null to
  /// interpret it. In kEager mode this builds the kernel first.
  ops::NativeFn ChunkFunction(NativeSlot& slot, const DecodedKernel& kernel);

  /// Counts an interpreted chunk's instructions; queues the kernel's build
  /// when they make it hot.
  void AddExecuted(NativeSlot& slot, const DecodedKernel& kernel,
                   std::uint64_t instructions);

  /// Kills a running compiler, joins the build thread and removes the
  /// temporary directory. Later builds fail. Idempotent.
  void Shutdown();

  // --- test seam (tests and bench_micro only) ---
  void SetModeForTesting(Mode mode);
  /// Builds `kernel` now on the calling thread; true if it is native.
  bool BuildNowForTesting(const DecodedKernel& kernel);
  /// Queues `kernel`'s build as if it had become hot.
  void EnqueueForTesting(const DecodedKernel& kernel);
  /// Waits until the build queue is empty and no build runs.
  void WaitIdleForTesting();
  const std::string& compiler_for_testing() const { return compiler_; }
  std::uint64_t builds() const { return builds_.load(); }
  std::uint64_t build_failures() const { return failures_.load(); }
  /// The temporary directory ("" before the first build).
  std::string temp_dir_for_testing();

 private:
  struct Job {
    std::shared_ptr<NativeSlot> slot;
    std::string source;
  };

  void Enqueue(const DecodedKernel& kernel, NativeSlot& slot);
  /// Builds a cold slot on the calling thread, or waits for the build
  /// thread's build of it; returns the function or null.
  ops::NativeFn BuildEagerly(NativeSlot& slot, const DecodedKernel& kernel);
  void BuildLoop();
  /// Compiles and loads `source` for `slot`, then publishes the function
  /// or marks the slot failed.
  void Build(NativeSlot& slot, const std::string& source);
  /// Runs the compiler; true on exit status 0.
  bool Compile(const std::string& source_path, const std::string& object_path,
               const std::string& log_path);
  /// Creates the temporary directory on first use; "" if that fails.
  std::string TempDir();

  const std::string compiler_;
  const std::vector<std::string> extra_flags_;
  std::atomic<Mode> mode_{Mode::kTiered};
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> failures_{0};

  std::mutex mutex_;  // guards everything below
  std::condition_variable wake_;
  std::condition_variable idle_;
  /// Keyed by a view of each slot's own `key`.
  std::unordered_map<std::string_view, std::shared_ptr<NativeSlot>> slots_;
  std::deque<Job> queue_;
  bool building_ = false;
  bool stopped_ = false;
  std::vector<pid_t> children_;
  std::string temp_dir_;
  std::thread thread_;
};

}  // namespace accmg::ir
