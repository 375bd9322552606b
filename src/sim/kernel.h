// Kernel execution interface of the virtual GPU.
//
// A kernel body is executed for a 1-D grid of `num_threads` logical threads
// (one per loop task, as in the paper's translator). The engine cuts every
// launch into a fixed grid of chunks (kMaxLaunchChunks below) and runs
// the chunks of a whole launch batch on the platform's host thread pool.
// Each chunk returns its own ChunkOutput: its dynamic cost (instructions
// executed, bytes touched), which feeds the roofline timing model, and any
// private partial results of the body. Once a body's chunks are done the
// engine folds them into the body in chunk order, so nothing a launch
// produces depends on the host's core count or on thread scheduling.
// Functional effects happen for real on device buffers, so results are
// bit-exact and placement bugs surface as wrong answers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace accmg::sim {

/// Dynamic cost of a slice of kernel execution.
struct KernelStats {
  std::uint64_t instructions = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  KernelStats& operator+=(const KernelStats& other) {
    instructions += other.instructions;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    return *this;
  }
};

/// The chunk grid: a launch of n threads is cut into C = min(n,
/// kMaxLaunchChunks) chunks, chunk c covering [n*c/C, n*(c+1)/C). The grid
/// depends on the thread count alone, never on the pool size, which is
/// what makes the fold order of private partials the same on every host.
inline constexpr std::int64_t kMaxLaunchChunks = 16;

/// What one chunk produced. Bodies with private partial results (e.g.
/// reduction accumulators) derive from it.
struct ChunkOutput {
  virtual ~ChunkOutput() = default;
  KernelStats stats;
};

/// Executable body of a kernel.
class KernelBody {
 public:
  virtual ~KernelBody() = default;

  /// Runs logical threads [tid_begin, tid_end) and returns their cost and
  /// private partial results. Called concurrently for disjoint ranges, so it
  /// may write nothing shared beyond the kernel's own direct stores.
  virtual std::unique_ptr<ChunkOutput> RunChunk(std::int64_t tid_begin,
                                                std::int64_t tid_end) const = 0;

  /// Folds one chunk's partial results into the body's outputs. Once all of
  /// a body's chunks in a batch ran, the engine folds them on one thread,
  /// launch by launch in issue order and chunk by chunk in grid order.
  /// Distinct bodies of a batch fold concurrently, so they must not share
  /// outputs.
  virtual void Fold(ChunkOutput& chunk) { (void)chunk; }

  /// Runs [tid_begin, tid_end) serially as a single chunk and folds it at
  /// once, adding its cost to `stats`.
  void Execute(std::int64_t tid_begin, std::int64_t tid_end,
               KernelStats& stats) {
    const std::unique_ptr<ChunkOutput> chunk = RunChunk(tid_begin, tid_end);
    Fold(*chunk);
    stats += chunk->stats;
  }
};

/// Adapts a lambda `void(int64 tid, KernelStats&)` to KernelBody. Used by the
/// hand-written "CUDA" baseline kernels.
class LambdaKernel final : public KernelBody {
 public:
  using Fn = std::function<void(std::int64_t tid, KernelStats& stats)>;
  explicit LambdaKernel(Fn fn) : fn_(std::move(fn)) {}

  std::unique_ptr<ChunkOutput> RunChunk(std::int64_t tid_begin,
                                        std::int64_t tid_end) const override {
    auto chunk = std::make_unique<ChunkOutput>();
    for (std::int64_t tid = tid_begin; tid < tid_end; ++tid) {
      fn_(tid, chunk->stats);
    }
    return chunk;
  }

 private:
  Fn fn_;
};

/// A kernel launch request.
struct KernelLaunch {
  KernelBody* body = nullptr;
  std::int64_t num_threads = 0;
  /// Logical CUDA block size. The platform only checks that it is
  /// positive: the chunk grid depends on num_threads alone, and the cost
  /// model does not read it.
  int block_size = 256;
  std::string name;         ///< for logs and error messages
  /// Earliest simulated start time (a dependence on earlier operations'
  /// end times). 0 = no constraint beyond the device's compute resource;
  /// the async pipeline uses this to gate sub-kernels on in-flight
  /// transfers without a global barrier.
  double ready_at = 0;
  /// Logical id of the launch's first thread: the body runs threads
  /// [first_thread, first_thread + num_threads). The async pipeline's
  /// sub-launches share one body and continue its grid.
  std::int64_t first_thread = 0;
};

}  // namespace accmg::sim
