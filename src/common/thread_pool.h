// A fixed-size worker pool with blocking batch entry points. Each
// sim::Platform and its forks share one, used by the virtual GPU kernel
// engine (every chunk of every launch of a batch is one task), the
// runtime's element-wise passes and the CPU "OpenMP" baseline executor.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace accmg {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; `num_threads == 0` means
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs `task(i)` for every i in [0, count), each as its own queue entry
  /// so idle workers pick up the next one, and blocks until every call
  /// returned. Exceptions thrown by `task` are captured and one of them is
  /// rethrown on the caller's thread. Several callers may run batches at
  /// once; their tasks share the queue.
  void Run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Runs `body(i)` for every i in [begin, end), distributing contiguous
  /// chunks over the workers, and blocks until every call returned.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t)>& body);

  /// Like ParallelFor but hands each worker a half-open chunk [lo, hi). The
  /// chunking follows the pool size, so only element-wise work whose result
  /// does not depend on the chunk boundaries belongs here.
  void ParallelForChunks(
      std::int64_t begin, std::int64_t end,
      const std::function<void(std::int64_t lo, std::int64_t hi,
                               std::size_t worker)>& body);

 private:
  void WorkerMain();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
};

}  // namespace accmg
