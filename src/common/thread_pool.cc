#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/error.h"

namespace accmg {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerMain() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::Run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  // Completion state lives on this frame, so a worker decrements under
  // done_mutex: the caller cannot observe zero, return and destroy the
  // mutex while the last worker still holds it.
  std::size_t remaining = count;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ACCMG_CHECK(!stopping_, "submitting work to a stopped pool");
    for (std::size_t i = 0; i < count; ++i) {
      queue_.emplace([&, i] {
        std::exception_ptr error;
        try {
          task(i);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> dlock(done_mutex);
        if (error && !first_error) first_error = error;
        if (--remaining == 0) done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t)>& body) {
  ParallelForChunks(begin, end,
                    [&body](std::int64_t lo, std::int64_t hi, std::size_t) {
                      for (std::int64_t i = lo; i < hi; ++i) body(i);
                    });
}

void ThreadPool::ParallelForChunks(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t lo, std::int64_t hi,
                             std::size_t worker)>& body) {
  if (begin >= end) return;
  const std::int64_t total = end - begin;
  const std::int64_t chunks =
      std::min<std::int64_t>(static_cast<std::int64_t>(workers_.size()), total);
  Run(static_cast<std::size_t>(chunks), [&](std::size_t c) {
    const auto i = static_cast<std::int64_t>(c);
    body(begin + total * i / chunks, begin + total * (i + 1) / chunks, c);
  });
}

}  // namespace accmg
