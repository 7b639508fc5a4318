// Fixed-size thread pool (C++ Core Guidelines CP.40/CP.41: persistent workers,
// no per-task thread creation; CP.20/CP.42: RAII locks, condition-variable
// waits). Used by the parallel binding executor (execute_binding's EREW/CREW
// schedules), the speculative parallel Gale-Shapley engine, BatchSolver,
// `kmatch serve`'s solve workers and `kmatch verify`'s pool leg.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "resilience/fault_injection.hpp"

namespace kstable {

/// A fixed pool of worker threads draining a FIFO task queue.
/// Destruction joins all workers after the queue drains (CP.26: no detach).
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues a task; returns a future for its result. Exceptions the task
  /// throws (including the "thread_pool/task" fault point) are captured into
  /// the future and rethrown by get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [inner = std::forward<F>(fn)]() mutable -> R {
          KSTABLE_FAULT_POINT("thread_pool/task");
          return inner();
        });
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// complete; count == 0 is a no-op. Exceptions from tasks — including the
  /// "thread_pool/for_each_index" fault point — are rethrown (first one
  /// wins), after every task has finished.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  /// Queues a raw task. for_each_index uses this directly (not submit) so
  /// its completion barrier also covers injected task faults.
  void enqueue(std::function<void()> task);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace kstable
