#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "util/check.hpp"

namespace kstable {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // One shared state block; the last task to finish releases the waiter.
  struct Barrier {
    std::mutex m;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = count;

  for (std::size_t i = 0; i < count; ++i) {
    enqueue([barrier, &fn, i] {
      try {
        KSTABLE_FAULT_POINT("thread_pool/for_each_index");
        fn(i);
      } catch (...) {
        std::scoped_lock lock(barrier->m);
        if (!barrier->error) barrier->error = std::current_exception();
      }
      std::scoped_lock lock(barrier->m);
      if (--barrier->remaining == 0) barrier->done.notify_all();
    });
  }
  std::unique_lock lock(barrier->m);
  barrier->done.wait(lock, [&barrier] { return barrier->remaining == 0; });
  if (barrier->error) std::rethrow_exception(barrier->error);
}

}  // namespace kstable
