#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace gf {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Enqueue({std::move(task)});
}

void ThreadPool::Enqueue(Task task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const auto start = std::chrono::steady_clock::now();
    task.fn();
    busy_micros_.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()),
        std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool call_done = task.pending != nullptr && --*task.pending == 0;
      if (--in_flight_ == 0 || call_done) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t n_chunks =
      std::min(n, std::max<std::size_t>(1, num_threads() * 3));
  if (n_chunks <= 1 || num_threads() <= 1) {
    fn(0, n);
    return;
  }
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  std::size_t pending = (n + chunk - 1) / chunk;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    Enqueue({[&fn, begin, end] { fn(begin, end); }, &pending});
  }
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [&pending] { return pending == 0; });
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool == nullptr) {
    if (n > 0) fn(0, n);
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace gf
