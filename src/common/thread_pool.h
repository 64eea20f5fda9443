// Fixed-size thread pool with a chunked ParallelFor, the only concurrency
// primitive the KNN algorithms need. The paper ran all experiments on 8
// hardware threads; algorithms take a ThreadPool* (nullptr = sequential)
// so tests can force determinism.

#ifndef GF_COMMON_THREAD_POOL_H_
#define GF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gf {

/// A fixed pool of worker threads executing submitted closures. Not
/// copyable or movable; joins all workers on destruction.
class ThreadPool {
 public:
  /// Spawns `n_threads` workers (0 means hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t n_threads = 0);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks completed since construction (relaxed; exact once quiescent).
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Total wall time workers spent inside tasks, in microseconds. With
  /// the pool's wall time and thread count this yields the utilization
  /// gauge the pipeline exports: busy / (threads * elapsed).
  uint64_t busy_micros() const {
    return busy_micros_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs fn(begin, end) over [0, n) split into ~3x-threads chunks, and
  /// blocks until all of this call's chunks are done; tasks other
  /// callers put on the pool do not hold it up. `fn` must be safe to
  /// call concurrently on disjoint ranges. When the pool has one thread
  /// or n is tiny, runs inline.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    // A ParallelFor call's count of unfinished chunks, guarded by mu_;
    // null for Submit-ed tasks.
    std::size_t* pending = nullptr;
  };

  void Enqueue(Task task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  // Signalled when in_flight_ or a ParallelFor call's count reaches 0.
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;  // queued + running tasks
  bool stop_ = false;
  // Every worker bumps these after every task without holding mu_; a
  // cache line of their own keeps those writes off the queue and lock
  // state.
  alignas(64) std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> busy_micros_{0};
};

/// Convenience: runs fn(begin, end) over [0, n), on `pool` when non-null,
/// inline otherwise. All parallel algorithm entry points route through
/// this so `pool == nullptr` gives a deterministic sequential run.
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace gf

#endif  // GF_COMMON_THREAD_POOL_H_
