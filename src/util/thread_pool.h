// Fixed-size thread pool used by the batch pre-processor (Section III: all
// speeches are generated in one batch operation; problems are independent)
// and, since the sharded-storage refactor, by the parallel shard scans.
#ifndef VQ_UTIL_THREAD_POOL_H_
#define VQ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace vq {

/// \brief Fixed-size thread pool over one shared FIFO queue: workers pick
/// tasks up in submission order.
class ThreadPool {
 public:
  /// `num_threads` == 0 picks hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result. Unlike
  /// Submit(), the callable may throw: the exception is captured in the
  /// future. Used by the serving layer to hand per-request results back to
  /// callers without a side channel.
  template <typename F>
  auto SubmitTask(F&& callable) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(callable));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

  /// Blocks until all submitted tasks have finished.
  void Wait();

  size_t NumThreads() const { return workers_.size(); }

  /// Tasks submitted but not yet finished (queued + running). Snapshot only:
  /// the value may change before the caller uses it.
  size_t PendingTasks() const;

  /// Tasks waiting in the queue (not yet picked up by a worker). Snapshot
  /// only; PendingTasks() - QueuedTasks() approximates the number of tasks
  /// currently executing. Exported as a gauge so shedding decisions are
  /// observable.
  size_t QueuedTasks() const;

  /// Sentinel for CurrentWorkerIndex() on a non-worker thread.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

  /// Index of the calling thread within THIS pool's workers, or kNotAWorker
  /// when the caller is not one of them. Fan-out callers (the scan planner,
  /// the parallel index build) check it to run inline instead of blocking a
  /// worker on tasks queued behind it.
  size_t CurrentWorkerIndex() const;

 private:
  void WorkerLoop(size_t index);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  CondVar work_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

/// Runs `body(i)` for i in [0, count) across the pool, blocking until done.
/// Iteration order across threads is unspecified; bodies must be independent.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body);

/// Process-wide pool for data-parallel storage/scan work: sharded index
/// builds and the scan planner's per-shard filter fan-out. Lazily created
/// with hardware concurrency, never destroyed. Deliberately
/// separate from the serving solve pools: FilterRows runs ON solve-pool
/// workers, and fanning shard tasks into the pool the caller blocks on
/// would deadlock once every worker is a blocked caller.
ThreadPool& ScanPool();

}  // namespace vq

#endif  // VQ_UTIL_THREAD_POOL_H_
