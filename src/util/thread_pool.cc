#include "util/thread_pool.h"

#include <algorithm>

namespace vq {

namespace {

/// Which pool (if any) the calling thread belongs to, and its index there.
/// Written once per worker at startup; CurrentWorkerIndex() compares the
/// pool pointer so nested pools cannot alias each other's indices.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local size_t tl_worker_index = ThreadPool::kNotAWorker;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

size_t ThreadPool::PendingTasks() const {
  MutexLock lock(mutex_);
  return in_flight_;
}

size_t ThreadPool::QueuedTasks() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

size_t ThreadPool::CurrentWorkerIndex() const {
  return tl_worker_pool == this ? tl_worker_index : kNotAWorker;
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(mutex_);
}

void ThreadPool::WorkerLoop(size_t index) {
  tl_worker_pool = this;
  tl_worker_index = index;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
      // Drain before exiting: shutdown still runs every queued task.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool& ScanPool() {
  // Never destroyed: scan tasks may still be draining when static
  // destructors run (the serving pools are leaked for the same reason).
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body) {
  if (count == 0) return;
  size_t num_threads = pool->NumThreads();
  size_t num_chunks = std::min(count, num_threads * 4);
  size_t chunk = (count + num_chunks - 1) / num_chunks;
  std::atomic<size_t> next{0};
  for (size_t c = 0; c < num_chunks; ++c) {
    pool->Submit([&next, count, chunk, &body] {
      while (true) {
        size_t begin = next.fetch_add(chunk);
        if (begin >= count) return;
        size_t end = std::min(begin + chunk, count);
        for (size_t i = begin; i < end; ++i) body(i);
      }
    });
  }
  pool->Wait();
}

}  // namespace vq
