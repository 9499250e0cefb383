#ifndef KBFORGE_UTIL_THREAD_POOL_H_
#define KBFORGE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kb {

/// Fixed-size worker pool with a FIFO queue. Used by the harvesting
/// pipeline to shard document processing map-reduce style.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after Shutdown.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle. If any
  /// submitted task threw since the last Wait, rethrows the first such
  /// exception (the remaining tasks still ran to completion or threw
  /// silently).
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) on the calling thread plus up to
  /// num_threads() - 1 workers, and returns once every index has run.
  /// It waits only for this call's work, never for other tasks on the
  /// pool, so concurrent callers sharing one pool do not wait on each
  /// other. Rethrows the first exception this call's fn(i) threw (an
  /// index already handed out may still run before the rethrow);
  /// another caller's exception is never seen here.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_exception_;
};

}  // namespace kb

#endif  // KBFORGE_UTIL_THREAD_POOL_H_
