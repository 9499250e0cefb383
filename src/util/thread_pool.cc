#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "util/logging.h"

namespace kb {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    KB_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Chunk so that each worker receives a handful of tasks; dynamic
  // chunking keeps the queue short while balancing uneven work.
  size_t chunk = n / (num_threads() * 4);
  if (chunk == 0) chunk = 1;
  const size_t num_chunks = (n + chunk - 1) / chunk;
  // Per-call state, shared with the helper tasks. The caller waits only
  // for helpers that have started: a helper still queued behind other
  // callers' work when this call returns finds no index left and never
  // touches `fn`.
  struct Call {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t running = 0;
    std::exception_ptr first_exception;
  };
  auto call = std::make_shared<Call>();
  const std::function<void(size_t)>* body = &fn;
  auto run_chunks = [call, body, n, chunk] {
    try {
      while (true) {
        size_t start = call->next.fetch_add(chunk);
        if (start >= n) return;
        size_t end = std::min(n, start + chunk);
        for (size_t i = start; i < end; ++i) (*body)(i);
      }
    } catch (...) {
      call->next.store(n);  // hand out no further indices
      std::lock_guard<std::mutex> lock(call->mu);
      if (!call->first_exception) {
        call->first_exception = std::current_exception();
      }
    }
  };
  // The caller is one of the num_threads() runners, so a call makes
  // progress even while every worker is busy with other callers' tasks.
  const size_t helpers = std::min(num_threads(), num_chunks) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    Submit([call, run_chunks] {
      {
        std::lock_guard<std::mutex> lock(call->mu);
        ++call->running;
      }
      run_chunks();
      std::lock_guard<std::mutex> lock(call->mu);
      if (--call->running == 0) call->done_cv.notify_all();
    });
  }
  run_chunks();
  std::unique_lock<std::mutex> lock(call->mu);
  call->done_cv.wait(lock, [&call] { return call->running == 0; });
  if (call->first_exception) std::rethrow_exception(call->first_exception);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (thrown && !first_exception_) first_exception_ = thrown;
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace kb
