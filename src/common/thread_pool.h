// Fixed-size thread pool. Its one user is ShardedPMA::LoadSorted, which
// builds the shards of a restore in parallel. Tasks are std::function
// thunks; WaitGroup gives callers a count-down barrier to join a batch of
// tasks.
//
// Spawn failures (std::system_error from std::thread, or the
// threadpool.spawn failpoint) degrade the pool instead of killing the
// process: the pool runs with however many threads it got, and when it
// got none at all Submit() executes tasks inline on the caller — slower,
// still correct.

#pragma once

#include <condition_variable>
#include <cstdio>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/failpoint.h"

namespace cpma {

/// Count-down latch: Add(n) before submitting, Done() in each task,
/// Wait() to join. Reusable after Wait() returns.
class WaitGroup {
 public:
  void Add(int n) {
    std::lock_guard<std::mutex> g(m_);
    count_ += n;
  }

  void Done() {
    std::lock_guard<std::mutex> g(m_);
    if (--count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> g(m_);
    cv_.wait(g, [&] { return count_ == 0; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int count_ = 0;
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      if (CPMA_FAILPOINT("threadpool.spawn")) {
        ++spawn_failures_;
        continue;
      }
      try {
        threads_.emplace_back([this] { WorkerLoop(); });
      } catch (const std::system_error&) {
        // Resource exhaustion (EAGAIN et al.): run degraded with the
        // threads we have rather than dying.
        ++spawn_failures_;
      }
    }
    if (spawn_failures_ > 0) {
      std::fprintf(stderr,
                   "cpma: ThreadPool spawned %zu/%zu threads (%zu failures); "
                   "running degraded%s\n",
                   threads_.size(), num_threads, spawn_failures_,
                   threads_.empty() ? " (tasks execute inline)" : "");
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> g(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task) {
    if (threads_.empty()) {
      // Fully degraded pool: execute on the caller so submitted work
      // (and any WaitGroup::Done inside it) still completes.
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> g(m_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  size_t num_threads() const { return threads_.size(); }

  /// Threads requested at construction that could not be spawned
  /// (observability for degraded-mode tests and diagnostics).
  size_t num_spawn_failures() const { return spawn_failures_; }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> g(m_);
        cv_.wait(g, [&] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  size_t spawn_failures_ = 0;  // written only during construction
};

}  // namespace cpma
