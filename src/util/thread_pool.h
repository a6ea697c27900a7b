// A small fixed-size thread pool: the JobScheduler's workers
// (service/job_scheduler.h). Every match runs on one thread; concurrency
// comes from running many matches at once.

#ifndef CUPID_UTIL_THREAD_POOL_H_
#define CUPID_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cupid {

/// \brief Fixed-size worker pool with a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads) {
    int n = std::max(1, num_threads);
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { Shutdown(); }

  /// \brief Stops accepting tasks, drains everything already queued, and
  /// joins the workers. Idempotent, including from concurrent callers
  /// (join_mu_ serializes the join loop; late callers see already-joined
  /// threads). Called by the destructor.
  void Shutdown() EXCLUDES(mu_, join_mu_) {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    cv_.SignalAll();
    MutexLock join_lock(&join_mu_);
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  int size() const { return static_cast<int>(workers_.size()); }

  /// \brief Enqueues `fn` for execution on some worker.
  ///
  /// Returns false — and does NOT take ownership of running `fn` — once
  /// Shutdown() has begun. Callers that submit concurrently with shutdown
  /// must check the result; a rejected task is never silently dropped into
  /// the queue.
  [[nodiscard]] bool Submit(std::function<void()> fn) EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (stop_) return false;
      queue_.push_back(std::move(fn));
    }
    cv_.Signal();
    return true;
  }

  /// Resolves a user-facing thread-count knob: n > 0 is taken literally,
  /// 0 (the default everywhere) means "all hardware threads".
  static int EffectiveThreads(int requested) {
    if (requested > 0) return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

 private:
  void WorkerLoop() EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        while (!stop_ && queue_.empty()) cv_.Wait(&mu_);
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  /// Immutable after the constructor returns (never resized), so size()
  /// reads it without a lock; joining is serialized by join_mu_.
  std::vector<std::thread> workers_;
  Mutex mu_;
  /// Serializes concurrent Shutdown calls (never held with mu_).
  Mutex join_mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace cupid

#endif  // CUPID_UTIL_THREAD_POOL_H_
