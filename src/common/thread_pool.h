#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace costdb {

/// Fixed-size worker pool behind morsel-parallel pipelines and sharded
/// fragment fan-out. One process-wide instance (Shared()) serves every
/// query; ParallelFor is the only way work enters a pool.
///
/// The queue state is annotated for Clang's thread-safety analysis: every
/// member below `mu_` is GUARDED_BY(mu_), so a build with
/// -Werror=thread-safety (ci/check_thread_safety.sh) refuses any access
/// outside the lock. For example, this "fast path" — a real bug class, an
/// unguarded read racing Submit's push — does not compile under the
/// analysis:
///
///   bool HasWork() const {
///     return !queue_.empty();   // error: reading variable 'queue_'
///   }                           //        requires holding mutex 'mu_'
///
/// whereas the correct form passes:
///
///   bool HasWork() const {
///     MutexLock lock(mu_);
///     return !queue_.empty();
///   }
///
/// Internal helpers that expect the caller to hold the lock say so with
/// REQUIRES(mu_) instead of a comment — calling them unlocked is a
/// compile error, not a latent race.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized by hardware_concurrency() and built on
  /// first use.
  static ThreadPool& Shared();

  /// Run fn(0) .. fn(n - 1) on at most `parallelism` threads; returns
  /// once every index has run. With parallelism 1 the caller runs them
  /// all. Otherwise a caller outside the pool sleeps while up to
  /// `parallelism` pool helpers run the indices; a caller that is itself
  /// one of this pool's threads claims indices too, next to at most
  /// `parallelism - 1` helpers, so nested calls always make progress and
  /// cannot deadlock. Concurrent calls take turns: a helper that finishes
  /// an index while other tasks wait for a thread goes back to the end of
  /// the queue, so no call waits for another call's remaining indices. A
  /// helper that starts after every index is claimed returns without
  /// touching `fn`.
  void ParallelFor(size_t n, size_t parallelism,
                   const std::function<void(size_t)>& fn) EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Group;

  /// Helper task of one ParallelFor call: run indices until none is left
  /// or another task is queued, then requeue itself if indices remain.
  void Help(const std::shared_ptr<Group>& group) EXCLUDES(mu_);

  void Submit(std::function<void()> task) EXCLUDES(mu_);

  void WorkerLoop() EXCLUDES(mu_);

  /// Pop the next task; caller holds the lock (enforced at compile time).
  std::function<void()> TakeTask() REQUIRES(mu_);

  std::vector<std::thread> workers_;  // set in the constructor only
  mutable Mutex mu_;
  std::condition_variable_any cv_task_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  /// queue_.size(), readable without the lock: helpers poll it after
  /// every index to decide whether to give their thread up.
  std::atomic<size_t> queued_{0};
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace costdb
