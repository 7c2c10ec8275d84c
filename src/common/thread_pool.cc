#include "common/thread_pool.h"

#include <algorithm>

namespace costdb {

namespace {

/// The pool whose worker loop runs on this thread; null on every other
/// thread.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

/// Shared state of one ParallelFor call. Helpers hold it by shared_ptr,
/// so a helper that starts after the call returned still finds it alive
/// — with every index claimed — and leaves without touching `fn`.
struct ThreadPool::Group {
  Group(size_t n, const std::function<void(size_t)>* fn) : n(n), fn(fn) {}

  const size_t n;
  /// Dereferenced only for a claimed index, and the caller cannot return
  /// before that index has run — so it never dangles when used.
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  Mutex mu;
  std::condition_variable_any cv;
  size_t done GUARDED_BY(mu) = 0;

  bool Drained() const { return next.load() >= n; }

  /// Claim and run indices until none is left or, after an index,
  /// `stop()` returns true.
  template <typename Stop>
  void Drain(const Stop& stop) {
    size_t ran = 0;
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      (*fn)(i);
      ++ran;
      if (stop()) break;
    }
    if (ran == 0) return;
    MutexLock lock(mu);
    done += ran;
    if (done == n) cv.notify_all();
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::ParallelFor(size_t n, size_t parallelism,
                             const std::function<void(size_t)>& fn) {
  parallelism = std::min(parallelism, n);
  if (parallelism <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A pool thread runs indices itself, so a nested call never waits on a
  // helper that cannot start. Any other thread hands every index to
  // helpers and sleeps: CPU-bound work then stays on the pool's threads
  // (one per core for Shared()) instead of competing with the admission
  // and client threads that wait on it.
  const bool on_pool = current_pool == this;
  const size_t helpers =
      std::min(parallelism - (on_pool ? 1 : 0), num_threads());
  auto group = std::make_shared<Group>(n, &fn);
  for (size_t h = 0; h < helpers; ++h) Submit([this, group] { Help(group); });
  if (on_pool) group->Drain([] { return false; });
  UniqueMutexLock lock(group->mu);
  while (group->done < n) group->cv.wait(lock);
}

void ThreadPool::Help(const std::shared_ptr<Group>& group) {
  group->Drain([this] { return queued_.load() > 0; });
  if (!group->Drained()) Submit([this, group] { Help(group); });
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push(std::move(task));
    queued_.store(queue_.size());
  }
  cv_task_.notify_one();
}

std::function<void()> ThreadPool::TakeTask() {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop();
  queued_.store(queue_.size());
  return task;
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      UniqueMutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_task_.wait(lock);
      if (shutdown_ && queue_.empty()) return;
      task = TakeTask();
    }
    task();
  }
}

}  // namespace costdb
