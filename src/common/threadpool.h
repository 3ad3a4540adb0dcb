#ifndef P3C_COMMON_THREADPOOL_H_
#define P3C_COMMON_THREADPOOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace p3c {

/// Fixed-size worker pool used by the MapReduce runner and the parallel
/// candidate generator.
///
/// Tasks are plain `std::function<void()>`; exceptions must not escape a
/// task submitted via `Submit` (the library is exception-free at its
/// boundaries, see common/status.h). `ParallelFor` is the exception-safe
/// entry point: it captures the first exception thrown by `fn` and
/// rethrows it on the caller after the barrier. `Wait()` blocks until
/// every submitted task has finished, which the runner uses as its
/// per-phase barrier.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means `HardwareConcurrency()`.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until all tasks submitted so far have completed.
  void Wait();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for all of
  /// them. `fn` must be safe to call concurrently. If any invocation
  /// throws, the first exception (in completion order) is rethrown on
  /// the caller once all workers have stopped; remaining unclaimed
  /// indices are skipped, so some `fn(i)` may never run after a throw.
  ///
  /// Work distribution is atomic-counter chunk claiming: one closure per
  /// worker, each claiming `grain`-sized index ranges off a shared
  /// counter, so tens of thousands of indices cost a handful of queue
  /// operations instead of one lock round-trip each. The auto grain
  /// (`grain == 0`) targets ~8 claims per worker for load balance.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// ParallelFor with an explicit claim granularity: workers claim
  /// `grain` consecutive indices at a time (0 = auto). Larger grains cut
  /// counter contention for cheap bodies; grain 1 maximizes balance for
  /// expensive ones.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t)>& fn);

  /// ParallelFor with at most `max_workers` concurrent claimants (0 =
  /// no cap). For CPU-bound phases, claimants beyond the machine's core
  /// count are pure scheduling overhead — the work is serialized by the
  /// hardware anyway, the context switches are not. Callers with purely
  /// compute-bound bodies pass HardwareConcurrency(); a cap of 1 runs
  /// the whole loop inline on the caller. Do NOT cap loops whose bodies
  /// block on each other (they need real oversubscription).
  void ParallelForCapped(size_t n, size_t max_workers, size_t grain,
                         const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_{"ThreadPool::mu_"};
  std::queue<std::function<void()>> queue_ P3C_GUARDED_BY(mu_);
  CondVar cv_task_;
  CondVar cv_done_;
  size_t pending_ P3C_GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool stop_ P3C_GUARDED_BY(mu_) = false;
};

/// Ranges ForEachRange splits `n` items into: 1 when `pool` is null or
/// n is 0, else min(n, 4 x threads). A pure function of (n, threads), so
/// partials merged in range order reduce bit-identically run to run.
inline size_t NumTasks(size_t n, const ThreadPool* pool) {
  if (pool == nullptr || n == 0) return 1;
  return std::min(n, pool->num_threads() * 4);
}

/// Runs `fn(task, begin, end)` over the NumTasks(n, pool) = T ranges
/// [n * task / T, n * (task + 1) / T); inline when T is 1.
template <typename Fn>
void ForEachRange(size_t n, ThreadPool* pool, const Fn& fn) {
  const size_t num_tasks = NumTasks(n, pool);
  if (num_tasks == 1) {
    fn(size_t{0}, size_t{0}, n);
    return;
  }
  pool->ParallelFor(num_tasks, [&](size_t task) {
    fn(task, n * task / num_tasks, n * (task + 1) / num_tasks);
  });
}

}  // namespace p3c

#endif  // P3C_COMMON_THREADPOOL_H_
