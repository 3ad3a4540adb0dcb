#ifndef P3C_MAPREDUCE_STRAGGLER_H_
#define P3C_MAPREDUCE_STRAGGLER_H_

// Straggler control for the MapReduce engine (DESIGN.md §11): a
// per-runner watchdog thread that enforces wall-clock task deadlines
// and drives the heartbeat sampler.
//
// The watchdog never touches task state directly — it only invokes the
// `kill` closure the runner registered, which flips the attempt's
// deadline flag and cancels its CancellationSource. The deadline is
// carried per entry so the watchdog itself is stateless across jobs.
//
// Lock ordering: watchdog `mu_` is taken FIRST, then any lock the kill
// closure or the sampler takes (the cancellation state mutex). The
// debug lock-order checker enforces these edges by lock name.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/sync.h"

namespace p3c::mr {

/// Monitors in-flight task attempts. One instance per LocalRunner; the
/// thread starts lazily on the first Register or StartSampler, so
/// runners that enable neither deadlines nor the heartbeat pay nothing.
class TaskWatchdog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    Clock::time_point start{};
    /// Wall-clock deadline for this attempt; 0 disables. `kill` must
    /// be set when non-zero — it is invoked exactly once, under the
    /// watchdog mutex, when the deadline passes.
    double deadline_seconds = 0.0;
    std::function<void()> kill;
    // Internal state, owned by the watchdog.
    bool killed = false;
  };

  TaskWatchdog() = default;
  ~TaskWatchdog() { Shutdown(); }

  TaskWatchdog(const TaskWatchdog&) = delete;
  TaskWatchdog& operator=(const TaskWatchdog&) = delete;

  /// Registers an attempt; the returned id must be passed to
  /// Deregister when the attempt finishes (success or failure). `start`
  /// is stamped here so registration latency never counts against the
  /// deadline.
  uint64_t Register(Entry entry) {
    MutexLock lock(mu_);
    entry.start = Clock::now();
    const uint64_t id = next_id_++;
    entries_.emplace(id, std::move(entry));
    EnsureThreadLocked();
    ++epoch_;
    cv_.NotifyAll();
    return id;
  }

  /// Removes an entry. On return it is guaranteed that `kill` is not
  /// running and will not run for this entry (it executes under the
  /// same mutex), so the caller may release the state it mutates.
  void Deregister(uint64_t id) {
    MutexLock lock(mu_);
    entries_.erase(id);
  }

  /// Installs a periodic sampler (the heartbeat reporter, DESIGN.md
  /// §15) that runs `fn` on the watchdog thread every
  /// `interval_seconds`, reusing this thread instead of spawning a
  /// second monitor. One sampler at a time (a runner executes jobs
  /// sequentially); installing a new one replaces the old. `fn` runs
  /// under the watchdog mutex, same contract as the kill closure —
  /// keep it short (read counters, format, log).
  void StartSampler(double interval_seconds, std::function<void()> fn) {
    MutexLock lock(mu_);
    sampler_fn_ = std::move(fn);
    sampler_interval_ = interval_seconds;
    sampler_next_ =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(interval_seconds));
    EnsureThreadLocked();
    ++epoch_;
    cv_.NotifyAll();
  }

  /// Removes the sampler. On return `fn` is not running and will never
  /// run again (it only executes under the mutex held here).
  void StopSampler() {
    MutexLock lock(mu_);
    sampler_fn_ = nullptr;
  }

  /// Stops and joins the watchdog thread. Entries must already be
  /// deregistered (jobs complete before the runner is destroyed).
  void Shutdown() {
    std::thread to_join;
    {
      MutexLock lock(mu_);
      shutdown_ = true;
      ++epoch_;
      cv_.NotifyAll();
      to_join = std::move(thread_);
    }
    if (to_join.joinable()) to_join.join();
  }

 private:
  void EnsureThreadLocked() P3C_REQUIRES(mu_) {
    if (thread_.joinable()) return;
    shutdown_ = false;
    thread_ = std::thread([this] { Loop(); });
  }

  void Loop() {
    MutexLock lock(mu_);
    while (!shutdown_) {
      const Clock::time_point now = Clock::now();
      // Default wake-up far in the future; tightened below by the
      // nearest deadline and the sampler's next tick.
      Clock::time_point next_wake = now + std::chrono::seconds(1);
      for (auto& [id, e] : entries_) {
        if (e.deadline_seconds <= 0.0 || e.killed) continue;
        const Clock::time_point due =
            e.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(e.deadline_seconds));
        if (now >= due) {
          e.killed = true;
          if (e.kill) e.kill();
        } else {
          next_wake = std::min(next_wake, due);
        }
      }
      if (sampler_fn_) {
        if (now >= sampler_next_) {
          sampler_fn_();
          sampler_next_ =
              now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(sampler_interval_));
        }
        next_wake = std::min(next_wake, sampler_next_);
      }
      // Predicate-looped wait (spurious wakeups re-wait): wake at
      // `next_wake`, or as soon as any state change bumped `epoch_` —
      // a newly registered entry may carry an *earlier* deadline than
      // the one this pass computed, so a plain sleep-to-next_wake
      // would miss it.
      const uint64_t seen = epoch_;
      cv_.WaitUntil(mu_, next_wake, [this, seen]() P3C_REQUIRES(mu_) {
        return shutdown_ || epoch_ != seen;
      });
    }
  }

  Mutex mu_{"TaskWatchdog::mu_"};
  CondVar cv_;
  std::thread thread_ P3C_GUARDED_BY(mu_);
  bool shutdown_ P3C_GUARDED_BY(mu_) = false;
  /// Bumped (under mu_) by every state change the Loop must react to;
  /// the Loop's wait predicate re-waits until it moves or shutdown.
  uint64_t epoch_ P3C_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ P3C_GUARDED_BY(mu_) = 1;
  std::unordered_map<uint64_t, Entry> entries_ P3C_GUARDED_BY(mu_);
  // Heartbeat sampler state, all under mu_.
  std::function<void()> sampler_fn_ P3C_GUARDED_BY(mu_);
  double sampler_interval_ P3C_GUARDED_BY(mu_) = 0.0;
  Clock::time_point sampler_next_ P3C_GUARDED_BY(mu_){};
};

}  // namespace p3c::mr

#endif  // P3C_MAPREDUCE_STRAGGLER_H_
