#ifndef HISTEST_COMMON_THREAD_POOL_H_
#define HISTEST_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace histest {

/// Persistent work-queue thread pool. Workers are spawned once and reused
/// across calls, so repeated small parallel regions (the trial harness's
/// trials, the column blocks of a dense count draw) pay no
/// thread-creation cost.
///
/// Run() hands out contiguous index chunks to at most `max_workers` pool
/// workers while the calling thread also participates, and returns when
/// every job has finished. Jobs must be independent and must not throw.
/// Concurrent Run() calls from different threads are safe; a Run() issued
/// from inside a job also works (the caller drains its own task, so there
/// is no deadlock), though all tasks share the same workers.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Runs `count` index-addressed jobs, using up to `max_workers` pool
  /// workers in addition to the calling thread. Blocks until all are done.
  void Run(int64_t count, int max_workers,
           const std::function<void(int64_t)>& job);

  /// The process-wide pool used by ParallelFor. Sized so that the caller
  /// plus the workers cover max(hardware_concurrency, DefaultBenchThreads())
  /// executors; created on first use.
  static ThreadPool& Shared();

  /// The worker count Shared() uses (or would use): the sizing formula is
  /// pure, so provenance consumers (RunManifest's pool_workers field) can
  /// report it without forcing pool construction. The resolved size is also
  /// published as the histest.pool.workers gauge — there is no stderr
  /// announcement; the manifest is the canonical record.
  static int SharedPlannedWorkers();

 private:
  struct Task;

  void WorkerLoop();
  void RunChunks(Task& task) HISTEST_EXCLUDES(mu_);

  /// Guards the work queue and the shutdown flag; also serializes each
  /// Task's completion bookkeeping (chunks_done / workers_allowed), which
  /// lives in the Task but is only ever touched with mu_ held.
  Mutex mu_;
  CondVar work_cv_;
  std::vector<std::shared_ptr<Task>> queue_ HISTEST_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  bool stop_ HISTEST_GUARDED_BY(mu_) = false;
};

/// Runs `count` index-addressed jobs on up to `threads` concurrent
/// executors (threads <= 1 runs inline) via the shared persistent pool.
/// Jobs must be independent; the caller owns any synchronization of shared
/// outputs (per-index output slots need none).
void ParallelFor(int64_t count, int threads,
                 const std::function<void(int64_t)>& job);

/// Number of worker threads the experiment harness uses by default. A
/// HISTEST_THREADS environment override (an integer >= 1) is honored
/// verbatim; without it the default is min(8, hardware_concurrency), at
/// least 1.
int DefaultBenchThreads();

}  // namespace histest

#endif  // HISTEST_COMMON_THREAD_POOL_H_
