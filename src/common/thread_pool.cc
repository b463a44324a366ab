#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/cli.h"
#include "obs/obs.h"
#include "obs/names.h"

namespace histest {

/// One parallel region. Chunks are handed out through an atomic cursor;
/// completion is tracked per chunk under the pool mutex so the submitting
/// thread can sleep until the last in-flight chunk retires.
///
/// chunks_done and workers_allowed are guarded by the owning pool's mu_
/// (not expressible as a HISTEST_GUARDED_BY attribute from a nested struct;
/// every access below sits inside a MutexLock(mu_) scope).
struct ThreadPool::Task {
  int64_t count = 0;
  int64_t chunk = 1;
  int64_t chunks_total = 0;
  const std::function<void(int64_t)>* job = nullptr;
  std::atomic<int64_t> next{0};
  int64_t chunks_done = 0;   // guarded by ThreadPool::mu_
  int workers_allowed = 0;   // remaining pool-worker slots, guarded by mu_
  CondVar done;

  bool HasWork() const { return next.load(std::memory_order_relaxed) < count; }
};

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Task> task;
    {
      MutexLock lock(mu_);
      while (true) {
        for (auto& t : queue_) {
          if (t->workers_allowed > 0 && t->HasWork()) {
            task = t;
            break;
          }
        }
        if (task != nullptr) {
          --task->workers_allowed;
          break;
        }
        if (stop_) return;
        work_cv_.Wait(mu_);
      }
    }
    RunChunks(*task);
  }
}

void ThreadPool::RunChunks(Task& task) {
  int64_t finished = 0;
  while (true) {
    const int64_t start =
        task.next.fetch_add(task.chunk, std::memory_order_relaxed);
    if (start >= task.count) break;
    const int64_t end = std::min(start + task.chunk, task.count);
    for (int64_t i = start; i < end; ++i) (*task.job)(i);
    ++finished;
  }
  if (finished == 0) return;
  MutexLock lock(mu_);
  task.chunks_done += finished;
  HISTEST_DCHECK_LE(task.chunks_done, task.chunks_total);
  if (task.chunks_done == task.chunks_total) task.done.NotifyAll();
}

void ThreadPool::Run(int64_t count, int max_workers,
                     const std::function<void(int64_t)>& job) {
  HISTEST_CHECK_GE(count, 0);
  if (count == 0) return;
  obs::ScopedTimer run_timer(obs::names::kPoolRunSeconds);
  obs::AddCount(obs::names::kPoolRuns, 1);
  obs::AddCount(obs::names::kPoolJobs, count);
  auto task = std::make_shared<Task>();
  task->count = count;
  task->job = &job;
  const int helpers = std::max(
      0, std::min(max_workers, static_cast<int>(workers_.size())));
  task->workers_allowed = helpers;
  // ~4 chunks per executor balances scheduling overhead against stragglers.
  task->chunk = std::max<int64_t>(1, count / ((helpers + 1) * 4));
  task->chunks_total = (count + task->chunk - 1) / task->chunk;
  HISTEST_DCHECK_GE(task->chunks_total, 1);
  {
    MutexLock lock(mu_);
    queue_.push_back(task);
    obs::SetGauge(obs::names::kPoolQueueDepth,
                  static_cast<int64_t>(queue_.size()));
  }
  if (helpers > 0) work_cv_.NotifyAll();
  RunChunks(*task);
  MutexLock lock(mu_);
  // The predicate runs with mu_ held (CondVar::Wait's contract); the Task
  // fields it reads are mu_-guarded by convention (see Task's comment).
  task->done.Wait(mu_,
                  [&]() { return task->chunks_done == task->chunks_total; });
  queue_.erase(std::find(queue_.begin(), queue_.end(), task));
  obs::SetGauge(obs::names::kPoolQueueDepth,
                static_cast<int64_t>(queue_.size()));
}

int ThreadPool::SharedPlannedWorkers() {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Workers + the calling thread should cover the largest sensible
  // request, including an oversized HISTEST_THREADS override.
  return std::max(1, std::max(hw, DefaultBenchThreads()) - 1);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(SharedPlannedWorkers());
  // The resolved size is observable through the gauge and the run manifest
  // (pool_workers field); deliberately no stderr announcement, so the obs
  // layer is the single channel for sizing provenance.
  obs::SetGauge(obs::names::kPoolWorkers, pool.size());
  return pool;
}

void ParallelFor(int64_t count, int threads,
                 const std::function<void(int64_t)>& job) {
  HISTEST_CHECK_GE(count, 0);
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (int64_t i = 0; i < count; ++i) job(i);
    return;
  }
  ThreadPool::Shared().Run(count, threads - 1, job);
}

int DefaultBenchThreads() {
  // Anything other than a clean integer in [1, 65536] — trailing garbage
  // ("4x"), overflow, empty strings — is rejected rather than clamped.
  const EnvValue<int64_t> env =
      ParseEnvInt("HISTEST_THREADS", 1, 1 << 16, -1);
  if (env.present && env.valid) {
    return static_cast<int>(env.value);  // explicit override: no cap
  }
  if (env.present && !env.raw.empty() &&
      ShouldWarnOnceForEnv("HISTEST_THREADS", env.raw)) {
    // Warn once per distinct bad value, not once per call: the harness
    // calls this in loops, but a changed-yet-still-bad setting (common in
    // CI matrix edits) should also be surfaced. The dedup registry lives
    // in common/cli behind an annotated mutex, so racing first readers
    // elect exactly one warner.
    std::fprintf(stderr,
                 "histest: ignoring HISTEST_THREADS='%s' (%s); "
                 "falling back to min(8, hardware_concurrency)\n",
                 env.raw.c_str(), env.error.c_str());
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(std::min(8u, hw));
}

}  // namespace histest
