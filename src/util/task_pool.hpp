// util::task_pool — a persistent, caller-runs batch worker pool.
//
// One process-wide instance (shared()) drives both the sharded executor's
// shard worlds and the per-object checker's lanes. Workers live for the
// pool's lifetime, so thousands of run_batch() calls reuse the same OS
// threads instead of paying a spawn/join per batch. Batches are tracked
// independently: concurrent run_batch() calls from different submitter
// threads interleave on the shared workers, and each submitter waits only
// for its own jobs.
//
// The submitter is a worker for its own batch: it claims and runs jobs from
// the batch it queued, and only the jobs a woken worker claimed first are
// waited for. A batch of short jobs therefore usually finishes on the
// submitting thread before any worker wakes, a big batch still spreads over
// the workers, and a job that submits a nested batch cannot deadlock (its
// own thread can drain it).
//
// With zero workers the pool degrades to inline execution on the submitting
// thread — identical semantics, zero synchronization — which is the graceful
// fallback on one-core hosts where parallel drivers would only add handoff
// latency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace detect::util {

class task_pool {
 public:
  /// Hard cap on pool growth: far above any real shard count or per-object
  /// fan-out, small enough that a buggy jobs value cannot fork-bomb threads.
  static constexpr int k_max_workers = 64;

  explicit task_pool(int workers);
  ~task_pool();

  task_pool(const task_pool&) = delete;
  task_pool& operator=(const task_pool&) = delete;

  int workers() const noexcept;

  /// Grow the pool to at least `n` workers (capped at k_max_workers;
  /// shrinking is not supported — idle workers cost one parked thread each).
  /// Thread-safe against concurrent run_batch() calls.
  void ensure_workers(int n);

  /// Run every job to completion; the submitting thread runs the jobs no
  /// worker has claimed yet. Jobs must not throw (callers capture exceptions
  /// into per-job result slots) and may call run_batch() themselves. Inline
  /// on the submitting thread when the pool has no workers. Safe to call
  /// from several threads at once; each call returns once exactly its own
  /// jobs have finished, and by then the queue holds nothing of its batch.
  void run_batch(std::vector<std::function<void()>>& jobs);

  /// Batches waiting in the queue for a worker. Zero whenever no
  /// run_batch() call is in flight.
  std::size_t queued_batches() const;

  /// Process-wide pool, lazily created with zero workers. Consumers that
  /// want parallelism call ensure_workers() first; until someone does, every
  /// shared batch runs inline. Sharded executors and the per-object checker
  /// both drive their fan-out through this instance, so one set of threads
  /// serves the whole process. A child process created by fork() inherits
  /// the object but none of its threads; its first shared() call builds a
  /// fresh, worker-less pool instead.
  static task_pool& shared();

 private:
  struct batch;

  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;  // workers: work available / stop
  /// Batches with unclaimed jobs (front first). An entry leaves when its
  /// last job is claimed, or when its submitter withdraws it.
  std::deque<std::shared_ptr<batch>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace detect::util
