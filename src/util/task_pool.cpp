#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>

#include <pthread.h>

namespace detect::util {

// One run_batch() call, shared by the submitter and every worker that picked
// it from the queue, so whoever finishes last never touches a dead record.
// Jobs are claimed by index from `next`; `jobs` (the submitter's vector) is
// only dereferenced for claimed indices, all of which have finished by the
// time run_batch() returns.
struct task_pool::batch {
  explicit batch(std::vector<std::function<void()>>& j)
      : jobs(j.data()), size(j.size()), remaining(j.size()) {}

  /// Claim the next job; false once every index is taken.
  bool claim(std::size_t& i) {
    i = next.fetch_add(1, std::memory_order_relaxed);
    return i < size;
  }

  /// Mark one claimed job finished; true when it was the last.
  bool finish() {
    std::scoped_lock lock(mu);
    return --remaining == 0;
  }

  std::function<void()>* jobs;
  std::size_t size;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;  // remaining reached 0
  std::size_t remaining;            // guarded by mu
};

task_pool::task_pool(int workers) {
  workers = std::clamp(workers, 0, k_max_workers);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

task_pool::~task_pool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int task_pool::workers() const noexcept {
  std::scoped_lock lock(mu_);
  return static_cast<int>(threads_.size());
}

void task_pool::ensure_workers(int n) {
  n = std::min(n, k_max_workers);
  std::scoped_lock lock(mu_);
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t task_pool::queued_batches() const {
  std::scoped_lock lock(mu_);
  return queue_.size();
}

void task_pool::run_batch(std::vector<std::function<void()>>& jobs) {
  std::shared_ptr<batch> b;
  std::size_t wake = 0;
  if (jobs.size() >= 2) {
    b = std::make_shared<batch>(jobs);
    std::scoped_lock lock(mu_);
    wake = std::min(jobs.size() - 1, threads_.size());
    if (wake > 0) queue_.push_back(b);
  }
  if (wake == 0) {
    // Inline: no workers (or nothing to share). A batch racing
    // ensure_workers() may still run here — same semantics, and jobs never
    // execute under the pool mutex.
    for (auto& job : jobs) job();
    return;
  }
  // One worker per job beyond the one the submitter starts on.
  for (std::size_t i = 0; i < wake; ++i) cv_.notify_one();

  for (std::size_t i; b->claim(i);) {
    jobs[i]();
    b->finish();
  }
  {
    // Every job is claimed; withdraw the entry if no worker popped it.
    std::scoped_lock lock(mu_);
    auto it = std::find(queue_.begin(), queue_.end(), b);
    if (it != queue_.end()) queue_.erase(it);
  }
  std::unique_lock lock(b->mu);
  b->done_cv.wait(lock, [&b] { return b->remaining == 0; });
}

void task_pool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    std::shared_ptr<batch> b = queue_.front();
    std::size_t i;
    const bool claimed = b->claim(i);
    if (!claimed || i + 1 == b->size) queue_.pop_front();
    if (!claimed) continue;
    lock.unlock();
    b->jobs[i]();
    if (b->finish()) b->done_cv.notify_all();
    b.reset();
    lock.lock();
  }
}

namespace {

// The process-wide pool. Never destroyed: its workers stay parked until the
// process exits, and a pool abandoned by fork() stays reachable here.
std::atomic<task_pool*> g_shared{nullptr};
std::atomic<task_pool*> g_abandoned{nullptr};

// A forked child inherits the pool object, but not one of its threads, and
// possibly a mutex some worker held at the fork. Abandon it untouched; the
// child's next shared() call builds a fresh pool.
void abandon_shared_in_child() {
  g_abandoned.store(g_shared.exchange(nullptr, std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

}  // namespace

task_pool& task_pool::shared() {
  task_pool* p = g_shared.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  static const int registered = pthread_atfork(nullptr, nullptr,
                                               &abandon_shared_in_child);
  (void)registered;
  auto fresh = std::make_unique<task_pool>(0);
  if (g_shared.compare_exchange_strong(p, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *p;
}

}  // namespace detect::util
