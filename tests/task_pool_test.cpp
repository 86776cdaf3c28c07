// Pins of util::task_pool, the caller-runs batch pool behind the sharded
// executor's shard drivers and the per-object checker's lanes: inline mode,
// the submitter draining its own batch, concurrent and nested submitters,
// growth racing submission, and nothing of a batch outliving its
// run_batch() call.
#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/task_pool.hpp"

#include <sys/wait.h>
#include <unistd.h>

namespace {

using detect::util::task_pool;

std::vector<std::function<void()>> counting_jobs(std::size_t n,
                                                 std::atomic<int>& hits) {
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.emplace_back([&hits] { hits.fetch_add(1); });
  }
  return jobs;
}

TEST(task_pool, zero_workers_runs_inline_in_order) {
  task_pool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<int> order;
  bool all_on_submitter = true;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.emplace_back([&, i] {
      order.push_back(i);
      all_on_submitter &= std::this_thread::get_id() == self;
    });
  }
  pool.run_batch(jobs);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(all_on_submitter);
  EXPECT_EQ(pool.queued_batches(), 0u);
}

// Every worker (and the submitter that occupied them) is parked on a latch;
// a second submitter's batch must still finish — on its own thread.
TEST(task_pool, submitter_drains_its_own_batch_while_workers_are_held) {
  constexpr int k_workers = 3;
  task_pool pool(k_workers);
  std::latch release(1);
  std::atomic<int> held{0};
  std::thread holder([&] {
    std::vector<std::function<void()>> blockers;
    for (int i = 0; i < k_workers + 1; ++i) {
      blockers.emplace_back([&] {
        held.fetch_add(1);
        release.wait();
      });
    }
    pool.run_batch(blockers);
  });
  while (held.load() < k_workers + 1) std::this_thread::yield();

  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int> on_self{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.emplace_back([&] {
      if (std::this_thread::get_id() == self) on_self.fetch_add(1);
    });
  }
  pool.run_batch(jobs);
  EXPECT_EQ(on_self.load(), 16);

  release.count_down();
  holder.join();
  EXPECT_EQ(pool.queued_batches(), 0u);
}

TEST(task_pool, concurrent_submitters_each_get_exactly_their_jobs) {
  task_pool pool(3);
  constexpr int k_threads = 4;
  constexpr int k_batches = 200;
  constexpr std::size_t k_jobs = 8;
  std::vector<std::atomic<int>> hits(k_threads);
  std::vector<int> short_batches(k_threads, 0);
  std::vector<std::thread> submitters;
  for (int t = 0; t < k_threads; ++t) {
    submitters.emplace_back([&, t] {
      for (int b = 0; b < k_batches; ++b) {
        std::atomic<int> mine{0};
        auto jobs = counting_jobs(k_jobs, mine);
        pool.run_batch(jobs);
        // Every job of this batch finished before run_batch returned.
        if (mine.load() != static_cast<int>(k_jobs)) ++short_batches[t];
        hits[t].fetch_add(mine.load());
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  for (int t = 0; t < k_threads; ++t) {
    EXPECT_EQ(short_batches[t], 0) << "thread " << t;
    EXPECT_EQ(hits[t].load(), k_batches * static_cast<int>(k_jobs))
        << "thread " << t;
  }
  EXPECT_EQ(pool.queued_batches(), 0u);
}

TEST(task_pool, a_job_may_submit_a_nested_batch) {
  task_pool pool(2);
  std::atomic<int> inner{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 6; ++i) {
    outer.emplace_back([&] {
      auto jobs = counting_jobs(5, inner);
      pool.run_batch(jobs);
    });
  }
  pool.run_batch(outer);
  EXPECT_EQ(inner.load(), 30);
  EXPECT_EQ(pool.queued_batches(), 0u);
}

TEST(task_pool, ensure_workers_races_run_batch) {
  task_pool pool(0);
  std::atomic<bool> grown{false};
  std::thread grower([&] {
    for (int n = 1; n <= 8; ++n) {
      pool.ensure_workers(n);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    grown.store(true);
  });
  int batches = 0;
  std::atomic<int> hits{0};
  while (!grown.load() || batches < 50) {
    auto jobs = counting_jobs(6, hits);
    pool.run_batch(jobs);
    ++batches;
    ASSERT_EQ(hits.load(), 6 * batches);
  }
  grower.join();
  EXPECT_EQ(pool.workers(), 8);
  pool.ensure_workers(task_pool::k_max_workers + 10);
  EXPECT_EQ(pool.workers(), task_pool::k_max_workers);
}

// When run_batch returns, no job of its batch is still running and the queue
// holds nothing of it — even when workers claimed the slow jobs.
TEST(task_pool, nothing_of_a_batch_outlives_run_batch) {
  task_pool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> running{0};
    std::atomic<int> finished{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 5; ++i) {
      jobs.emplace_back([&, i] {
        running.fetch_add(1);
        if (i % 2 == 1) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        running.fetch_sub(1);
        finished.fetch_add(1);
      });
    }
    pool.run_batch(jobs);
    ASSERT_EQ(running.load(), 0) << "round " << round;
    ASSERT_EQ(finished.load(), 5) << "round " << round;
    ASSERT_EQ(pool.queued_batches(), 0u) << "round " << round;
  }
}

TEST(task_pool, shared_pool_is_one_instance) {
  EXPECT_EQ(&task_pool::shared(), &task_pool::shared());
  task_pool::shared().ensure_workers(2);
  EXPECT_GE(task_pool::shared().workers(), 2);
  std::atomic<int> hits{0};
  auto jobs = counting_jobs(10, hits);
  task_pool::shared().run_batch(jobs);
  EXPECT_EQ(hits.load(), 10);
}

// A forked child inherits the shared pool object but none of its threads; it
// must get a fresh pool instead — worker-less until it asks, then working.
TEST(task_pool, forked_child_gets_a_fresh_shared_pool) {
  task_pool::shared().ensure_workers(3);
  std::atomic<int> warm{0};
  auto warmup = counting_jobs(8, warm);
  task_pool::shared().run_batch(warmup);
  ASSERT_EQ(warm.load(), 8);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 0;
    task_pool& pool = task_pool::shared();
    if (pool.workers() != 0) code |= 1;
    pool.ensure_workers(2);
    if (pool.workers() != 2) code |= 2;
    std::atomic<int> hits{0};
    auto jobs = counting_jobs(6, hits);
    pool.run_batch(jobs);
    if (hits.load() != 6) code |= 4;
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
