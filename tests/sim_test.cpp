// Tests for the deterministic simulator: step-token serialization, crash
// delivery/unwinding, scheduler policies, direct fiber-to-fiber handoff, and
// the exhaustive explorer.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/replay.hpp"
#include "nvm/pcell.hpp"
#include "sim/explorer.hpp"
#include "sim/world.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;

TEST(world, single_process_task_runs_to_completion) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    c.store(1);
    c.store(2);
  });
  sim::round_robin_scheduler rr;
  auto rep = w.run(rr);
  EXPECT_EQ(c.peek(), 2);
  EXPECT_EQ(rep.steps, 2u);
}

TEST(world, steps_serialize_memory_accesses) {
  sim::world w(2);
  nvm::pcell<int> c(0, w.domain());
  // Two incrementers; each load/CAS is one step. With the step token, the
  // interleaving is controlled and the final value is deterministic per
  // schedule.
  auto incr = [&] {
    for (int i = 0; i < 10; ++i) {
      for (;;) {
        int cur = c.load();
        if (c.compare_exchange(cur, cur + 1)) break;
      }
    }
  };
  w.submit(0, incr);
  w.submit(1, incr);
  sim::round_robin_scheduler rr;
  w.run(rr);
  EXPECT_EQ(c.peek(), 20);
}

TEST(world, deterministic_replay_same_seed) {
  auto run_once = [](std::uint64_t seed) {
    sim::world w(3);
    nvm::pcell<int> c(0, w.domain());
    for (int p = 0; p < 3; ++p) {
      w.submit(p, [&c, p] {
        for (int i = 0; i < 5; ++i) {
          int cur = c.load();
          c.store(cur * 3 + p);
        }
      });
    }
    sim::random_scheduler sched(seed);
    w.run(sched);
    return c.peek();
  };
  int a = run_once(12345);
  int b = run_once(12345);
  int d = run_once(54321);
  EXPECT_EQ(a, b) << "same seed must replay identically";
  (void)d;  // different seed may or may not differ; only determinism matters
}

TEST(world, manual_stepping_controls_interleaving) {
  sim::world w(2);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] { c.store(1); });
  w.submit(1, [&] { c.store(2); });
  // Step p1 first, then p0: final value must be p0's.
  w.step(1);
  w.step(0);
  EXPECT_FALSE(w.busy());
  EXPECT_EQ(c.peek(), 1);
}

TEST(world, crash_unwinds_inflight_tasks) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  std::atomic<bool> reached_end{false};
  w.submit(0, [&] {
    c.store(1);
    c.store(2);
    reached_end = true;
  });
  w.step(0);  // performs store(1); parked before store(2)
  w.crash();
  EXPECT_FALSE(reached_end.load());
  EXPECT_TRUE(w.last_task_interrupted(0));
  EXPECT_EQ(c.peek(), 1) << "private-cache NVM keeps the first store";
  EXPECT_FALSE(w.busy());
}

TEST(world, crash_reverts_unflushed_shared_cache_state) {
  sim::world w(1);
  w.domain().set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> c(0, w.domain());
  w.domain().persist_all();
  w.submit(0, [&] {
    c.store(1);
    c.store(2);
  });
  w.step(0);
  w.crash();
  EXPECT_EQ(c.peek(), 0) << "nothing was flushed; cache reverts";
}

TEST(world, task_exception_propagates_to_driver) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    c.load();
    throw std::runtime_error("boom");
  });
  sim::round_robin_scheduler rr;
  EXPECT_THROW(w.run(rr), std::runtime_error);
}

TEST(world, pending_access_reports_kind) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    c.load();
    c.store(1);
  });
  EXPECT_EQ(w.pending_access(0), nvm::access::shared_load);
  w.step(0);
  EXPECT_EQ(w.pending_access(0), nvm::access::shared_store);
  w.step(0);
  EXPECT_FALSE(w.busy());
}

TEST(world, step_limit_guard) {
  sim::world_config cfg;
  cfg.max_steps = 50;
  sim::world w(1, cfg);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] {
    for (;;) c.load();  // livelock on purpose
  });
  sim::round_robin_scheduler rr;
  auto rep = w.run(rr);
  EXPECT_TRUE(rep.hit_step_limit);
}

TEST(world, submit_to_busy_process_throws) {
  sim::world w(1);
  nvm::pcell<int> c(0, w.domain());
  w.submit(0, [&] { c.load(); });
  EXPECT_THROW(w.submit(0, [] {}), std::logic_error);
  w.step(0);  // drain
}

TEST(world, step_non_runnable_throws) {
  sim::world w(2);
  EXPECT_THROW(w.step(0), std::logic_error);
}

TEST(world, pending_access_requires_yielded_process) {
  sim::world w(1);
  EXPECT_THROW(w.pending_access(0), std::logic_error);
}

TEST(world, nprocs_validation) {
  EXPECT_THROW(sim::world(0), std::invalid_argument);
}

TEST(world, crash_with_no_tasks_is_a_memory_event_only) {
  sim::world w(2);
  w.domain().set_model(nvm::cache_model::shared_cache);
  nvm::pcell<int> c(0, w.domain());
  c.store(5);  // unflushed
  w.crash();
  EXPECT_EQ(c.peek(), 0);
  EXPECT_EQ(w.domain().counters().snapshot().crashes, 1u);
}

TEST(world, epoch_advances_on_every_crash) {
  sim::world w(1);
  EXPECT_EQ(w.epoch(), 1u);
  w.crash();
  w.crash();
  EXPECT_EQ(w.epoch(), 3u) << "the system advances the epoch per crash";
}

TEST(world, epoch_survives_shared_cache_crash) {
  sim::world w(1);
  w.domain().set_model(nvm::cache_model::shared_cache);
  w.crash();
  EXPECT_EQ(w.epoch(), 2u) << "the epoch write is explicitly flushed";
  w.crash();
  EXPECT_EQ(w.epoch(), 3u);
}

TEST(world, epoch_readable_by_simulated_processes) {
  sim::world w(1);
  w.crash();
  std::uint64_t seen = 0;
  w.submit(0, [&] { seen = w.epoch_cell().load(); });
  sim::round_robin_scheduler rr;
  w.run(rr);
  EXPECT_EQ(seen, 2u);
}

TEST(scheduler, round_robin_cycles) {
  sim::round_robin_scheduler rr;
  std::vector<int> ready{3, 5, 9};
  EXPECT_EQ(rr.pick(ready, 0), 3);
  EXPECT_EQ(rr.pick(ready, 1), 5);
  EXPECT_EQ(rr.pick(ready, 2), 9);
  EXPECT_EQ(rr.pick(ready, 3), 3);
}

// The stock schedulers take `x % n` through sim::divisor, which trades the
// divide instruction for multiplications. It must equal `%` for every draw:
// the 64-bit edges and a million xorshift draws, over every runnable size up
// to 64 and a few far beyond what a run loop meets.
TEST(scheduler, division_free_remainder_equals_modulo) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (std::uint64_t n : {65'537ull, 1'000'003ull, 0xffff'ffffull,
                          0x1'0000'0001ull, 0x8000'0000'0000'0005ull,
                          ~0ull}) {
    sizes.push_back(n);
  }
  std::vector<std::uint64_t> draws{0, 1, 1ull << 63, ~0ull};
  std::uint64_t state = 12345;
  for (int i = 0; i < 1'000'000; ++i) draws.push_back(sim::next_rand(state));
  for (std::uint64_t n : sizes) {
    const sim::divisor d(n);
    std::uint64_t mismatches = 0;
    for (std::uint64_t x : draws) mismatches += d.remainder(x) != x % n;
    EXPECT_EQ(mismatches, 0u) << "divisor " << n;
  }
  // The per-size cache the schedulers hold agrees too, with the size
  // changing from pick to pick as under tso/pso.
  sim::remainder_cache cache;
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const std::size_t n = i % 97 == 0 ? 65'537 : 1 + i % 64;
    mismatches += cache.remainder(draws[i], n) != draws[i] % n;
  }
  EXPECT_EQ(mismatches, 0u);
}

// Both stock schedulers pick exactly what `%` picks while the runnable set
// grows and shrinks between picks.
TEST(scheduler, picks_equal_modulo_picks_as_the_runnable_set_changes) {
  sim::random_scheduler rnd(42);
  sim::round_robin_scheduler rr;
  std::uint64_t state = 42 | 1;
  std::uint64_t next = 0;
  for (std::uint64_t step = 0; step < 20'000; ++step) {
    std::vector<int> ready;
    for (int p = 0; p < 1 + static_cast<int>(step * 7 % 40); ++p) {
      ready.push_back(3 * p);
    }
    const std::uint64_t draw = sim::next_rand(state);
    ASSERT_EQ(rnd.pick(ready, step), ready[draw % ready.size()])
        << "step " << step;
    ASSERT_EQ(rr.pick(ready, step), ready[next++ % ready.size()])
        << "step " << step;
  }
}

TEST(scheduler, scripted_follows_script_then_falls_back) {
  sim::scripted_scheduler s({1, 1, 0});
  std::vector<int> ready{0, 1};
  EXPECT_EQ(s.pick(ready, 0), 1);
  EXPECT_EQ(s.pick(ready, 1), 1);
  EXPECT_EQ(s.pick(ready, 2), 0);
  EXPECT_EQ(s.pick(ready, 3), 0) << "exhausted script falls back to lowest";
}

TEST(crash_plan, at_steps_fires_once_each) {
  sim::crash_at_steps plan({2, 2, 5});
  EXPECT_FALSE(plan.should_crash(1));
  EXPECT_TRUE(plan.should_crash(2));
  EXPECT_TRUE(plan.should_crash(2)) << "duplicate entry fires again";
  EXPECT_FALSE(plan.should_crash(2));
  EXPECT_TRUE(plan.should_crash(5));
  EXPECT_FALSE(plan.should_crash(5));
}

// ---- direct handoff ---------------------------------------------------------
//
// Inside run() the fiber engine hands each step straight from one fiber to
// the next and returns to the driver only when it must; the thread engine
// returns after every step. Each edge case below runs on both engines and
// must come out the same.

constexpr sim::engine_kind k_engines[] = {sim::engine_kind::fiber,
                                          sim::engine_kind::thread};

/// Counts the task frames destroyed, by return or by unwinding.
struct frame_guard {
  int& gone;
  ~frame_guard() { ++gone; }
};

/// Round robin by step number; throws std::out_of_range at step `at`.
class throwing_pick final : public sim::scheduler {
 public:
  explicit throwing_pick(std::uint64_t at) : at_(at) {}
  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override {
    if (step_no == at_) {
      throw std::out_of_range("pick at step " + std::to_string(step_no));
    }
    return runnable[step_no % runnable.size()];
  }

 private:
  std::uint64_t at_;
};

/// Throws std::out_of_range from should_crash at step `at`.
class throwing_plan final : public sim::crash_plan {
 public:
  explicit throwing_plan(std::uint64_t at) : at_(at) {}
  bool should_crash(std::uint64_t step_no) override {
    if (step_no == at_) {
      throw std::out_of_range("plan at step " + std::to_string(step_no));
    }
    return false;
  }

 private:
  std::uint64_t at_;
};

/// crash_at_steps that also records every step number it is asked about.
class recording_plan final : public sim::crash_plan {
 public:
  explicit recording_plan(std::vector<std::uint64_t> at)
      : inner_(std::move(at)) {}
  bool should_crash(std::uint64_t step_no) override {
    asked.push_back(step_no);
    return inner_.should_crash(step_no);
  }
  std::vector<std::uint64_t> asked;

 private:
  sim::crash_at_steps inner_;
};

// A scheduler's or crash plan's exception leaves run() on the driving thread
// with its own type. It must not unwind the parked tasks as if they had
// thrown: they stay parked until the world destructs, and a fresh world on
// the same thread then runs normally.
TEST(handoff, decision_exception_leaves_run_without_unwinding_tasks) {
  for (sim::engine_kind engine : k_engines) {
    test::engine_guard guard(engine);
    for (bool from_plan : {false, true}) {
      SCOPED_TRACE(std::string(sim::engine_name(engine)) +
                   (from_plan ? " crash plan" : " scheduler"));
      int gone = 0;
      int saw_exception = 0;
      {
        sim::world w(3);
        nvm::pcell<int> c(0, w.domain());
        for (int p = 0; p < 3; ++p) {
          w.submit(p, [&] {
            frame_guard g{gone};
            try {
              for (int i = 0; i < 10; ++i) c.store(i);
            } catch (const std::out_of_range&) {
              ++saw_exception;
              throw;
            }
          });
        }
        throwing_pick pick(from_plan ? 1000 : 7);
        throwing_plan plan(from_plan ? 7 : 1000);
        EXPECT_THROW(w.run(pick, &plan), std::out_of_range);
        EXPECT_EQ(saw_exception, 0);
        EXPECT_EQ(gone, 0) << "every task is still parked";
        EXPECT_EQ(w.steps_taken(), 7u);
        EXPECT_EQ(w.runnable(), (std::vector<int>{0, 1, 2}));
      }
      EXPECT_EQ(gone, 3) << "the world unwound its parked tasks";

      sim::world again(2);
      nvm::pcell<int> d(0, again.domain());
      for (int p = 0; p < 2; ++p) {
        again.submit(p, [&] {
          for (int i = 0; i < 5; ++i) d.store(d.load() + 1);
        });
      }
      sim::round_robin_scheduler rr;
      sim::run_report rep = again.run(rr);
      EXPECT_EQ(rep.steps, 20u);
      EXPECT_FALSE(again.busy());
    }
  }
}

// A task that throws in a process the driver never entered directly (under
// the fiber engine it is reached by handoff) still fails run() with its own
// exception, after the same number of steps.
TEST(handoff, task_exception_mid_chain_propagates) {
  std::vector<std::uint64_t> steps;
  for (sim::engine_kind engine : k_engines) {
    test::engine_guard guard(engine);
    SCOPED_TRACE(sim::engine_name(engine));
    sim::world w(3);
    nvm::pcell<int> c(0, w.domain());
    w.submit(0, [&] { for (int i = 0; i < 6; ++i) c.store(i); });
    w.submit(1, [&] { for (int i = 0; i < 6; ++i) c.store(i); });
    w.submit(2, [&] {
      c.load();
      c.load();
      throw std::runtime_error("p2 failed");
    });
    sim::round_robin_scheduler rr;
    try {
      w.run(rr);
      ADD_FAILURE() << "run() returned";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "p2 failed");
    }
    steps.push_back(w.steps_taken());
    EXPECT_EQ(w.runnable(), (std::vector<int>{0, 1}));
  }
  EXPECT_EQ(steps[0], steps[1]);
  EXPECT_EQ(steps[0], 6u) << "p2's second load is step 6 under round robin";
}

// The step limit reached mid-chain yields the same report on both engines,
// and the strands left parked unwind when the world is destroyed.
TEST(handoff, step_limit_mid_chain_matches_and_unwinds) {
  std::vector<std::string> notes;
  for (sim::engine_kind engine : k_engines) {
    test::engine_guard guard(engine);
    SCOPED_TRACE(sim::engine_name(engine));
    int gone = 0;
    {
      sim::world_config cfg;
      cfg.max_steps = 37;
      sim::world w(3, cfg);
      nvm::pcell<int> c(0, w.domain());
      for (int p = 0; p < 3; ++p) {
        w.submit(p, [&] {
          frame_guard g{gone};
          for (;;) c.load();  // livelock on purpose
        });
      }
      sim::random_scheduler rs(5);
      sim::run_report rep = w.run(rs);
      EXPECT_TRUE(rep.hit_step_limit);
      EXPECT_EQ(rep.steps, 37u);
      notes.push_back(rep.limit_note);
      EXPECT_EQ(gone, 0);
    }
    EXPECT_EQ(gone, 3);
  }
  EXPECT_EQ(notes[0], notes[1]);
  EXPECT_EQ(notes[0],
            "step limit 37 hit under scheduler uniform_random(seed=5)");
}

// A crash plan firing mid-chain gives the same log on both engines, and the
// plan is asked exactly once per decision: once after every step and once
// after every crash — never twice for one due crash.
TEST(handoff, crash_mid_chain_gives_the_same_log) {
  std::vector<std::vector<std::string>> logs;
  for (sim::engine_kind engine : k_engines) {
    test::engine_guard guard(engine);
    SCOPED_TRACE(sim::engine_name(engine));
    std::vector<std::string> log;
    sim::world w(3);
    nvm::pcell<int> c(0, w.domain());
    auto task = [&](int pid, int ops) {
      return [&log, &c, pid, ops] {
        for (int i = 0; i < ops; ++i) {
          c.store(pid * 100 + i);
          log.push_back("p" + std::to_string(pid) + "." + std::to_string(i));
        }
      };
    };
    for (int p = 0; p < 3; ++p) w.submit(p, task(p, 5));
    recording_plan plan({5, 9});
    sim::random_scheduler rs(3);
    sim::run_report rep = w.run(rs, &plan, [&] {
      log.push_back("crash at " + std::to_string(w.steps_taken()));
      for (int p = 0; p < 3; ++p) w.submit(p, task(p, 2));
    });
    EXPECT_EQ(rep.crashes, 2u);
    EXPECT_EQ(rep.steps, 5u + 4u + 6u);
    EXPECT_EQ(plan.asked.size(), rep.steps + rep.crashes);
    log.push_back("final " + std::to_string(c.peek()));
    logs.push_back(log);
  }
  EXPECT_EQ(logs[0], logs[1]);
}

// world::step() after a run() is the low-level single step again: it
// returns to its caller after exactly one access.
TEST(handoff, step_after_run_returns_after_one_access) {
  for (sim::engine_kind engine : k_engines) {
    test::engine_guard guard(engine);
    SCOPED_TRACE(sim::engine_name(engine));
    sim::world w(2);
    nvm::pcell<int> a(0, w.domain());
    nvm::pcell<int> b(0, w.domain());
    for (int p = 0; p < 2; ++p) {
      w.submit(p, [&] {
        for (int i = 0; i < 3; ++i) a.store(a.load() + 1);
      });
    }
    sim::round_robin_scheduler rr;
    EXPECT_EQ(w.run(rr).steps, 12u);
    const int after_run = a.peek();
    w.submit(0, [&] {
      a.store(10);
      a.store(11);
    });
    w.submit(1, [&] {
      b.store(20);
      b.store(21);
    });
    w.step(1);
    EXPECT_EQ(w.steps_taken(), 13u);
    EXPECT_EQ(b.peek(), 20);
    EXPECT_EQ(a.peek(), after_run);
    w.step(0);
    EXPECT_EQ(w.steps_taken(), 14u);
    EXPECT_EQ(a.peek(), 10);
    EXPECT_EQ(b.peek(), 20);
    EXPECT_EQ(w.runnable(), (std::vector<int>{0, 1}));
    w.step(0);
    EXPECT_EQ(a.peek(), 11);
    EXPECT_EQ(w.runnable(), (std::vector<int>{1}));
  }
}

// ---- fiber-stack cache ------------------------------------------------------
//
// A dying world's fiber stacks go to a per-thread cache, and the next world
// built on the thread takes them back. Whatever the last world left on them
// (fibers unwound at the step limit, after a task exception, after a crash),
// a replay on reused stacks must be byte-identical. The Sanitize build runs
// this with the ASan fiber annotations on the reused stacks.

// 3 processes on 4 shards: 12 fiber stacks per replay.
const char* const k_cached_stack_scenario =
    "object 0 reg 0 64\n"
    "object 1 cas 0 64\n"
    "object 2 counter 0 64\n"
    "object 3 queue 0 64\n"
    "procs 3\n"
    "policy retry\n"
    "shared_cache 0\n"
    "sched_seed 77\n"
    "crash_steps 30\n"
    "backend sharded\n"
    "shards 4\n"
    "placement modulo\n"
    "script 0 reg_write:3:0 cas:0:5@1 ctr_add:2:0@2 enq:4:0@3 reg_read:0:0\n"
    "script 1 ctr_add:1:0@2 reg_write:7:0 cas:5:6@1 deq:0:0@3 reg_read:0:0\n"
    "script 2 enq:9:0@3 ctr_read:0:0@2 cas_read:0:0@1 reg_write:1:0\n";

TEST(stack_cache, reused_stacks_replay_byte_identically) {
  test::engine_guard guard(sim::engine_kind::fiber);
  const api::scripted_scenario s =
      api::parse_scenario(k_cached_stack_scenario);
  const api::scripted_outcome ref = api::replay(s);
  ASSERT_TRUE(ref.check.ok) << ref.check.message;
  ASSERT_GT(ref.report.crashes, 0u);
  const auto expect_same_replay = [&](const char* after) {
    const api::scripted_outcome again = api::replay(s);
    EXPECT_EQ(again.log_text, ref.log_text) << after;
    EXPECT_EQ(again.report.steps, ref.report.steps) << after;
    EXPECT_EQ(again.check.nodes, ref.check.nodes) << after;
  };
  expect_same_replay("a replay");

  int gone = 0;
  {
    sim::world_config cfg;
    cfg.max_steps = 40;
    sim::world w(4, cfg);
    nvm::pcell<int> c(0, w.domain());
    for (int p = 0; p < 4; ++p) {
      w.submit(p, [&] {
        frame_guard g{gone};
        for (;;) c.load();
      });
    }
    sim::random_scheduler rs(5);
    EXPECT_TRUE(w.run(rs).hit_step_limit);
  }
  EXPECT_EQ(gone, 4) << "parked fibers unwound before their stacks went back";
  expect_same_replay("a step-limit teardown");

  {
    sim::world w(3);
    nvm::pcell<int> c(0, w.domain());
    w.submit(0, [&] { for (int i = 0; i < 6; ++i) c.store(i); });
    w.submit(1, [&] { for (int i = 0; i < 6; ++i) c.store(i); });
    w.submit(2, [&] {
      c.load();
      throw std::runtime_error("p2 failed");
    });
    sim::round_robin_scheduler rr;
    EXPECT_THROW(w.run(rr), std::runtime_error);
  }
  expect_same_replay("a task exception");

  {
    sim::world w(3);
    nvm::pcell<int> c(0, w.domain());
    for (int p = 0; p < 3; ++p) {
      w.submit(p, [&, p] {
        for (int i = 0; i < 5; ++i) c.store(p * 100 + i);
      });
    }
    sim::crash_at_steps plan({4});
    sim::random_scheduler rs(3);
    EXPECT_EQ(w.run(rs, &plan).crashes, 1u);
  }
  expect_same_replay("a crash");
}

// ---- explorer ---------------------------------------------------------------

namespace exh {

struct counter_scenario final : sim::exploration {
  sim::world w{2};
  nvm::pcell<int> c{0, w.domain()};
  std::function<void(int)> on_done_check;

  counter_scenario() {
    auto task = [this] {
      int cur = c.load();
      c.store(cur + 1);
    };
    w.submit(0, task);
    w.submit(1, task);
  }
  sim::world& get_world() override { return w; }
  void on_crash() override {}
  void at_end() override {
    int v = c.peek();
    // Two non-atomic increments: 1 and 2 are both reachable, nothing else.
    if (v != 1 && v != 2) throw std::runtime_error("impossible final value");
  }
};

}  // namespace exh

TEST(explorer, enumerates_all_interleavings_of_racy_increment) {
  sim::explore_config cfg;
  auto res = sim::explore_schedules(
      [] { return std::make_unique<exh::counter_scenario>(); }, cfg);
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;
  // Interleavings of 2 sequences of 2 steps each: C(4,2) = 6 schedules.
  EXPECT_EQ(res.runs, 6u);
}

TEST(explorer, detects_a_violation_and_reports_path) {
  struct bad_scenario final : sim::exploration {
    sim::world w{2};
    nvm::pcell<int> c{0, w.domain()};
    bad_scenario() {
      auto task = [this] {
        int cur = c.load();
        c.store(cur + 1);
      };
      w.submit(0, task);
      w.submit(1, task);
    }
    sim::world& get_world() override { return w; }
    void on_crash() override {}
    void at_end() override {
      if (c.peek() == 1) throw std::runtime_error("lost update reached");
    }
  };
  sim::explore_config cfg;
  auto res = sim::explore_schedules(
      [] { return std::make_unique<bad_scenario>(); }, cfg);
  EXPECT_TRUE(res.failed);
  EXPECT_FALSE(res.failing_path.empty());
}

TEST(explorer, crash_options_expand_the_tree) {
  // Crash-tolerant variant: an unwound increment may simply be lost, so any
  // final value in {0, 1, 2} is legal.
  struct crashable final : sim::exploration {
    sim::world w{2};
    nvm::pcell<int> c{0, w.domain()};
    crashable() {
      auto task = [this] {
        int cur = c.load();
        c.store(cur + 1);
      };
      w.submit(0, task);
      w.submit(1, task);
    }
    sim::world& get_world() override { return w; }
    void on_crash() override {}
    void at_end() override {
      int v = c.peek();
      if (v < 0 || v > 2) throw std::runtime_error("impossible final value");
    }
  };
  sim::explore_config with_crash;
  with_crash.max_crashes = 1;
  auto res_crash = sim::explore_schedules(
      [] { return std::make_unique<crashable>(); }, with_crash);
  sim::explore_config no_crash;
  auto res_plain = sim::explore_schedules(
      [] { return std::make_unique<crashable>(); }, no_crash);
  EXPECT_TRUE(res_crash.complete);
  EXPECT_FALSE(res_crash.failed) << res_crash.failure;
  EXPECT_GT(res_crash.runs, res_plain.runs);
}

TEST(explorer, preemption_bound_shrinks_the_tree) {
  auto make = [] { return std::make_unique<exh::counter_scenario>(); };
  sim::explore_config unbounded;
  auto full = sim::explore_schedules(make, unbounded);
  sim::explore_config bounded;
  bounded.max_preemptions = 0;
  auto zero = sim::explore_schedules(make, bounded);
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(zero.complete);
  EXPECT_EQ(full.runs, 6u) << "all interleavings of 2x2 steps";
  EXPECT_EQ(zero.runs, 2u) << "0 preemptions = the two sequential orders";
  EXPECT_FALSE(zero.failed) << zero.failure;
}

}  // namespace
