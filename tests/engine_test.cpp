// A/B pin of the two strand engines (sim/strand.hpp) plus the arena-log
// allocation contract (history/log.hpp).
//
// The fiber engine replaced the per-process OS-thread engine as the default
// step machinery of sim::world; the thread engine stays as the reference
// implementation precisely so this corpus can hold the two to byte-identical
// behavior. Every generated scenario must replay to the same event log, the
// same checker verdict, and the same run report under both engines — the
// fiber engine is a pure mechanism swap, never a semantics change.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/scenario_gen.hpp"
#include "history/log.hpp"
#include "sim/strand.hpp"
#include "test_util.hpp"
#include "wmm/visibility.hpp"

#if defined(__SANITIZE_THREAD__)
#define DETECT_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DETECT_TEST_TSAN 1
#endif
#endif
#ifndef DETECT_TEST_TSAN
#define DETECT_TEST_TSAN 0
#endif

namespace {

using namespace detect;
using test::engine_guard;

void expect_same_events(const std::vector<hist::event>& a,
                        const std::vector<hist::event>& b,
                        std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const hist::event& x = a[i];
    const hist::event& y = b[i];
    ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind))
        << "seed " << seed << " event " << i;
    ASSERT_EQ(x.pid, y.pid) << "seed " << seed << " event " << i;
    ASSERT_EQ(x.desc.object, y.desc.object) << "seed " << seed << " event " << i;
    ASSERT_EQ(static_cast<int>(x.desc.code), static_cast<int>(y.desc.code))
        << "seed " << seed << " event " << i;
    ASSERT_EQ(x.desc.a, y.desc.a) << "seed " << seed << " event " << i;
    ASSERT_EQ(x.desc.b, y.desc.b) << "seed " << seed << " event " << i;
    ASSERT_EQ(x.desc.client_seq, y.desc.client_seq)
        << "seed " << seed << " event " << i;
    ASSERT_EQ(x.value, y.value) << "seed " << seed << " event " << i;
    ASSERT_EQ(static_cast<int>(x.verdict), static_cast<int>(y.verdict))
        << "seed " << seed << " event " << i;
  }
}

// 500 generated scenarios — multi-object, sharded, crashy, strategy- and
// persistency-mixed — each replayed once per engine. Logs must match byte
// for byte, verdicts and reports exactly.
TEST(EngineABTest, FiberAndThreadReplaysIdenticalOn500SeedCorpus) {
  engine_guard guard(sim::engine_kind::fiber);
  fuzz::gen_config cfg;
  cfg.max_procs = 3;
  cfg.max_ops = 6;
  cfg.max_shards = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  const std::vector<std::string> kinds = {"reg",   "cas",     "counter",
                                          "queue", "stack",   "swap",
                                          "tas",   "max_reg", "lock"};
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);

    sim::set_default_engine(sim::engine_kind::fiber);
    api::scripted_outcome fib = api::replay(s);
    sim::set_default_engine(sim::engine_kind::thread);
    api::scripted_outcome thr = api::replay(s);

    ASSERT_EQ(fib.log_text, thr.log_text) << "seed " << seed;
    expect_same_events(fib.events, thr.events, seed);
    ASSERT_EQ(fib.check.ok, thr.check.ok)
        << "seed " << seed << "\nfiber: " << fib.check.message
        << "\nthread: " << thr.check.message;
    ASSERT_EQ(fib.check.message, thr.check.message) << "seed " << seed;
    ASSERT_EQ(fib.report.steps, thr.report.steps) << "seed " << seed;
    ASSERT_EQ(fib.report.crashes, thr.report.crashes) << "seed " << seed;
    ASSERT_EQ(fib.report.hit_step_limit, thr.report.hit_step_limit)
        << "seed " << seed;
    ASSERT_EQ(fib.report.limit_note, thr.report.limit_note) << "seed " << seed;
    ASSERT_EQ(fib.report.lost_persistence, thr.report.lost_persistence)
        << "seed " << seed;
  }
}

// The same A/B pin under relaxed visibility: tso/pso scenarios schedule
// store-buffer drains as pseudo-pid steps and scripted drain points, which
// the sc corpus above never reaches. Every run_report field must match,
// the drain counters included.
TEST(EngineABTest, FiberAndThreadReplaysIdenticalUnderRelaxedVisibility) {
  engine_guard guard(sim::engine_kind::fiber);
  fuzz::gen_config cfg;
  cfg.max_procs = 3;
  cfg.max_ops = 6;
  cfg.max_shards = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  cfg.visibility_pool = {"sc", "tso", "pso"};
  const std::vector<std::string> kinds = {"reg",   "cas",     "counter",
                                          "queue", "stack",   "swap",
                                          "tas",   "max_reg", "lock"};
  int relaxed = 0;
  int with_drain_points = 0;
  std::uint64_t drains = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    if (s.visibility != wmm::visibility_model::sc) ++relaxed;
    if (!s.drain_steps.empty()) ++with_drain_points;

    sim::set_default_engine(sim::engine_kind::fiber);
    api::scripted_outcome fib = api::replay(s);
    sim::set_default_engine(sim::engine_kind::thread);
    api::scripted_outcome thr = api::replay(s);

    ASSERT_EQ(fib.log_text, thr.log_text) << "seed " << seed;
    expect_same_events(fib.events, thr.events, seed);
    ASSERT_EQ(fib.check.ok, thr.check.ok) << "seed " << seed;
    ASSERT_EQ(fib.check.message, thr.check.message) << "seed " << seed;
    const sim::run_report& a = fib.report;
    const sim::run_report& b = thr.report;
    ASSERT_EQ(a.steps, b.steps) << "seed " << seed;
    ASSERT_EQ(a.crashes, b.crashes) << "seed " << seed;
    ASSERT_EQ(a.hit_step_limit, b.hit_step_limit) << "seed " << seed;
    ASSERT_EQ(a.limit_note, b.limit_note) << "seed " << seed;
    ASSERT_EQ(a.lost_persistence, b.lost_persistence) << "seed " << seed;
    ASSERT_EQ(a.nvm_cells, b.nvm_cells) << "seed " << seed;
    ASSERT_EQ(a.nvm_bytes, b.nvm_bytes) << "seed " << seed;
    ASSERT_EQ(a.drain_steps, b.drain_steps) << "seed " << seed;
    ASSERT_EQ(a.max_pending_stores, b.max_pending_stores) << "seed " << seed;
    drains += a.drain_steps;
  }
  // The corpus must actually reach what it pins (331 relaxed scenarios,
  // 254 with drain points and 1,758 drain steps in all).
  EXPECT_GT(relaxed, 250);
  EXPECT_GT(with_drain_points, 200);
  EXPECT_GT(drains, 1000u);
}

// The process-global switch decides the engine of every world built under
// it, and a scripted executor run gives the same history on both engines.
TEST(EngineTest, ExecutorRunMatchesOnBothEngines) {
  auto run_with = [](sim::engine_kind e) {
    engine_guard guard(e);
    EXPECT_EQ(sim::world(1).engine(), e);
    auto ex = api::executor::builder().procs(2).seed(7).crash_at({9}).build();
    api::counter c = ex->add_counter();
    ex->script(0, {c.add(1), c.add(2)});
    ex->script(1, {c.add(3), c.read()});
    ex->run();
    return ex->log_text();
  };
  EXPECT_EQ(run_with(sim::engine_kind::fiber),
            run_with(sim::engine_kind::thread));
}

#if DETECT_TEST_TSAN
// The fiber annotations (src/sim/strand.cpp) make every switch a
// happens-before edge, so TSan sees a fiber's steps in order whichever
// thread drives them. They must hide no real race: two OS threads that step
// one world, handing it over through a relaxed flag and no lock, race on
// the world's own state, and TSan must report it. TSan's nonzero exit
// status after a report is the death, with or without halt_on_error. The
// threadsafe style runs the statement in a re-executed binary, not in a
// fork of this multi-threaded process, which TSan would refuse.
TEST(EngineTsanDeathTest, UnsynchronizedWorldHandoffIsReported) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        engine_guard guard(sim::engine_kind::fiber);
        sim::world w(1);
        nvm::pcell<int> c(0, w.domain());
        w.submit(0, [&] {
          for (int i = 0; i < 4; ++i) c.store(i);
        });
        std::atomic<bool> handed{false};
        std::thread first([&] {
          w.step(0);
          handed.store(true, std::memory_order_relaxed);
        });
        std::thread second([&] {
          while (!handed.load(std::memory_order_relaxed)) {
          }
          w.step(0);
        });
        first.join();
        second.join();
        std::exit(0);
      },
      "ThreadSanitizer: data race");
}
#endif

// Arena-log allocation contract: blocks are allocated once per
// k_block_events high-water mark and reused across clear() — a steady-state
// run cycle touches the allocator zero times.
TEST(ArenaLogTest, BlocksAllocateOncePerHighWaterMarkAndReuseAcrossClear) {
  hist::log log;
  EXPECT_EQ(log.blocks_allocated(), 0u);

  hist::event e{};
  e.kind = hist::event_kind::invoke;

  // Fill two full blocks plus one event: exactly three allocations.
  const std::size_t n = 2 * hist::log::k_block_events + 1;
  for (std::size_t i = 0; i < n; ++i) log.append(e);
  EXPECT_EQ(log.size(), n);
  EXPECT_EQ(log.blocks_allocated(), 3u);
  EXPECT_EQ(log.snapshot().size(), n);

  // Rewind and refill to the same high-water mark: zero new allocations.
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.blocks_allocated(), 3u);
  for (std::size_t i = 0; i < n; ++i) log.append(e);
  EXPECT_EQ(log.size(), n);
  EXPECT_EQ(log.blocks_allocated(), 3u);

  // Push past the old high-water mark: exactly one more block.
  for (std::size_t i = 0; i < hist::log::k_block_events; ++i) log.append(e);
  EXPECT_EQ(log.blocks_allocated(), 4u);
}

}  // namespace
