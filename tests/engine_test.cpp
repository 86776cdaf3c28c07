// A/B pin of the two strand engines (sim/strand.hpp) plus the arena-log
// allocation contract (history/log.hpp).
//
// The fiber engine replaced the per-process OS-thread engine as the default
// step machinery of sim::world; the thread engine stays as the reference
// implementation precisely so this corpus can hold the two to byte-identical
// behavior. Every generated scenario must replay to the same event log, the
// same checker verdict, and the same run report under both engines — the
// fiber engine is a pure mechanism swap, never a semantics change.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/scenario_gen.hpp"
#include "history/log.hpp"
#include "sim/strand.hpp"
#include "wmm/visibility.hpp"

namespace {

using namespace detect;

/// Restore the process-global default engine on scope exit, whatever the
/// test did to it.
struct engine_guard {
  sim::engine_kind saved = sim::default_engine();
  ~engine_guard() { sim::set_default_engine(saved); }
};

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
  engine_guard guard;
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
  engine_guard guard;
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

// world_config.engine overrides the process-global default; absent, the
// default decides.
TEST(EngineTest, WorldConfigEngineOverridesDefault) {
  engine_guard guard;
  sim::set_default_engine(sim::engine_kind::thread);

  sim::world_config cfg;
  cfg.engine = sim::engine_kind::fiber;
  sim::world pinned(2, cfg);
  EXPECT_EQ(pinned.engine(), sim::engine_kind::fiber);

  sim::world defaulted(2);
  EXPECT_EQ(defaulted.engine(), sim::engine_kind::thread);

  sim::set_default_engine(sim::engine_kind::fiber);
  sim::world refreshed(2);
  EXPECT_EQ(refreshed.engine(), sim::engine_kind::fiber);
}

// The executor builder's engine() pin reaches the underlying world: a
// scripted run under an explicitly pinned thread engine still produces the
// fiber default's exact history.
TEST(EngineTest, BuilderEnginePinMatchesDefaultEngineRun) {
  engine_guard guard;
  sim::set_default_engine(sim::engine_kind::fiber);
  auto run_with = [](sim::engine_kind e) {
    auto ex = api::executor::builder()
                  .engine(e)
                  .procs(2)
                  .seed(7)
                  .crash_at({9})
                  .build();
    api::counter c = ex->add_counter();
    ex->script(0, {c.add(1), c.add(2)});
    ex->script(1, {c.add(3), c.read()});
    ex->run();
    return ex->log_text();
  };
  EXPECT_EQ(run_with(sim::engine_kind::fiber),
            run_with(sim::engine_kind::thread));
}

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
