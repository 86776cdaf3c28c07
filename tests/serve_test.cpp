// detect::serve — sessioned serving front-end: batch ingest, admission
// control, completion matching under crashes, hot-shard rebalancing, and the
// end-of-soak durable-linearizability certificate.
//
// Workload-shaping note that governs every test here: the checker certifies
// at most 64 operations per object, so serving workloads scale by object
// *population* — many objects with short histories, a "hot shard" being a
// cluster of busy objects, never one object with thousands of ops.
#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve.hpp"

namespace detect {
namespace {

using serve::submit_status;

// ---- statuses ---------------------------------------------------------------

TEST(serve_session, submit_statuses_have_names) {
  EXPECT_STREQ(serve::submit_status_name(submit_status::admitted), "admitted");
  EXPECT_STREQ(serve::submit_status_name(submit_status::overloaded),
               "overloaded");
  EXPECT_STREQ(serve::submit_status_name(submit_status::shutting_down),
               "shutting_down");
  EXPECT_STREQ(serve::submit_status_name(submit_status::invalid_op),
               "invalid_op");
  EXPECT_TRUE(serve::admitted(submit_status::admitted));
  EXPECT_FALSE(serve::admitted(submit_status::overloaded));
}

// ---- rebalancer planning (pure logic, no worlds) ----------------------------

TEST(serve_rebalancer, plans_only_on_sustained_imbalance) {
  serve::rebalance_policy pol;
  pol.enabled = true;
  pol.window = 2;
  pol.check_every = 1;
  pol.hot_ratio = 1.5;
  pol.sustain = 2;
  pol.max_moves = 2;
  serve::rebalancer reb(pol, 2);
  const std::vector<int> homes = {0, 0, 1};

  // First hot evaluation: streak 1 of 2 — no plan yet.
  reb.record_round({10, 10});
  EXPECT_TRUE(reb.maybe_plan(homes).empty());
  EXPECT_GE(reb.last_ratio(), 1.5);

  // Sustained: the plan fires and strictly narrows the hot-cold gap.
  reb.record_round({10, 10});
  std::vector<serve::planned_move> plan = reb.maybe_plan(homes);
  ASSERT_EQ(plan.size(), 1u);  // moving both would just swap the hot shard
  EXPECT_EQ(plan[0].from, 0);
  EXPECT_EQ(plan[0].to, 1);

  // A balanced window never builds a streak.
  serve::rebalancer reb2(pol, 2);
  reb2.record_round({10, 0, 10});
  EXPECT_TRUE(reb2.maybe_plan(homes).empty());
  reb2.record_round({10, 0, 10});
  EXPECT_TRUE(reb2.maybe_plan(homes).empty());
  EXPECT_DOUBLE_EQ(reb2.last_ratio(), 1.0);
}

TEST(serve_rebalancer, respects_frozen_objects_and_the_disabled_gate) {
  serve::rebalance_policy pol;
  pol.enabled = true;
  pol.window = 1;
  pol.check_every = 1;
  pol.hot_ratio = 1.2;
  pol.sustain = 1;
  pol.max_moves = 8;
  serve::rebalancer reb(pol, 2);
  const std::vector<int> homes = {0, 0, 0, 1};

  reb.record_round({8, 6, 4});
  // Freezing the heaviest object forces the planner onto lighter candidates.
  std::vector<serve::planned_move> plan = reb.maybe_plan(homes, {true});
  ASSERT_FALSE(plan.empty());
  for (const serve::planned_move& m : plan) EXPECT_NE(m.object, 0u);

  // Disabled policy still *measures* (so off-mode stats stay comparable)
  // but never plans.
  serve::rebalance_policy off = pol;
  off.enabled = false;
  serve::rebalancer noop(off, 2);
  noop.record_round({100});
  EXPECT_TRUE(noop.maybe_plan(homes).empty());
  EXPECT_DOUBLE_EQ(noop.last_ratio(), 2.0);
}

// A round that leaves the window leaves the load: one hot round followed by
// two balanced ones reads perfectly balanced under a 2-round window. A
// running sum that forgot to subtract the evicted round would read shard 0
// at 80 of 100 ops (ratio 1.6) and plan a move.
TEST(serve_rebalancer, evicted_rounds_leave_the_window_load) {
  serve::rebalance_policy pol;
  pol.enabled = true;
  pol.window = 2;
  pol.check_every = 3;  // evaluate once, after the third round
  pol.hot_ratio = 1.5;
  pol.sustain = 1;
  pol.max_moves = 4;
  serve::rebalancer reb(pol, 2);
  const std::vector<int> homes = {0, 0, 1};

  reb.record_round({30, 30, 0});  // hot: everything on shard 0
  EXPECT_TRUE(reb.maybe_plan(homes).empty());  // not due yet
  reb.record_round({5, 5, 10});
  EXPECT_TRUE(reb.maybe_plan(homes).empty());  // not due yet
  reb.record_round({5, 5, 10});
  EXPECT_TRUE(reb.maybe_plan(homes).empty());
  EXPECT_DOUBLE_EQ(reb.last_ratio(), 1.0);
  const std::vector<std::uint64_t> load = reb.window_load(homes);
  EXPECT_EQ(load, (std::vector<std::uint64_t>{20, 20}));
}

// ---- program order & exact-once completions ---------------------------------

TEST(serve_server, completes_in_per_session_program_order) {
  auto srv = serve::server::builder()
                 .shards(2)
                 .procs(4)
                 .seed(5)
                 .batch_max_ops(8)
                 .build();
  std::vector<api::counter> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(srv->add_counter());
  serve::session a = srv->open_session();
  serve::session b = srv->open_session();

  // Completion tickets per (session, object): one session's ops on one
  // object execute in submission order, so tickets must arrive sorted.
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<std::uint64_t>>
      order;
  std::map<std::uint32_t, std::multiset<hist::value_t>> responses;
  auto record = [&](const serve::completion& c) {
    order[{c.session, c.object}].push_back(c.ticket);
    responses[c.object].insert(c.value);
  };

  for (int i = 0; i < 12; ++i) {
    for (const api::counter& c : objs) {
      ASSERT_EQ(a.submit(c.add(1), record), submit_status::admitted);
      ASSERT_EQ(b.submit(c.add(1), record), submit_status::admitted);
    }
    srv->pump();
  }
  srv->drain();

  for (const auto& [key, tickets] : order) {
    EXPECT_TRUE(std::is_sorted(tickets.begin(), tickets.end()))
        << "session " << key.first << " object " << key.second;
    EXPECT_EQ(tickets.size(), 12u);
  }
  // Counter adds return the old value: each object's 24 responses must be
  // exactly {0..23} — a duplicate or gap means a doubled or lost add.
  for (const auto& [object, vals] : responses) {
    ASSERT_EQ(vals.size(), 24u) << "object " << object;
    hist::value_t expect = 0;
    for (hist::value_t v : vals) EXPECT_EQ(v, expect++);
  }
  EXPECT_TRUE(srv->check().ok);

  serve::session snapshotted = a;  // handles are copyable views
  EXPECT_EQ(snapshotted.submitted(), 48u);
  EXPECT_EQ(snapshotted.completed(), 48u);
  EXPECT_EQ(snapshotted.rejected(), 0u);
}

// ---- the deterministic soak -------------------------------------------------

// 32 sessions × 2000 ops with crash injection and live rebalancing: zero
// lost or duplicated completions, per-session order, and a clean per-object
// durable-linearizability certificate over the merged history.
//
// Shape: 64k ops over 3200 counters. The 800 objects homed on shard 0 (ids
// ≡ 0 mod 4) take 50% of all traffic — 40 ops each, inside the checker cap —
// which holds the shard-0 load ratio at ~2.0 until the rebalancer reacts.
// Per-wave offered load stays under batch_max_ops so every pump() fully
// drains its queues: nothing is ever frozen, and the move plan can fire the
// moment the hot streak is sustained.
TEST(serve_soak, crashy_migrating_soak_is_lossless_and_checkable) {
  constexpr int k_sessions = 32;
  constexpr int k_ops = 2000;  // per session
  constexpr int k_objects = 3200;
  constexpr int k_shards = 4;
  constexpr int k_waves = 40;

  auto srv = serve::server::builder()
                 .shards(k_shards)
                 .procs(8)
                 .seed(42)
                 .crash_random(17, 0.0005, 2)
                 .batch_max_ops(1024)
                 .queue_high_water(1 << 20)  // the soak admits everything…
                 .session_tokens(1e9, 1e9)   // …admission is tested apart
                 .rebalance({.enabled = true,
                             .window = 4,
                             .check_every = 4,
                             .hot_ratio = 1.3,
                             .sustain = 2,
                             .max_moves = 16})
                 .build();

  std::vector<api::counter> objs;
  objs.reserve(k_objects);
  for (int i = 0; i < k_objects; ++i) objs.push_back(srv->add_counter());
  std::vector<serve::session> sessions;
  for (int i = 0; i < k_sessions; ++i) sessions.push_back(srv->open_session());

  std::set<std::uint64_t> seen_tickets;
  std::uint64_t dup_tickets = 0;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> last_ticket;
  std::uint64_t order_violations = 0;
  std::uint64_t callbacks = 0;
  auto on_done = [&](const serve::completion& c) {
    ++callbacks;
    if (!seen_tickets.insert(c.ticket).second) ++dup_tickets;
    std::uint64_t& last = last_ticket[{c.session, c.object}];
    if (c.ticket <= last) ++order_violations;
    last = c.ticket;
  };

  // Even submits hit the hot cluster, odd submits spread over the rest.
  // Consecutive sessions continue each other's stride, so both sequences
  // walk [0, 32000) and the modulus spreads ops exactly evenly: 40 per hot
  // object, 13–14 per cold one.
  auto target_of = [&](int s, int i) -> const api::counter& {
    const int stride = s * (k_ops / 2) + i / 2;
    if (i % 2 == 0) {
      const int idx = stride % (k_objects / k_shards);
      return objs[static_cast<std::size_t>(idx) * k_shards];
    }
    const int j = stride % (k_objects - k_objects / k_shards);
    const int id = (j / (k_shards - 1)) * k_shards + 1 + (j % (k_shards - 1));
    return objs[static_cast<std::size_t>(id)];
  };

  std::uint64_t admitted = 0;
  constexpr int k_per_wave = k_ops / k_waves;  // 50 ops per session per wave
  for (int wave = 0; wave < k_waves; ++wave) {
    for (int s = 0; s < k_sessions; ++s) {
      for (int i = wave * k_per_wave; i < (wave + 1) * k_per_wave; ++i) {
        ASSERT_EQ(sessions[static_cast<std::size_t>(s)].submit(
                      target_of(s, i).add(1), on_done),
                  submit_status::admitted);
        ++admitted;
      }
    }
    srv->pump();
  }
  srv->drain();

  serve::stats st = srv->snapshot();
  EXPECT_EQ(admitted, static_cast<std::uint64_t>(k_sessions) * k_ops);
  EXPECT_EQ(st.admitted, admitted);
  EXPECT_EQ(st.completed, admitted);  // zero lost completions
  EXPECT_EQ(callbacks, admitted);     // every callback fired…
  EXPECT_EQ(dup_tickets, 0u);         // …exactly once
  EXPECT_EQ(order_violations, 0u);    // per-session program order held
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_GE(st.crashes, 1u) << "the soak is supposed to be crashy";
  EXPECT_GE(st.moves.size(), 1u) << "the skew should have triggered moves";
  EXPECT_GE(st.moves.front().ratio_before, 1.3);
  EXPECT_GT(st.nvm_cells, 0u);
  EXPECT_GE(st.nvm_bytes, st.nvm_cells);
  EXPECT_GE(st.p99, st.p50);
  EXPECT_EQ(st.latency_unit, "rounds");

  hist::check_result cr = srv->check();
  EXPECT_TRUE(cr.ok) << cr.message;
  EXPECT_EQ(cr.objects, static_cast<std::size_t>(k_objects));
}

// A seeded serving run is fully replayable: same seeds, same workload →
// identical event log, crash count, moves, and latency quantiles.
TEST(serve_soak, deterministic_mode_is_replayable) {
  auto run_once = [] {
    auto srv = serve::server::builder()
                   .shards(2)
                   .procs(4)
                   .seed(9)
                   .crash_random(23, 0.01, 2)
                   .batch_max_ops(16)
                   .rebalance({.enabled = true,
                               .window = 2,
                               .check_every = 2,
                               .hot_ratio = 1.2,
                               .sustain = 1,
                               .max_moves = 2})
                   .build();
    std::vector<api::counter> objs;
    for (int i = 0; i < 8; ++i) objs.push_back(srv->add_counter());
    serve::session s0 = srv->open_session();
    serve::session s1 = srv->open_session();
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 4; ++i) {
        s0.submit(objs[static_cast<std::size_t>(2 * (i % 4))].add(1));
        s1.submit(objs[static_cast<std::size_t>(i % 3)].add(1));
      }
      srv->pump();
    }
    srv->drain();
    std::string fp = serve::stats_json(srv->snapshot());
    for (const hist::event& e : srv->events()) fp += e.to_string();
    return fp;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- admission control ------------------------------------------------------

TEST(serve_admission, queue_high_water_bounds_depth_and_is_retryable) {
  auto srv = serve::server::builder()
                 .shards(1)
                 .procs(2)
                 .batch_max_ops(8)
                 .queue_high_water(8)
                 .build();
  api::counter c = srv->add_counter();
  serve::session s = srv->open_session();

  int ok = 0, rejected = 0;
  for (int i = 0; i < 32; ++i) {
    submit_status st = s.submit(c.add(1));
    if (st == submit_status::admitted) ++ok;
    if (st == submit_status::overloaded) ++rejected;
  }
  EXPECT_EQ(ok, 8);  // exactly the high-water mark
  EXPECT_EQ(rejected, 24);
  serve::stats before = srv->snapshot();
  EXPECT_EQ(before.rejected_queue, 24u);
  EXPECT_LE(before.shards[0].max_queue_depth, 8u);  // depth stayed bounded

  // `overloaded` is retryable: one round frees the queue and the same
  // submit goes through.
  srv->pump();
  EXPECT_EQ(s.submit(c.add(1)), submit_status::admitted);
  srv->drain();
  EXPECT_EQ(srv->snapshot().completed, 9u);
  EXPECT_TRUE(srv->check().ok);
}

TEST(serve_admission, session_token_bucket_refills_per_round) {
  auto srv = serve::server::builder()
                 .shards(1)
                 .procs(2)
                 .batch_max_ops(64)
                 .session_tokens(4, 4)
                 .build();
  api::counter c = srv->add_counter();
  serve::session s = srv->open_session();

  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    if (serve::admitted(s.submit(c.add(1)))) ++ok;
  }
  EXPECT_EQ(ok, 4);  // bucket capacity
  EXPECT_EQ(srv->snapshot().rejected_session_tokens, 6u);
  srv->pump();  // rounds refill the bucket
  EXPECT_TRUE(serve::admitted(s.submit(c.add(1))));
  srv->drain();
}

TEST(serve_admission, global_inflight_cap_and_invalid_ops) {
  auto srv =
      serve::server::builder().shards(2).procs(2).global_inflight(4).build();
  api::counter c = srv->add_counter();
  serve::session s = srv->open_session();

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(serve::admitted(s.submit(c.add(1))));
  }
  EXPECT_EQ(s.submit(c.add(1)), submit_status::overloaded);
  EXPECT_EQ(srv->snapshot().rejected_global, 1u);

  // An op naming an object the server does not host is invalid, not
  // overloaded — retrying it would never help.
  hist::op_desc bogus;
  bogus.object = 999;
  bogus.code = hist::opcode::ctr_add;
  bogus.a = 1;
  EXPECT_EQ(s.submit(bogus), submit_status::invalid_op);
  EXPECT_EQ(srv->snapshot().rejected_invalid, 1u);
  srv->drain();
}

TEST(serve_admission, shutdown_rejects_new_work_but_drains_admitted) {
  auto srv = serve::server::builder().shards(2).procs(2).build();
  api::counter c = srv->add_counter();
  serve::session s = srv->open_session();
  std::uint64_t completions = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(serve::admitted(
        s.submit(c.add(1), [&](const serve::completion&) { ++completions; })));
  }
  srv->shutdown();
  EXPECT_EQ(s.submit(c.add(1)), submit_status::shutting_down);
  EXPECT_EQ(completions, 6u);  // admitted work drained before shutdown returned
  serve::stats st = srv->snapshot();
  EXPECT_EQ(st.completed, 6u);
  EXPECT_EQ(st.rejected_shutdown, 1u);
  EXPECT_EQ(st.inflight, 0u);
}

// ---- rebalancer A/B ---------------------------------------------------------

// The same skewed workload with the rebalancer off vs on: on-mode must move
// at least one object off the hot shard and end with a strictly better
// window load ratio than both the off-mode run and its own pre-move trigger.
TEST(serve_rebalance, ab_skew_improves_the_load_ratio) {
  auto run = [](bool rebalance_on) {
    auto srv = serve::server::builder()
                   .shards(4)
                   .procs(8)
                   .seed(13)
                   .batch_max_ops(32)
                   .rebalance({.enabled = rebalance_on,
                               .window = 4,
                               .check_every = 4,
                               .hot_ratio = 1.5,
                               .sustain = 2,
                               .max_moves = 2})
                   .build();
    std::vector<api::counter> objs;
    for (int i = 0; i < 16; ++i) objs.push_back(srv->add_counter());
    std::vector<serve::session> sessions;
    for (int i = 0; i < 4; ++i) sessions.push_back(srv->open_session());

    for (int round = 0; round < 24; ++round) {
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        // Two ops on the shard-0 cluster {0,4,8,12}, one cold op.
        sessions[s].submit(objs[4 * ((s * 2) % 4)].add(1));
        sessions[s].submit(objs[4 * ((s * 2 + 1) % 4)].add(1));
        sessions[s].submit(
            objs[4 * ((static_cast<std::size_t>(round) + s) % 4) + 1 + s % 3]
                .add(1));
      }
      srv->pump();
    }
    srv->drain();
    serve::stats st = srv->snapshot();
    EXPECT_TRUE(srv->check().ok);
    return st;
  };

  serve::stats off = run(false);
  serve::stats on = run(true);

  EXPECT_TRUE(off.moves.empty());
  EXPECT_GE(off.load_ratio_window, 1.5);  // the skew persists without the loop
  ASSERT_GE(on.moves.size(), 1u);
  EXPECT_EQ(on.moves.front().from, 0);  // relief starts at the hot shard
  EXPECT_GE(on.moves.front().ratio_before, 1.5);
  EXPECT_LT(on.load_ratio_window, off.load_ratio_window);
  EXPECT_LT(on.load_ratio_window, on.moves.front().ratio_before);
}

// ---- stats & serialization --------------------------------------------------

TEST(serve_stats, snapshot_counts_footprint_and_serializes) {
  auto srv =
      serve::server::builder().shards(2).procs(2).batch_max_ops(4).build();
  api::counter c0 = srv->add_counter();
  api::counter c1 = srv->add_counter();
  serve::session s = srv->open_session();
  for (int i = 0; i < 8; ++i) {
    s.submit((i % 2 == 0 ? c0 : c1).add(1));
  }
  srv->drain();

  serve::stats st = srv->snapshot();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.nvm_cells, 0u);
  EXPECT_GE(st.nvm_bytes, st.nvm_cells);
  EXPECT_GE(st.mean_batch_ops, 1.0);
  EXPECT_LE(st.max_batch_ops, 4u);
  EXPECT_GE(st.p50, 1u);  // a round trip takes at least one round

  const std::string json = serve::stats_json(st);
  for (const char* key :
       {"\"admitted\"", "\"completed\"", "\"rejected\"", "\"nvm_cells\"",
        "\"p99\"", "\"queue_depth\"", "\"moves\"", "\"latency_unit\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(serve_stats, latency_histogram_quantiles) {
  serve::latency_histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  // Log-bucketed: quantiles are bucket lower bounds, within the ~12%
  // relative-error envelope of the true values.
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 50.0, 50.0 * 0.13);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99.0, 99.0 * 0.13);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

// ---- threaded mode ----------------------------------------------------------

TEST(serve_threaded, dispatcher_serves_completions_and_drains) {
  auto srv = serve::server::builder()
                 .shards(2)
                 .procs(4)
                 .threaded(true)
                 .batch_max_ops(16)
                 .batch_window(std::chrono::microseconds(200))
                 .build();
  std::vector<api::counter> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(srv->add_counter());
  serve::session a = srv->open_session();
  serve::session b = srv->open_session();

  EXPECT_THROW(srv->pump(), std::logic_error);

  std::mutex mu;
  std::uint64_t completions = 0;
  auto on_done = [&](const serve::completion&) {
    std::lock_guard lk(mu);
    ++completions;
  };
  std::uint64_t sent = 0;
  for (int i = 0; i < 64; ++i) {
    const api::counter& c = objs[static_cast<std::size_t>(i % 4)];
    if (serve::admitted(a.submit(c.add(1), on_done))) ++sent;
    if (serve::admitted(b.submit(c.add(1), on_done))) ++sent;
  }
  srv->drain();
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(completions, sent);
  }
  serve::stats st = srv->snapshot();
  EXPECT_EQ(st.completed, sent);
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(st.latency_unit, "us");
  srv->shutdown();
  EXPECT_TRUE(srv->check().ok);
}

}  // namespace
}  // namespace detect
