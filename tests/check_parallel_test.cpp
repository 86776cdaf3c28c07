// Pins of the parallel per-object checking driver (hist::check_options).
//
// The contract under test: `jobs` is a pure mechanism knob. Whatever the
// fan-out, check_durable_linearizability_per_object must return the same
// verdict, the same worst-offender message, and the same node accounting as
// the serial walk — byte for byte — because every consumer (the differ's
// verdict comparisons, coverage bucketing, failure artifacts) assumes
// checker output is a function of the history alone. The 500-seed corpus
// here is the same generator slice the engine A/B test replays.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/scenario_gen.hpp"
#include "history/checker.hpp"
#include "history/linearizer.hpp"

namespace {

using namespace detect;

void expect_same_check(const hist::check_result& a, const hist::check_result& b,
                       std::uint64_t seed) {
  ASSERT_EQ(a.ok, b.ok) << "seed " << seed;
  ASSERT_EQ(a.inconclusive, b.inconclusive) << "seed " << seed;
  ASSERT_EQ(a.nodes, b.nodes) << "seed " << seed;
  ASSERT_EQ(a.objects, b.objects) << "seed " << seed;
  ASSERT_EQ(a.synthesized_interval, b.synthesized_interval) << "seed " << seed;
  ASSERT_EQ(a.failed_object, b.failed_object) << "seed " << seed;
  ASSERT_EQ(a.message, b.message) << "seed " << seed;
}

// 500 generated scenarios — multi-object, sharded, crashy, strategy- and
// persistency-mixed — each checked serially and with a 4-lane fan-out
// sharing one memo. Verdicts, messages, and node counts must match exactly.
TEST(check_parallel, jobs4_matches_serial_on_500_seed_corpus) {
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
  hist::lin_memo memo;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);

    hist::check_options serial;
    serial.jobs = 1;
    api::scripted_outcome one = api::replay(s, serial);

    hist::check_options fanout;
    fanout.jobs = 4;
    fanout.memo = &memo;  // cross-scenario sharing, under concurrent lanes
    api::scripted_outcome four = api::replay(s, fanout);

    ASSERT_EQ(one.log_text, four.log_text) << "seed " << seed;
    expect_same_check(one.check, four.check, seed);
  }
  // The shared memo genuinely absorbed repeat sub-histories across the
  // corpus — the fan-out did not bypass it.
  EXPECT_GT(memo.hits(), 0u);
}

// jobs = 0 (auto) must agree with serial too, whatever lane count the host
// resolves it to (a 1-core host collapses it back to the inline walk).
TEST(check_parallel, jobs_auto_matches_serial) {
  fuzz::gen_config cfg;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "counter", "queue"};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "cas", cfg);
    hist::check_options serial;
    serial.jobs = 1;
    hist::check_options auto_jobs;
    auto_jobs.jobs = 0;
    expect_same_check(api::replay(s, serial).check,
                      api::replay(s, auto_jobs).check, seed);
  }
}

void push_event(std::vector<hist::event>& events, hist::event_kind kind,
                int pid, std::uint32_t obj, hist::opcode code, hist::value_t a,
                hist::value_t value) {
  hist::event e;
  e.kind = kind;
  e.pid = pid;
  e.desc.object = obj;
  e.desc.code = code;
  e.desc.a = a;
  e.value = value;
  events.push_back(e);
}

// Worst-offender selection is pinned: when several objects fail, the
// reported one is the failure with the most linearizer nodes — the
// hardest-to-refute witness — independent of jobs and of completion order.
TEST(check_parallel, worst_offender_is_max_nodes) {
  using hist::event_kind;
  using hist::opcode;
  std::vector<hist::event> events;
  // Object 0: fine. Object 1: fails after one op (tiny search). Object 2:
  // several successful writes before the impossible read — strictly more
  // nodes expanded than object 1's search.
  push_event(events, event_kind::invoke, 0, 0, opcode::reg_write, 7, 0);
  push_event(events, event_kind::response, 0, 0, opcode::reg_write, 7,
             hist::k_ack);
  push_event(events, event_kind::invoke, 0, 1, opcode::reg_read, 0, 0);
  push_event(events, event_kind::response, 0, 1, opcode::reg_read, 0, 42);
  for (hist::value_t v = 1; v <= 4; ++v) {
    push_event(events, event_kind::invoke, 0, 2, opcode::reg_write, v, 0);
    push_event(events, event_kind::response, 0, 2, opcode::reg_write, v,
               hist::k_ack);
  }
  push_event(events, event_kind::invoke, 0, 2, opcode::reg_read, 0, 0);
  push_event(events, event_kind::response, 0, 2, opcode::reg_read, 0, 42);

  hist::register_spec spec0(0);
  hist::register_spec spec1(0);
  hist::register_spec spec2(0);
  const hist::object_spec_list specs = {{0, &spec0}, {1, &spec1}, {2, &spec2}};

  for (int jobs : {1, 4}) {
    hist::check_options opt;
    opt.jobs = jobs;
    hist::check_result res =
        hist::check_durable_linearizability_per_object(events, specs, opt);
    EXPECT_FALSE(res.ok) << "jobs " << jobs;
    EXPECT_EQ(res.failed_object, 2) << "jobs " << jobs << ": " << res.message;
    EXPECT_NE(res.message.find("object 2"), std::string::npos) << res.message;
    // Node accounting covers ALL sub-checks, not just the reported one.
    EXPECT_EQ(res.objects, 3u);
  }
}

// Equal node counts tie-break to the smallest object id, so the verdict
// stays deterministic when two objects fail identically.
TEST(check_parallel, worst_offender_ties_break_to_smallest_id) {
  using hist::event_kind;
  using hist::opcode;
  std::vector<hist::event> events;
  // Objects 3 and 5: byte-identical impossible histories (same search, same
  // node count). Declaration order puts 5 first to rule out "first seen".
  for (std::uint32_t obj : {5u, 3u}) {
    push_event(events, event_kind::invoke, 0, obj, opcode::reg_read, 0, 0);
    push_event(events, event_kind::response, 0, obj, opcode::reg_read, 0, 42);
  }
  hist::register_spec spec_a(0);
  hist::register_spec spec_b(0);
  const hist::object_spec_list specs = {{5, &spec_a}, {3, &spec_b}};
  for (int jobs : {1, 4}) {
    hist::check_options opt;
    opt.jobs = jobs;
    hist::check_result res =
        hist::check_durable_linearizability_per_object(events, specs, opt);
    EXPECT_FALSE(res.ok) << "jobs " << jobs;
    EXPECT_EQ(res.failed_object, 3) << "jobs " << jobs << ": " << res.message;
    EXPECT_NE(res.message.find("object 3"), std::string::npos) << res.message;
  }
}

// Hammer one shared memo from several threads, each running 4-lane parallel
// checks — the synchronized lookup/store path the differ's variant families
// rely on. Run under the Sanitize preset this is the race regression test.
TEST(check_parallel, shared_memo_is_thread_safe_under_parallel_checks) {
  fuzz::gen_config cfg;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter"};
  std::vector<api::scripted_scenario> corpus;
  std::vector<hist::check_result> expected;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    corpus.push_back(fuzz::generate(seed, "reg", cfg));
    hist::check_options serial;
    serial.jobs = 1;
    expected.push_back(api::replay(corpus.back(), serial).check);
  }

  hist::lin_memo memo;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          hist::check_options opt;
          opt.jobs = 4;
          opt.memo = &memo;
          hist::check_result got = api::replay(corpus[i], opt).check;
          if (got.ok != expected[i].ok || got.nodes != expected[i].nodes ||
              got.message != expected[i].message) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  EXPECT_GT(memo.hits(), 0u);
}

// A memo threaded through the options form never changes the verdict.
TEST(check_parallel, memo_option_matches_the_plain_replay) {
  fuzz::gen_config cfg;
  cfg.max_objects = 2;
  cfg.object_kind_pool = {"reg", "queue"};
  api::scripted_scenario s = fuzz::generate(77, "queue", cfg);
  api::scripted_outcome base = api::replay(s);

  hist::lin_memo memo;
  hist::check_options opt;
  opt.memo = &memo;
  api::scripted_outcome via_options = api::replay(s, opt);
  expect_same_check(base.check, via_options.check, 77);
  EXPECT_GT(memo.misses(), 0u);
  api::scripted_outcome warm = api::replay(s, opt);  // served by the memo
  expect_same_check(base.check, warm.check, 77);
  EXPECT_GT(memo.hits(), 0u);
}

// check_linearizable keeps its search tables per thread and resets them on
// entry. A check that runs after others on the same thread must give what
// it gives on a fresh thread, whatever came before: a search cut short by
// its node budget (dfs throws partway), a spec of another type, and a
// large search that grows every table.
struct lin_case {
  std::vector<hist::op_record> records;
  std::unique_ptr<hist::spec> sp;
  std::size_t budget;
};

lin_case single_object_case(std::uint64_t seed, const char* kind, int procs,
                            int ops, hist::value_t values, bool crashes,
                            std::size_t budget) {
  fuzz::gen_config g;
  g.min_procs = g.max_procs = procs;
  g.min_ops = g.max_ops = ops;
  g.value_range = values;
  g.crashes = crashes;
  g.max_objects = 1;
  g.max_shards = 1;
  g.allow_sharded_backend = false;
  g.allow_migrations = false;
  const api::scripted_scenario s = fuzz::generate(seed, kind, g);
  const api::scenario_object& o = s.primary();
  return {hist::build_records(api::replay(s).events),
          api::object_registry::global().make_spec(o.kind, o.params), budget};
}

void expect_same_lin(const hist::lin_result& a, const hist::lin_result& b,
                     std::size_t i) {
  EXPECT_EQ(a.linearizable, b.linearizable) << "check " << i;
  EXPECT_EQ(a.exhausted_budget, b.exhausted_budget) << "check " << i;
  EXPECT_EQ(a.nodes, b.nodes) << "check " << i;
  EXPECT_EQ(a.witness, b.witness) << "check " << i;
  EXPECT_EQ(a.error, b.error) << "check " << i;
}

TEST(check_parallel, reused_linearizer_tables_give_fresh_results) {
  std::vector<lin_case> cases;
  // Seed 30 is the largest stack 4x10 search among the first 60 seeds.
  cases.push_back(single_object_case(30, "stack", 4, 10, 8, true, 50));
  cases.push_back(single_object_case(1, "queue", 2, 4, 4, false,
                                     hist::k_default_node_budget));
  cases.push_back(single_object_case(30, "stack", 4, 10, 8, true,
                                     hist::k_default_node_budget));
  cases.push_back(single_object_case(1, "reg", 1, 3, 4, false,
                                     hist::k_default_node_budget));
  const auto run = [&](std::size_t i) {
    return hist::check_linearizable(cases[i].records, *cases[i].sp,
                                    cases[i].budget);
  };
  const auto on_own_thread = [](const std::function<void()>& f) {
    std::thread th(f);
    th.join();
  };

  std::vector<hist::lin_result> fresh(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    on_own_thread([&] { fresh[i] = run(i); });
  }
  std::vector<hist::lin_result> reused(cases.size());
  on_own_thread([&] {
    for (std::size_t i = 0; i < cases.size(); ++i) reused[i] = run(i);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expect_same_lin(reused[i], fresh[i], i);
  }

  // The cases are what they claim to be.
  EXPECT_TRUE(fresh[0].exhausted_budget);
  const hist::spec& stack_spec = *cases[0].sp;
  const hist::spec& queue_spec = *cases[1].sp;
  EXPECT_NE(typeid(queue_spec), typeid(stack_spec));
  EXPECT_FALSE(fresh[2].exhausted_budget);
  EXPECT_GT(fresh[2].nodes, 500u);
  EXPECT_EQ(cases[3].records.size(), 3u);
}

}  // namespace
