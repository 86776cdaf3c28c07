// detect::api::executor — backend policies, shard routing, log merging,
// per-object checker decomposition, and the real-thread backend.
#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/fuzz.hpp"
#include "test_util.hpp"
#include "util/task_pool.hpp"

#include <sys/wait.h>
#include <unistd.h>

namespace detect {
namespace {

using api::exec_backend;

// ---- builder / policy -------------------------------------------------------

TEST(executor_builder, backend_names_round_trip) {
  for (exec_backend b : {exec_backend::single, exec_backend::sharded,
                         exec_backend::threads}) {
    EXPECT_EQ(api::backend_from_name(api::backend_name(b)), b);
  }
  EXPECT_THROW(api::backend_from_name("warp"), std::invalid_argument);
}

TEST(executor_builder, rejects_nonsense_policies) {
  api::exec_policy p;
  p.shards = 0;
  EXPECT_THROW(api::make_executor(p), std::invalid_argument);

  api::exec_policy threads_with_crashes;
  threads_with_crashes.backend = exec_backend::threads;
  threads_with_crashes.crash_steps = {10};
  EXPECT_THROW(api::make_executor(threads_with_crashes),
               std::invalid_argument);

  api::exec_policy threads_shared;
  threads_shared.backend = exec_backend::threads;
  threads_shared.shared_cache = true;
  EXPECT_THROW(api::make_executor(threads_shared), std::invalid_argument);
}

TEST(executor_builder, script_pid_out_of_range_throws) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(2)
                .build();
  api::reg r = ex->add_reg();
  EXPECT_THROW(ex->script(2, {r.read()}), std::invalid_argument);
  EXPECT_THROW(ex->script(-1, {r.read()}), std::invalid_argument);
}

// ---- single backend ---------------------------------------------------------

// The same scripted workload through the classic harness and through the
// single-backend executor must produce the identical history.
TEST(executor_single, behavior_matches_the_harness) {
  auto scripted = [](auto& target) {
    api::reg r = target.add_reg();
    api::queue q = target.add_queue();
    target.script(0, {r.write(5), q.enq(1), q.enq(2), r.read()});
    target.script(1, {q.deq(), r.write(7), q.deq()});
  };

  api::harness h = api::harness::builder().procs(2).seed(99).build();
  scripted(h);
  h.run();

  auto ex = api::executor::builder()
                .backend(exec_backend::single)
                .procs(2)
                .seed(99)
                .build();
  scripted(*ex);
  ex->run();

  EXPECT_EQ(ex->log_text(), h.log_text());
  EXPECT_TRUE(ex->check().ok);
  EXPECT_TRUE(h.check().ok);
  EXPECT_EQ(ex->shards(), 1);
  EXPECT_EQ(ex->shard_of(1), 0);
}

// ---- sharded backend --------------------------------------------------------

TEST(executor_sharded, routes_objects_by_id_mod_shards) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(3)
                .procs(2)
                .build();
  std::vector<api::object_handle> objs;
  for (int i = 0; i < 7; ++i) objs.push_back(ex->add("reg"));
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(objs[static_cast<std::size_t>(i)].id(),
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(ex->shard_of(objs[static_cast<std::size_t>(i)].id()), i % 3);
  }
  EXPECT_EQ(ex->shards(), 3);
}

// add_as honors caller-chosen ids on every backend: the id decides the
// hosting shard, later auto-adds continue past it, and duplicates throw —
// the contract scenario replay relies on to reproduce declared routings.
TEST(executor_backends_add_as, honors_ids_and_rejects_duplicates) {
  for (exec_backend be :
       {exec_backend::single, exec_backend::sharded, exec_backend::threads}) {
    auto ex = api::executor::builder()
                  .backend(be)
                  .shards(be == exec_backend::sharded ? 3 : 1)
                  .procs(2)
                  .build();
    api::object_handle five = ex->add_as(5, "reg");
    EXPECT_EQ(five.id(), 5u) << backend_name(be);
    if (be == exec_backend::sharded) {
      EXPECT_EQ(ex->shard_of(five.id()), 5 % 3);
    }
    // The next auto-assigned id continues past the explicit one.
    api::object_handle next = ex->add("reg");
    EXPECT_EQ(next.id(), 6u) << backend_name(be);
    EXPECT_THROW(ex->add_as(5, "reg"), std::exception) << backend_name(be);
  }
}

TEST(executor_sharded, runs_and_checks_a_cross_shard_workload) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(3)
                .procs(3)
                .seed(7)
                .build();
  api::counter c0 = ex->add_counter();   // shard 0
  api::counter c1 = ex->add_counter();   // shard 1
  api::queue q = ex->add_queue();        // shard 2
  for (int p = 0; p < 3; ++p) {
    ex->script(p, {c0.add(1), q.enq(p), c1.add(1), q.deq(), c0.add(1)});
  }
  sim::run_report report = ex->run();
  EXPECT_FALSE(report.hit_step_limit);

  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;

  // Every scripted op responded, and the merge preserved all events.
  std::vector<hist::event> events = ex->events();
  int responses = 0;
  for (const hist::event& e : events) {
    if (e.kind == hist::event_kind::response) ++responses;
  }
  EXPECT_EQ(responses, 15);

  // Per-shard subsequences of the merged log equal the shard-local orders:
  // both counters saw 3 adds each (responses 0,1,2 in some order).
  std::multiset<hist::value_t> c0_resps;
  std::multiset<hist::value_t> c1_resps;
  for (const hist::event& e : events) {
    if (e.kind != hist::event_kind::response) continue;
    if (e.desc.object == c0.id()) c0_resps.insert(e.value);
    if (e.desc.object == c1.id()) c1_resps.insert(e.value);
  }
  EXPECT_EQ(c0_resps, (std::multiset<hist::value_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(c1_resps, (std::multiset<hist::value_t>{0, 1, 2}));
}

// A failing sharded history runs every object's sub-check and names the
// worst offender over all of them, whether or not some object has moved.
// Two lying counters fail, on shards 0 and 1: shard 1's lies after five adds,
// so its search expands more nodes than shard 0's, which lies after one. A
// clean counter sits on shard 2, or has moved to shard 0 before the run.
TEST(executor_sharded, failing_check_runs_every_shard) {
  test::register_lying_counter_once();
  struct counter_decl {
    std::uint32_t id;
    const char* kind;
    int adds;  // before the one read
  };
  const counter_decl decls[] = {{0, "test_lying_counter", 1},
                                {1, "test_lying_counter", 5},
                                {2, "counter", 1}};
  const auto declare = [](api::executor& ex, const counter_decl& d) {
    api::counter c(ex.add_as(d.id, d.kind));
    std::vector<hist::op_desc> ops(static_cast<std::size_t>(d.adds), c.add(1));
    ops.push_back(c.read());
    return ops;
  };
  // Each object's sub-check alone: its ops on a one-object world.
  std::size_t every_sub_check = 0;
  for (const counter_decl& d : decls) {
    auto lone = api::executor::builder().backend(exec_backend::single).build();
    lone->script(0, declare(*lone, d));
    lone->run();
    every_sub_check += lone->check().nodes;
  }
  for (bool moved : {false, true}) {
    auto ex = api::executor::builder()
                  .backend(exec_backend::sharded)
                  .shards(3)
                  .procs(1)
                  .placement(api::pinned_placement({{0, 0}, {1, 1}, {2, 2}}))
                  .build();
    std::vector<hist::op_desc> ops;
    for (const counter_decl& d : decls) {
      const std::vector<hist::op_desc> own = declare(*ex, d);
      ops.insert(ops.end(), own.begin(), own.end());
    }
    if (moved) ex->migrate(2, 0);
    ex->script(0, ops);
    ex->run();
    const hist::check_result r = ex->check();
    EXPECT_FALSE(r.ok) << "moved " << moved;
    EXPECT_EQ(r.objects, 3u) << "moved " << moved;
    EXPECT_EQ(r.failed_object, 1) << "moved " << moved;
    EXPECT_EQ(r.nodes, every_sub_check) << "moved " << moved;
    EXPECT_EQ(r.message.rfind("shard 1: object 1 (", 0), 0u) << r.message;
  }
}

TEST(executor_sharded, crashy_sharded_run_still_checks) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(2)
                .seed(3)
                .fail_policy(core::runtime::fail_policy::retry)
                .crash_at({9, 23})
                .build();
  api::reg r0 = ex->add_reg();
  api::reg r1 = ex->add_reg();
  ex->script(0, {r0.write(1), r1.write(2), r0.read()});
  ex->script(1, {r1.read(), r0.write(3), r1.write(4)});
  sim::run_report report = ex->run();
  EXPECT_FALSE(report.hit_step_limit);
  EXPECT_GE(report.crashes, 1u);  // both shards crash at their local steps
  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;
}

// A single-object workload lands entirely in one shard, so the sharded
// execution must be step-for-step identical to the single backend.
TEST(executor_sharded, single_object_run_is_identical_to_single_backend) {
  auto scripted = [](api::executor& ex) {
    api::cas c = ex.add_cas();
    ex.script(0, {c.compare_and_set(0, 1), c.read()});
    ex.script(1, {c.compare_and_set(0, 2), c.read()});
    ex.run();
  };
  auto single = api::executor::builder()
                    .backend(exec_backend::single)
                    .procs(2)
                    .seed(11)
                    .crash_at({6})
                    .fail_policy(core::runtime::fail_policy::retry)
                    .build();
  auto sharded = api::executor::builder()
                     .backend(exec_backend::sharded)
                     .shards(4)
                     .procs(2)
                     .seed(11)
                     .crash_at({6})
                     .fail_policy(core::runtime::fail_policy::retry)
                     .build();
  scripted(*single);
  scripted(*sharded);
  EXPECT_EQ(single->log_text(), sharded->log_text());
}

// Whichever shard hosts the only object, and with one process's script
// emptied (as the shrinker leaves them), the sharded log equals the single
// one byte for byte: the emptied pid's client task runs in the world that
// hosts the scripted ops, as it does in the single world, so both worlds
// draw the same schedule and meet a crash at the same point.
TEST(executor_sharded, emptied_script_matches_single_on_every_shard) {
  const std::uint64_t seed = 9275318442250601194ULL;
  for (const std::string& kind : api::object_registry::global().kinds()) {
    for (int home = 0; home < 3; ++home) {
      for (bool crashy : {false, true}) {
        auto scripted = [&](api::executor::builder b) {
          b.procs(3).seed(seed);
          if (crashy) b.crash_at({38});
          auto ex = b.build();
          api::object_handle h = ex->add_as(0, kind);
          ex->script(0, api::smoke_script(h.family(), 0, 0));
          ex->script(1, {});
          ex->script(2, api::smoke_script(h.family(), 0, 2));
          ex->run();
          return ex->log_text();
        };
        const std::string single =
            scripted(api::executor::builder().backend(exec_backend::single));
        const std::string sharded =
            scripted(api::executor::builder()
                         .backend(exec_backend::sharded)
                         .shards(3)
                         .placement(api::pinned_placement({{0, home}})));
        EXPECT_EQ(single, sharded)
            << kind << " on shard " << home << (crashy ? " with" : " without")
            << " a crash";
      }
    }
  }
}

// log_text() is the shared formatter over events(): on the sharded backend
// that is the merged log, crash and recovery events included.
TEST(executor_backends, log_text_formats_the_event_log) {
  for (exec_backend be : {exec_backend::single, exec_backend::sharded}) {
    api::executor::builder b;
    b.backend(be).procs(2).seed(3).fail_policy(
        core::runtime::fail_policy::retry);
    if (be == exec_backend::sharded) b.shards(2);
    auto ex = b.crash_at({9, 23}).build();
    api::reg r0 = ex->add_reg();
    api::cas c1 = ex->add_cas();
    ex->script(0, {r0.write(-1), c1.compare_and_set(0, 2), r0.read()});
    ex->script(1, {c1.read(), r0.write(3), c1.compare_and_set(2, -5)});
    ex->run();
    const std::vector<hist::event> events = ex->events();
    ASSERT_FALSE(events.empty()) << backend_name(be);
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const hist::event& e) {
                              return e.kind == hist::event_kind::crash;
                            }))
        << backend_name(be);
    EXPECT_EQ(ex->log_text(), hist::format_log(events)) << backend_name(be);
  }
}

// events_since() hands out the history in chunks: one cursor read after
// every run, across crashes, a migration and a rebalance, collects exactly
// events(); a read with no run in between is empty; on the sharded backend
// a chunk is the run's shard-log growth, merged.
TEST(executor_backends, events_since_chunks_concatenate_to_events) {
  for (exec_backend be : {exec_backend::single, exec_backend::sharded,
                          exec_backend::threads}) {
    const bool sharded = be == exec_backend::sharded;
    api::executor::builder b;
    b.backend(be).shards(sharded ? 3 : 1).procs(2).seed(7);
    if (be != exec_backend::threads) {
      b.fail_policy(core::runtime::fail_policy::retry)
          .crash_random(11, 0.05, 2);
    }
    auto ex = b.build();
    std::vector<api::counter> objs;
    for (int i = 0; i < 6; ++i) objs.push_back(ex->add_counter());

    std::vector<std::size_t> cursor;
    std::vector<hist::event> chunks;
    for (int round = 0; round < 4; ++round) {
      if (sharded && round == 2) ex->migrate(objs[0].id(), 2);
      if (sharded && round == 3) {
        api::placement_policy hash;
        hash.kind = api::placement_kind::hash;
        ex->rebalance(hash);
      }
      ex->reseed_crashes(100 + static_cast<std::uint64_t>(round));
      for (int pid = 0; pid < 2; ++pid) {
        ex->script(pid, {objs[static_cast<std::size_t>(round + pid)].add(1),
                         objs[static_cast<std::size_t>(pid)].add(2),
                         objs[5].read()});
      }
      ex->run();

      const std::vector<std::size_t> before = cursor;
      const std::vector<hist::event> chunk = ex->events_since(cursor);
      ASSERT_EQ(cursor.size(), static_cast<std::size_t>(ex->shards()))
          << backend_name(be);
      std::size_t growth = 0;
      for (std::size_t k = 0; k < cursor.size(); ++k) {
        growth += cursor[k] - (before.empty() ? 0 : before[k]);
      }
      EXPECT_EQ(chunk.size(), growth) << backend_name(be) << " run " << round;
      EXPECT_FALSE(chunk.empty()) << backend_name(be) << " run " << round;
      chunks.insert(chunks.end(), chunk.begin(), chunk.end());
      EXPECT_EQ(hist::format_log(chunks), ex->log_text())
          << backend_name(be) << " run " << round;

      const std::vector<std::size_t> idle = cursor;
      EXPECT_TRUE(ex->events_since(cursor).empty()) << backend_name(be);
      EXPECT_EQ(cursor, idle) << backend_name(be);
    }
    if (be != exec_backend::threads) {
      EXPECT_TRUE(std::any_of(chunks.begin(), chunks.end(),
                              [](const hist::event& e) {
                                return e.kind == hist::event_kind::crash;
                              }))
          << backend_name(be);
    }
    std::vector<std::size_t> fresh;
    EXPECT_EQ(hist::format_log(ex->events_since(fresh)), ex->log_text())
        << backend_name(be);
    EXPECT_EQ(fresh, cursor) << backend_name(be);
    EXPECT_TRUE(ex->check().ok) << backend_name(be);

    std::vector<std::size_t> wrong_size(cursor.size() + 1, 0);
    EXPECT_THROW(ex->events_since(wrong_size), std::invalid_argument);
    std::vector<std::size_t> past_end = cursor;
    ++past_end[0];
    EXPECT_THROW(ex->events_since(past_end), std::invalid_argument);
  }
}

// ---- threads backend --------------------------------------------------------

TEST(executor_threads, real_thread_run_passes_the_per_object_check) {
  auto ex = api::executor::builder()
                .backend(exec_backend::threads)
                .procs(4)
                .build();
  api::counter c = ex->add_counter();
  api::reg r = ex->add_reg();
  for (int p = 0; p < 4; ++p) {
    ex->script(p, {c.add(1), r.write(p), c.add(1), r.read()});
  }
  sim::run_report report = ex->run();
  EXPECT_EQ(report.steps, 16u);  // threads backend reports ops, not steps

  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;

  // 8 concurrent fetch-and-adds: all distinct old values 0..7.
  std::set<hist::value_t> adds;
  for (const hist::event& e : ex->events()) {
    if (e.kind == hist::event_kind::response &&
        e.desc.code == hist::opcode::ctr_add) {
      adds.insert(e.value);
    }
  }
  EXPECT_EQ(adds, (std::set<hist::value_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// Scripts written once run unmodified on every backend — the one-line policy
// change the redesign is for.
TEST(executor_backends, same_script_code_runs_on_all_backends) {
  for (exec_backend be : {exec_backend::single, exec_backend::sharded,
                          exec_backend::threads}) {
    auto ex = api::executor::builder()
                  .backend(be)
                  .shards(be == exec_backend::sharded ? 2 : 1)
                  .procs(2)
                  .build();
    api::stack st = ex->add_stack();
    api::max_reg m = ex->add_max_reg();
    ex->script(0, {st.push(1), m.write_max(5), st.pop()});
    ex->script(1, {st.push(2), m.write_max(3), m.read()});
    ex->run();
    hist::check_result check = ex->check();
    EXPECT_TRUE(check.ok) << api::backend_name(be) << ": " << check.message;
  }
}

// ---- per-object checker decomposition ---------------------------------------

// The ISSUE-3 acceptance scenario: a 3-object, 64-op workload whose
// product-spec search is hopeless (inconclusive under a budget the
// decomposition finishes well inside, or >= 10x the nodes) while the
// per-object path completes. Heavy overlap comes from 8 procs under a
// random scheduler; writes' unconstrained effects are what blow up the
// product branching.
TEST(per_object_decomposition, beats_the_product_spec_on_3x64_ops) {
  auto build = [] {
    api::harness h = api::harness::builder().procs(8).seed(0xdecaf).build();
    api::reg a = h.add_reg();
    api::reg b = h.add_reg();
    api::reg c = h.add_reg();
    for (int p = 0; p < 8; ++p) {
      // 8 ops per proc = 64 total, interleaving all three objects.
      h.script(p, {a.write(p), b.write(p), c.write(p), a.read(), b.read(),
                   c.read(), a.write(p + 8), c.read()});
    }
    h.run();
    return h;
  };

  api::harness h = build();
  constexpr std::size_t budget = 2'000'000;
  hist::check_options opt;
  opt.node_budget = budget;
  hist::check_result product =
      hist::check_durable_linearizability(h.events(), *h.spec(), budget);
  hist::check_result decomposed = h.check_per_object(opt);

  ASSERT_TRUE(decomposed.ok) << decomposed.message;
  ASSERT_GT(decomposed.nodes, 0u);
  EXPECT_TRUE(product.inconclusive || product.nodes >= 10 * decomposed.nodes)
      << "product nodes: " << product.nodes
      << ", per-object nodes: " << decomposed.nodes;

  // The same scenario through the sharded executor (one object per shard)
  // completes via the same decomposition.
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(3)
                .procs(8)
                .seed(0xdecaf)
                .build();
  api::reg a = ex->add_reg();
  api::reg b = ex->add_reg();
  api::reg c = ex->add_reg();
  for (int p = 0; p < 8; ++p) {
    ex->script(p, {a.write(p), b.write(p), c.write(p), a.read(), b.read(),
                   c.read(), a.write(p + 8), c.read()});
  }
  ex->run();
  hist::check_result sharded_check = ex->check(opt);
  EXPECT_TRUE(sharded_check.ok) << sharded_check.message;
  EXPECT_EQ(ex->events().size(), 2u * 64u);  // every op invoked + responded
}

TEST(per_object_decomposition, flags_objects_without_specs) {
  api::harness h = api::harness::builder().procs(1).build();
  api::reg r = h.add_reg();
  h.script(0, {r.write(1)});
  h.run();
  hist::check_result res = hist::check_durable_linearizability_per_object(
      h.events(), /*specs=*/{}, hist::check_options{});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("no spec for object id"), std::string::npos);
}

TEST(per_object_decomposition, catches_per_object_violations) {
  // Hand-build a history where object 1's responses cannot linearize while
  // object 0 is fine — the decomposition must blame object 1.
  std::vector<hist::event> events;
  auto push = [&events](hist::event_kind kind, int pid, std::uint32_t obj,
                        hist::opcode code, hist::value_t a,
                        hist::value_t value) {
    hist::event e;
    e.kind = kind;
    e.pid = pid;
    e.desc.object = obj;
    e.desc.code = code;
    e.desc.a = a;
    e.value = value;
    events.push_back(e);
  };
  using hist::event_kind;
  using hist::opcode;
  push(event_kind::invoke, 0, 0, opcode::reg_write, 4, 0);
  push(event_kind::response, 0, 0, opcode::reg_write, 4, hist::k_ack);
  push(event_kind::invoke, 0, 1, opcode::reg_read, 0, 0);
  push(event_kind::response, 0, 1, opcode::reg_read, 0, 42);  // never written

  hist::register_spec spec0(0);
  hist::register_spec spec1(0);
  hist::check_result res = hist::check_durable_linearizability_per_object(
      events, {{0, &spec0}, {1, &spec1}}, hist::check_options{});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("object 1"), std::string::npos) << res.message;
  // The worst offender is named with its node count (satellite: deep-fuzz
  // artifacts debuggable without replaying).
  EXPECT_NE(res.message.find("nodes"), std::string::npos) << res.message;
}

// ---- placement policies -----------------------------------------------------

TEST(placement, names_round_trip) {
  for (api::placement_kind k :
       {api::placement_kind::modulo, api::placement_kind::hash,
        api::placement_kind::range, api::placement_kind::pinned}) {
    EXPECT_EQ(api::placement_from_name(api::placement_name(k)), k);
  }
  EXPECT_THROW(api::placement_from_name("round_robin"), std::invalid_argument);
}

TEST(placement, to_string_parse_round_trip) {
  api::placement_policy hash;
  hash.kind = api::placement_kind::hash;
  EXPECT_EQ(api::placement_policy::parse(hash.to_string()), hash);

  api::placement_policy pinned = api::pinned_placement({{0, 1}, {7, 0}});
  EXPECT_EQ(pinned.to_string(), "pinned 0:1 7:0");
  EXPECT_EQ(api::placement_policy::parse(pinned.to_string()), pinned);

  EXPECT_THROW(api::placement_policy::parse("pinned 0:1 0:2"),
               std::invalid_argument);  // duplicate pin
  EXPECT_THROW(api::placement_policy::parse("pinned frob"),
               std::invalid_argument);
  EXPECT_THROW(api::placement_policy::parse("modulo 0:1"),
               std::invalid_argument);  // pins on a pin-less kind
}

TEST(placement, policies_are_deterministic_and_in_range) {
  for (api::placement_kind k :
       {api::placement_kind::modulo, api::placement_kind::hash,
        api::placement_kind::range, api::placement_kind::pinned}) {
    api::placement_policy p;
    p.kind = k;
    if (k == api::placement_kind::pinned) p.pins = {{3, 2}, {5, 0}};
    for (int shards : {1, 2, 3, 8}) {
      if (k == api::placement_kind::pinned && shards < 3) continue;
      for (std::uint32_t id = 0; id < 64; ++id) {
        const int a = p.shard_of(id, id, shards);
        const int b = p.shard_of(id, id, shards);
        EXPECT_EQ(a, b) << api::placement_name(k);
        EXPECT_GE(a, 0);
        EXPECT_LT(a, shards);
      }
    }
  }
}

TEST(placement, modulo_matches_ids_and_pinned_honors_pins) {
  api::placement_policy modulo;
  for (std::uint32_t id = 0; id < 16; ++id) {
    EXPECT_EQ(modulo.shard_of(id, 0, 3), static_cast<int>(id % 3));
  }
  api::placement_policy pinned = api::pinned_placement({{4, 2}});
  EXPECT_EQ(pinned.shard_of(4, 0, 3), 2);
  // Unpinned ids fall back to modulo.
  EXPECT_EQ(pinned.shard_of(5, 1, 3), 2);
  EXPECT_EQ(pinned.shard_of(9, 2, 3), 0);
}

TEST(placement, range_places_contiguous_declaration_blocks) {
  api::placement_policy range;
  range.kind = api::placement_kind::range;
  // Fixed-width declaration blocks, wrapping over the shards.
  const std::size_t block = api::k_range_block_size;
  for (std::size_t decl = 0; decl < 64; ++decl) {
    EXPECT_EQ(range.shard_of(1000, decl, 8),
              static_cast<int>((decl / block) % 8));
  }
}

// The ISSUE acceptance bar: hash and range spread 64 objects over 8 shards
// within 2x of ideal balance (ideal = 8 objects per shard).
TEST(placement, hash_and_range_spread_within_2x_of_ideal) {
  for (api::placement_kind k :
       {api::placement_kind::hash, api::placement_kind::range}) {
    api::placement_policy p;
    p.kind = k;
    std::vector<int> load(8, 0);
    for (std::uint32_t id = 0; id < 64; ++id) {
      ++load[static_cast<std::size_t>(p.shard_of(id, id, 8))];
    }
    const int ideal = 64 / 8;
    for (int shard_load : load) {
      EXPECT_LE(shard_load, 2 * ideal) << api::placement_name(k);
    }
  }
}

TEST(placement_builder, validates_policies_at_build_time) {
  // shards on a non-sharded backend fail loudly ...
  try {
    api::executor::builder().backend(exec_backend::single).shards(4).build();
    FAIL() << "single + shards(4) must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sharded"), std::string::npos);
  }
  // ... and so do pinned maps naming out-of-range shards.
  try {
    api::executor::builder()
        .backend(exec_backend::sharded)
        .shards(2)
        .placement(api::pinned_placement({{0, 5}}))
        .build();
    FAIL() << "pin to shard 5 of 2 must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 5"), std::string::npos) << what;
    EXPECT_NE(what.find("2 shard"), std::string::npos) << what;
  }
  // A well-formed pinned map builds.
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .placement(api::pinned_placement({{0, 1}}))
                .build();
  EXPECT_EQ(ex->placement().kind, api::placement_kind::pinned);
  EXPECT_EQ(ex->shard_of(0), 1);
}

TEST(placement_builder, executor_routes_by_the_selected_policy) {
  for (api::placement_kind k :
       {api::placement_kind::modulo, api::placement_kind::hash,
        api::placement_kind::range}) {
    api::placement_policy p;
    p.kind = k;
    auto ex = api::executor::builder()
                  .backend(exec_backend::sharded)
                  .shards(3)
                  .placement(p)
                  .procs(2)
                  .build();
    for (std::uint32_t id = 0; id < 9; ++id) {
      api::object_handle h = ex->add("counter");
      EXPECT_EQ(ex->shard_of(h.id()),
                p.shard_of(h.id(), static_cast<std::size_t>(id), 3))
          << api::placement_name(k);
    }
  }
}

TEST(placement_builder, hash_routed_workload_runs_and_checks) {
  api::placement_policy p;
  p.kind = api::placement_kind::hash;
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(3)
                .placement(p)
                .procs(3)
                .seed(11)
                .build();
  api::counter c0 = ex->add_counter();
  api::counter c1 = ex->add_counter();
  api::queue q = ex->add_queue();
  for (int pid = 0; pid < 3; ++pid) {
    ex->script(pid, {c0.add(1), q.enq(pid), c1.add(1), q.deq()});
  }
  ex->run();
  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;
}

// ---- live migration ---------------------------------------------------------

TEST(migration, transplants_state_between_runs) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(1)
                .build();
  api::counter c = ex->add_counter();  // id 0 -> shard 0 under modulo
  ASSERT_EQ(ex->shard_of(c.id()), 0);
  ex->script(0, {c.add(5), c.read()});
  ex->run();

  ex->migrate(c.id(), 1);
  EXPECT_EQ(ex->shard_of(c.id()), 1);

  ex->script(0, {c.add(2), c.read()});
  ex->run();

  // The final read sees 7: the counter's value crossed the shard move.
  std::vector<hist::value_t> reads;
  for (const hist::event& e : ex->events()) {
    if (e.kind == hist::event_kind::response &&
        e.desc.code == hist::opcode::ctr_read) {
      reads.push_back(e.value);
    }
  }
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0], 5);
  EXPECT_EQ(reads[1], 7);
  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(migration, is_a_noop_to_the_current_home_and_validates_arguments) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(1)
                .build();
  api::counter c = ex->add_counter();
  ex->migrate(c.id(), 0);  // already home — fine
  EXPECT_EQ(ex->shard_of(c.id()), 0);
  EXPECT_THROW(ex->migrate(99, 1), std::invalid_argument);
  EXPECT_THROW(ex->migrate(c.id(), 2), std::invalid_argument);
  EXPECT_THROW(ex->migrate(c.id(), -1), std::invalid_argument);
}

TEST(migration, non_sharded_backends_reject_migration) {
  for (exec_backend be : {exec_backend::single, exec_backend::threads}) {
    auto ex = api::executor::builder().backend(be).procs(1).build();
    api::counter c = ex->add_counter();
    EXPECT_THROW(ex->migrate(c.id(), 0), std::invalid_argument)
        << backend_name(be);
    EXPECT_THROW(ex->rebalance(api::placement_policy{}), std::invalid_argument)
        << backend_name(be);
  }
}

TEST(migration, rebalance_moves_everything_to_the_new_policy) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(4)
                .procs(2)
                .build();
  std::vector<api::counter> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(ex->add_counter());
  ex->script(0, {objs[0].add(1), objs[5].add(1)});
  ex->script(1, {objs[2].add(1), objs[7].add(1)});
  ex->run();

  api::placement_policy hash;
  hash.kind = api::placement_kind::hash;
  const int moved = ex->rebalance(hash);
  EXPECT_GT(moved, 0);
  EXPECT_EQ(ex->placement().kind, api::placement_kind::hash);
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_EQ(ex->shard_of(id),
              hash.shard_of(id, static_cast<std::size_t>(id), 4));
  }
  // New objects route by the adopted policy too.
  api::counter fresh = ex->add_counter();
  EXPECT_EQ(ex->shard_of(fresh.id()), hash.shard_of(fresh.id(), 8, 4));

  ex->script(0, {objs[0].add(1), objs[5].read()});
  ex->run();
  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;
}

// Sweep the crash position across both rounds: post-migration recovery on
// the destination world re-reports completions under that world's own
// client_seq numbering, which overlaps the source world's — the per-object
// stream assembly must keep (pid, seq) unique across the move or the
// checker's duplicate-completion suppression swallows real ops.
TEST(migration, crash_position_sweep_stays_checkable_across_the_move) {
  for (const char* kind : {"reg", "nrl_reg"}) {
    for (std::uint64_t c = 1; c <= 60; ++c) {
      auto ex = api::executor::builder()
                    .backend(exec_backend::sharded)
                    .shards(2)
                    .procs(2)
                    .seed(3)
                    .fail_policy(core::runtime::fail_policy::retry)
                    .crash_at({c})
                    .build();
      api::reg r(ex->add(kind));
      ex->script(0, {r.write(1), r.read()});
      ex->script(1, {r.write(2), r.read()});
      ex->run();
      ex->migrate(r.id(), 1);
      ex->script(0, {r.write(3), r.read()});
      ex->script(1, {r.read()});
      ex->run();
      hist::check_result check = ex->check();
      EXPECT_TRUE(check.ok)
          << kind << " crash at " << c << ": " << check.message;
    }
  }
}

TEST(migration, history_stays_checkable_under_crashy_rounds) {
  // Crashes in both rounds, migration in between: the carried per-object
  // history plus the destination world's crash events must still check.
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(2)
                .seed(5)
                .fail_policy(core::runtime::fail_policy::retry)
                .crash_at({7, 19})
                .build();
  api::reg r = ex->add_reg();
  ex->script(0, {r.write(1), r.read(), r.write(2)});
  ex->script(1, {r.read(), r.write(3)});
  ex->run();
  ex->migrate(r.id(), 1);
  ex->script(0, {r.write(4), r.read()});
  ex->script(1, {r.read()});
  ex->run();
  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_GE(check.objects, 1u);
}

// A counter leaves shard 0 and comes back over three crashy rounds, next
// to a counter that never moves: its stream joins a stay on shard 0, one on
// shard 1, and a second stay on shard 0, each with that world's crashes.
TEST(migration, an_object_can_return_to_a_shard_it_left) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(2)
                .seed(21)
                .fail_policy(core::runtime::fail_policy::retry)
                .crash_random(5, 0.05, 2)
                .placement(api::pinned_placement({{0, 0}, {1, 0}}))
                .build();
  api::counter mover = ex->add_counter();
  api::counter fixed = ex->add_counter();
  std::uint64_t crashes = 0;
  for (int round = 0; round < 3; ++round) {
    if (round > 0) ex->migrate(mover.id(), round % 2);
    ex->reseed_crashes(100 + static_cast<std::uint64_t>(round));
    ex->script(0, {mover.add(1), fixed.add(2), mover.read()});
    ex->script(1, {fixed.add(1), mover.add(3), fixed.read()});
    crashes += ex->run().crashes;
  }
  EXPECT_EQ(ex->shard_of(mover.id()), 0);
  EXPECT_EQ(ex->shard_of(fixed.id()), 0);
  EXPECT_GE(crashes, 1u);
  hist::check_result check = ex->check();
  EXPECT_TRUE(check.ok) << check.message;
  EXPECT_EQ(check.objects, 2u);
  EXPECT_EQ(check.nodes, 18u);  // as when migrate() copied the history
}

// The ISSUE acceptance bar: the state transplant round-trips for every
// registry kind — run a smoke workload, migrate, run it again, and the
// merged history still checks (crash-free, so non-detectable kinds qualify
// too).
TEST(migration, state_transplant_round_trips_for_every_registry_kind) {
  for (const std::string& kind : api::object_registry::global().kinds()) {
    if (kind == "test_lying_counter") continue;  // this suite's planted lie
    auto ex = api::executor::builder()
                  .backend(exec_backend::sharded)
                  .shards(2)
                  .procs(1)
                  .build();
    api::object_handle h = ex->add_as(0, kind);
    std::vector<hist::op_desc> script = api::smoke_script(h.family(), 0, 0);
    if (h.family() == api::op_family::lock) {
      // The smoke script ends holding; balance it so round two's first
      // try_lock honors the lock's usage contract.
      script.push_back({0, hist::opcode::lock_release, 0, 0, 0});
    }
    ex->script(0, script);
    ex->run();
    ex->migrate(0, 1);
    EXPECT_EQ(ex->shard_of(0), 1) << kind;
    ex->script(0, script);
    ex->run();
    hist::check_result check = ex->check();
    EXPECT_TRUE(check.ok) << kind << ": " << check.message;
  }
}

// ---- driver pool sizing -----------------------------------------------------

TEST(pool_threads, explicit_size_wins_and_one_collapses_to_inline) {
  auto four = api::executor::builder()
                  .backend(exec_backend::sharded)
                  .shards(4)
                  .pool_threads(4)
                  .build();
  EXPECT_EQ(four->pool_workers(), 4);

  // One worker would only add handoff latency over the submitting thread's
  // own loop, so it collapses to inline mode.
  auto one = api::executor::builder()
                 .backend(exec_backend::sharded)
                 .shards(4)
                 .pool_threads(1)
                 .build();
  EXPECT_EQ(one->pool_workers(), 0);

  // More workers than shards is wasted threads; capped.
  auto surplus = api::executor::builder()
                     .backend(exec_backend::sharded)
                     .shards(2)
                     .pool_threads(8)
                     .build();
  EXPECT_EQ(surplus->pool_workers(), 2);
}

TEST(pool_threads, validates_at_build_time) {
  api::exec_policy negative;
  negative.backend = exec_backend::sharded;
  negative.shards = 2;
  negative.pool_threads = -1;
  EXPECT_THROW(api::make_executor(negative), std::invalid_argument);

  api::exec_policy off_backend;
  off_backend.pool_threads = 2;  // single backend has no driver pool
  EXPECT_THROW(api::make_executor(off_backend), std::invalid_argument);
}

/// `s` on the sharded backend with an explicit driver-pool size — the
/// replay() recipe (two script rounds around the migration plan) with
/// builder::pool_threads(pool) added.
api::scripted_outcome replay_with_pool(const api::scripted_scenario& s,
                                       int pool) {
  api::executor::builder b;
  b.backend(exec_backend::sharded)
      .shards(s.shards)
      .placement(s.placement)
      .pool_threads(pool)
      .procs(s.nprocs)
      .fail_policy(s.policy)
      .seed(s.sched_seed)
      .schedule(s.sched)
      .persist(s.persist)
      .visibility(s.visibility);
  if (!s.drain_steps.empty()) b.drain_at(s.drain_steps);
  if (!s.crash_steps.empty()) b.crash_at(s.crash_steps);
  if (s.shared_cache) b.shared_cache();
  std::unique_ptr<api::executor> ex = b.build();
  for (const api::scenario_object& o : s.objects) {
    ex->add_as(o.id, o.kind, o.params);
  }
  for (const auto& [pid, ops] : s.scripts) ex->script(pid, ops);
  const sim::run_report first = ex->run();
  if (!s.migrations.empty() && !first.hit_step_limit) {
    for (const auto& [id, shard] : s.migrations) ex->migrate(id, shard);
    for (const auto& [pid, ops] : s.scripts) ex->script(pid, ops);
    ex->run();
  }
  api::scripted_outcome out;
  out.check = ex->check();
  out.events = ex->events();
  out.log_text = ex->log_text();
  return out;
}

bool same_event(const hist::event& x, const hist::event& y) {
  return x.kind == y.kind && x.pid == y.pid && x.desc.object == y.desc.object &&
         x.desc.code == y.desc.code && x.desc.a == y.desc.a &&
         x.desc.b == y.desc.b && x.desc.client_seq == y.desc.client_seq &&
         x.value == y.value && x.verdict == y.verdict;
}

// 200 generated sharded scenarios — multi-object, crashy, migrating, with
// tso/pso drains — replayed with the automatic driver pool (0) and with
// pools of 1 (inline), 2 and 4 lanes, each against api::replay(), which
// runs a scenario's shards inline. Worlds are deterministic in isolation, so
// every pool size must merge to the identical log and check.
TEST(pool_threads, pool_size_does_not_change_results) {
  fuzz::gen_config cfg;
  cfg.min_shards = 2;
  cfg.max_shards = 4;
  cfg.max_procs = 4;
  cfg.max_ops = 6;
  cfg.max_objects = 4;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  cfg.visibility_pool = {"sc", "tso", "pso"};
  const std::vector<std::string> kinds = {"reg", "cas", "counter", "queue",
                                          "stack", "swap", "max_reg"};
  int crashy = 0, migrating = 0, draining = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    s.backend = exec_backend::sharded;
    // The generator plans migrations only for crash-free scenarios it put
    // on the sharded backend itself; give every third scenario one.
    if (seed % 3 == 0 && s.migrations.empty()) {
      s.migrations.emplace_back(s.objects[seed % s.objects.size()].id,
                                static_cast<int>(seed % s.shards));
    }
    crashy += !s.crash_steps.empty();
    migrating += !s.migrations.empty();
    draining += !s.drain_steps.empty();

    const api::scripted_outcome replayed = api::replay(s);
    for (int pool : {0, 1, 2, 4}) {
      const api::scripted_outcome sized = replay_with_pool(s, pool);
      ASSERT_EQ(sized.log_text, replayed.log_text)
          << "seed " << seed << " pool " << pool;
      ASSERT_EQ(sized.events.size(), replayed.events.size());
      for (std::size_t i = 0; i < sized.events.size(); ++i) {
        ASSERT_TRUE(same_event(sized.events[i], replayed.events[i]))
            << "seed " << seed << " pool " << pool << " event " << i;
      }
      ASSERT_EQ(sized.check.ok, replayed.check.ok) << "seed " << seed;
      ASSERT_EQ(sized.check.inconclusive, replayed.check.inconclusive)
          << "seed " << seed;
      ASSERT_EQ(sized.check.message, replayed.check.message)
          << "seed " << seed;
      ASSERT_EQ(sized.check.nodes, replayed.check.nodes) << "seed " << seed;
    }
  }
  // The corpus really exercised crashes, migrations and store-buffer drains.
  EXPECT_GE(crashy, 100);
  EXPECT_GE(migrating, 50);
  EXPECT_GE(draining, 50);
}

// api::replay drives a scenario's shards inline, so it never wakes the
// shared driver pool. Forked, because the parent's pool may already have
// workers from earlier tests; a forked child starts with none.
TEST(pool_threads, replay_never_wakes_the_pool) {
  const api::scripted_scenario s = api::parse_scenario(
      "object 0 reg 0 64\n"
      "object 1 cas 0 64\n"
      "object 2 counter 0 64\n"
      "object 3 reg 0 64\n"
      "procs 2\n"
      "sched_seed 7\n"
      "backend sharded\n"
      "shards 4\n"
      "migrate 0 3\n"
      "migrate 2 1\n"
      "script 0 reg_write:3:0 cas:0:5@1 ctr_add:2:0@2 reg_read:0:0@3\n"
      "script 1 ctr_add:1:0@2 reg_write:7:0@3 cas:5:6@1 reg_read:0:0\n");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 0;
    if (util::task_pool::shared().workers() != 0) code |= 1;
    const api::scripted_outcome out = api::replay(s);
    if (!out.check.ok) code |= 2;
    if (util::task_pool::shared().workers() != 0) code |= 4;
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---- persistent-cell footprint ----------------------------------------------

TEST(run_report, carries_the_nvm_footprint) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(2)
                .procs(2)
                .build();
  api::counter c0 = ex->add_counter();
  api::counter c1 = ex->add_counter();
  ex->script(0, {c0.add(1)});
  ex->script(1, {c1.add(1)});
  sim::run_report rep = ex->run();
  EXPECT_GT(rep.nvm_cells, 0u);
  EXPECT_GT(rep.nvm_bytes, 0u);
  // A cell's persisted image is at least one byte; bytes dominate cells.
  EXPECT_GE(rep.nvm_bytes, rep.nvm_cells);
}

TEST(run_report, threads_backend_reports_the_arena_footprint) {
  auto ex = api::executor::builder()
                .backend(exec_backend::threads)
                .procs(2)
                .build();
  api::counter c = ex->add_counter();
  ex->script(0, {c.add(1)});
  ex->script(1, {c.add(1)});
  sim::run_report rep = ex->run();
  EXPECT_GT(rep.nvm_cells, 0u);
  EXPECT_GT(rep.nvm_bytes, 0u);
}

// ---- current assignment -----------------------------------------------------

TEST(current_assignment, tracks_migrations) {
  auto ex = api::executor::builder()
                .backend(exec_backend::sharded)
                .shards(3)
                .procs(1)
                .build();
  api::counter c0 = ex->add_counter();  // id 0 → shard 0
  api::counter c1 = ex->add_counter();  // id 1 → shard 1
  ex->script(0, {c0.add(1), c1.add(1)});
  ex->run();
  ex->migrate(c0.id(), 2);

  api::placement_policy assign = ex->current_assignment();
  ASSERT_EQ(assign.kind, api::placement_kind::pinned);
  EXPECT_EQ(assign.pins.at(c0.id()), 2);
  EXPECT_EQ(assign.pins.at(c1.id()), 1);

  // Ground truth is reusable: a fresh executor under the returned pins
  // routes the same ids to the same shards.
  auto fresh = api::executor::builder()
                   .backend(exec_backend::sharded)
                   .shards(3)
                   .placement(assign)
                   .build();
  EXPECT_EQ(fresh->shard_of(c0.id()), 2);
  EXPECT_EQ(fresh->shard_of(c1.id()), 1);
}

// ---- load_ratio -------------------------------------------------------------

TEST(load_ratio, measures_imbalance_against_the_ideal_spread) {
  EXPECT_DOUBLE_EQ(api::load_ratio({}), 0.0);
  EXPECT_DOUBLE_EQ(api::load_ratio({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(api::load_ratio({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(api::load_ratio({8, 0}), 2.0);       // all on one of two
  EXPECT_DOUBLE_EQ(api::load_ratio({12, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(api::load_ratio({6, 2}), 1.5);
}

// ---- crash-plan reseeding ---------------------------------------------------

TEST(reseed_crashes, varies_the_crash_points_between_rounds) {
  auto build = [] {
    return api::executor::builder()
        .backend(exec_backend::sharded)
        .shards(1)
        .procs(2)
        .fail_policy(core::runtime::fail_policy::retry)
        .crash_random(3, 0.05, 2)
        .build();
  };
  // Unreseeded rounds rebuild the same plan: identical crash draw positions.
  auto fixed = build();
  auto reseeded = build();
  api::counter cf = fixed->add_counter();
  api::counter cr = reseeded->add_counter();
  std::uint64_t fixed_crashes = 0;
  std::uint64_t reseeded_crashes = 0;
  for (int round = 0; round < 6; ++round) {
    fixed->script(0, {cf.add(1), cf.add(1)});
    fixed->script(1, {cf.add(1)});
    fixed_crashes += fixed->run().crashes;

    reseeded->reseed_crashes(1000 + static_cast<std::uint64_t>(round));
    reseeded->script(0, {cr.add(1), cr.add(1)});
    reseeded->script(1, {cr.add(1)});
    reseeded_crashes += reseeded->run().crashes;
  }
  // Both histories must still check out; the reseeded one stays correct
  // under varied crash points (the actual counts are seed-dependent).
  EXPECT_TRUE(fixed->check().ok);
  EXPECT_TRUE(reseeded->check().ok);
  (void)fixed_crashes;
  (void)reseeded_crashes;
}

}  // namespace
}  // namespace detect
