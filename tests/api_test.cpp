// The detect::api façade itself: registry qualification of every object kind,
// harness builder configuration, typed-handle descriptor construction, and
// the fail_policy::retry exactly-once guarantee under mid-operation crashes.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/detectable_cas.hpp"
#include "serve/serve.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using namespace detect::test;

// ---- typed handles ----------------------------------------------------------

TEST(handles, construct_correct_descriptors) {
  auto h = api::harness::builder().procs(2).build();
  api::reg r = h.add_reg();
  api::cas c = h.add_cas();
  api::queue q = h.add_queue();

  hist::op_desc w = r.write(42);
  EXPECT_EQ(w.object, r.id());
  EXPECT_EQ(w.code, hist::opcode::reg_write);
  EXPECT_EQ(w.a, 42);

  hist::op_desc cs = c.compare_and_set(1, 2);
  EXPECT_EQ(cs.object, c.id());
  EXPECT_EQ(cs.code, hist::opcode::cas);
  EXPECT_EQ(cs.a, 1);
  EXPECT_EQ(cs.b, 2);

  hist::op_desc e = q.enq(7);
  EXPECT_EQ(e.object, q.id());
  EXPECT_EQ(e.code, hist::opcode::enq);

  // Fresh ids per object, in registration order.
  EXPECT_EQ(r.id(), 0u);
  EXPECT_EQ(c.id(), 1u);
  EXPECT_EQ(q.id(), 2u);
}

TEST(handles, empty_handle_throws) {
  api::object_handle empty;
  EXPECT_THROW(empty.object(), std::logic_error);
}

// ---- object_registry --------------------------------------------------------

TEST(object_registry, knows_all_builtin_kinds) {
  auto& reg = api::object_registry::global();
  for (const char* kind :
       {"reg", "cas", "counter", "swap", "tas", "queue", "stack", "max_reg",
        "lock", "nrl_reg", "attiya_reg", "bendavid_cas", "plain_reg",
        "plain_cas", "plain_counter", "stripped_reg", "stripped_cas",
        "stripped_counter", "stripped_swap", "stripped_tas", "stripped_queue",
        "stripped_stack"}) {
    EXPECT_TRUE(reg.contains(kind)) << kind;
  }
}

TEST(object_registry, unknown_kind_throws) {
  auto h = api::harness::builder().procs(1).build();
  EXPECT_THROW(h.add("no_such_object"), std::invalid_argument);
}

TEST(object_registry, duplicate_kind_rejected) {
  auto& reg = api::object_registry::global();
  api::kind_info dup = reg.at("reg");
  EXPECT_THROW(api::object_registry::global().add(std::move(dup)),
               std::invalid_argument);
}

TEST(object_registry, stripped_kinds_disable_aux_resets) {
  auto h = api::harness::builder().procs(2).build();
  EXPECT_FALSE(h.add("stripped_cas").object().wants_aux_reset());
  EXPECT_TRUE(h.add("cas").object().wants_aux_reset());
  EXPECT_FALSE(h.add("max_reg").object().wants_aux_reset())
      << "Algorithm 3 needs no auxiliary state by construction";
}

// Every kind in the registry must be instantiable by name and pass a
// crash-free smoke scenario checked against its own spec — the qualification
// gate for core algorithms, baselines, and stripped variants alike.
class registry_qualification : public ::testing::TestWithParam<std::string> {};

TEST_P(registry_qualification, instantiates_and_passes_smoke_scenario) {
  const std::string kind = GetParam();
  auto h = api::harness::builder().procs(2).seed(7).build();
  api::object_handle obj = h.add(kind);
  EXPECT_EQ(obj.kind(), kind);
  for (int pid = 0; pid < 2; ++pid) {
    h.script(pid, api::smoke_script(obj.family(), obj.id(), pid));
  }
  auto report = h.run();
  EXPECT_FALSE(report.hit_step_limit);
  auto check = h.check();
  EXPECT_TRUE(check.ok) << kind << ":\n" << check.message << h.log_text();
}

INSTANTIATE_TEST_SUITE_P(
    all_kinds, registry_qualification,
    ::testing::ValuesIn(api::object_registry::global().kinds()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Detectable kinds must additionally survive a crash battery through the
// runtime's recovery protocol.
class registry_crash_qualification : public ::testing::TestWithParam<std::string> {};

TEST_P(registry_crash_qualification, crash_fuzz_by_name) {
  const std::string kind = GetParam();
  scenario cfg;
  cfg.nprocs = 2;
  cfg.setup = [kind](api::harness& h) {
    api::object_handle obj = h.add(kind);
    for (int pid = 0; pid < 2; ++pid) {
      h.script(pid, api::smoke_script(obj.family(), obj.id(), pid));
    }
  };
  crash_fuzz(cfg, 40, 2, std::hash<std::string>{}(kind) % 100000);
}

INSTANTIATE_TEST_SUITE_P(detectable_kinds, registry_crash_qualification,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> kinds;
                           auto& reg = api::object_registry::global();
                           for (const std::string& k : reg.kinds()) {
                             if (reg.at(k).detectable) kinds.push_back(k);
                           }
                           return kinds;
                         }()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---- harness builder --------------------------------------------------------

TEST(harness_builder, wires_fail_policy_and_crash_plan) {
  auto h = api::harness::builder()
               .procs(2)
               .fail_policy(core::runtime::fail_policy::retry)
               .seed(2024)
               .crash_random(99, 0.02, 4)
               .build();
  api::reg r = h.add_reg();
  api::cas c = h.add_cas();
  h.script(0, {r.write(1), c.compare_and_set(0, 7), r.read()});
  h.script(1, {c.compare_and_set(0, 9), r.read()});
  auto report = h.run();
  EXPECT_FALSE(report.hit_step_limit);
  auto check = h.check();
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(harness_builder, shared_cache_mode_with_transform) {
  auto cfg = one_object<api::reg>("reg", 2, [](api::reg r) {
    return scripts{{0, {r.write(1), r.read()}}, {1, {r.write(2)}}};
  });
  cfg.shared_cache = true;
  crash_fuzz(cfg, 30, 2);
}

TEST(harness_builder, max_steps_is_honored) {
  auto h = api::harness::builder().procs(1).max_steps(3).build();
  api::reg r = h.add_reg();
  h.script(0, {r.write(1), r.write(2), r.write(3)});
  auto report = h.run();
  EXPECT_TRUE(report.hit_step_limit);
}

// ---- one run policy behind every builder ------------------------------------

// One fixed multi-object workload, run through harness::builder and through
// the single-backend executor::builder under each run setting. Both must
// produce the same log, run report and verdict, and each row's hash is
// pinned: a setter that stops reaching the world, or reaches it differently,
// moves it. Each row runs under its engine, the process-global switch; the
// two engines are behavior-identical, so their rows agree.
std::uint64_t hash_run(const std::string& log_text,
                       const sim::run_report& r,
                       const hist::check_result& c) {
  std::uint64_t h = fnv(k_fnv_basis, log_text);
  for (std::uint64_t v : {r.steps, r.crashes, r.nvm_cells, r.nvm_bytes,
                          r.drain_steps, r.max_pending_stores}) {
    h = fnv(h, std::to_string(v));
  }
  h = fnv(h, r.hit_step_limit ? "limit" : "-");
  h = fnv(h, r.limit_note);
  h = fnv(h, r.lost_persistence ? "lost" : "-");
  h = fnv(h, c.ok ? "ok" : "rejected");
  h = fnv(h, std::to_string(c.nodes));
  return fnv(h, c.message);
}

struct setting_pin {
  const char* name;
  std::uint64_t hash;
  sim::engine_kind engine = sim::engine_kind::fiber;
};

const setting_pin k_setting_pins[] = {
    {"defaults", 1792608931577943850ULL},
    {"seed_pct", 15830534035708746123ULL},
    {"buffered_persist", 14542942333907881510ULL},
    {"tso_drain_at", 5991851367587486827ULL},
    {"crash_at", 1046755004407294942ULL},
    {"crash_random", 2587694661587868413ULL},
    {"shared_cache_auto_persist", 10937658743551565538ULL},
    {"shared_cache_no_auto_persist", 2446011991235741867ULL},
    {"retry", 1940906928006648966ULL},
    {"max_steps_limit", 4083085950161400429ULL},
    {"fiber_engine", 17519818188196813325ULL},
    {"thread_engine", 17519818188196813325ULL, sim::engine_kind::thread},
};

template <typename B>
void apply_setting(B& b, const std::string& name) {
  b.procs(3);
  if (name == "seed_pct") {
    b.seed(11).schedule({.strat = sched::strategy::pct, .pct_points = {4, 13}});
  } else if (name == "buffered_persist") {
    b.seed(3).persist(nvm::persist_model::buffered).crash_at({17});
  } else if (name == "tso_drain_at") {
    b.seed(5).visibility(wmm::visibility_model::tso).drain_at({6, 15});
  } else if (name == "crash_at") {
    b.crash_at({9, 23});
  } else if (name == "crash_random") {
    b.seed(8).crash_random(21, 0.05, 3);
  } else if (name == "shared_cache_auto_persist") {
    b.seed(2).shared_cache(true).crash_at({14});
  } else if (name == "shared_cache_no_auto_persist") {
    b.seed(2).shared_cache(false).crash_at({14});
  } else if (name == "retry") {
    b.seed(4)
        .fail_policy(core::runtime::fail_policy::retry)
        .crash_at({7, 19});
  } else if (name == "max_steps_limit") {
    b.seed(6).max_steps(25);
  } else if (name == "fiber_engine" || name == "thread_engine") {
    b.seed(9).crash_at({12});
  }
}

/// The fixed workload: four objects, three processes, cross-object scripts.
template <typename Target>
void script_workload(Target& t) {
  api::reg r = t.add_reg();
  api::cas c = t.add_cas(1);
  api::counter k = t.add_counter();
  api::queue q = t.add_queue(8);
  t.script(0, {r.write(1), c.compare_and_set(1, 2), q.enq(5), k.add(2),
               r.read()});
  t.script(1, {c.compare_and_set(1, 3), q.enq(6), r.write(2), k.read(),
               q.deq()});
  t.script(2, {k.add(3), q.deq(), c.read(), r.read()});
}

TEST(run_policy_pin, harness_and_executor_agree_per_setting) {
  for (const setting_pin& pin : k_setting_pins) {
    SCOPED_TRACE(pin.name);
    engine_guard guard(pin.engine);
    api::harness::builder hb;
    apply_setting(hb, pin.name);
    api::harness h = hb.build();
    script_workload(h);
    const sim::run_report hr = h.run();
    const std::uint64_t from_harness =
        hash_run(h.log_text(), hr, h.check_per_object());

    api::executor::builder eb;
    apply_setting(eb, pin.name);
    std::unique_ptr<api::executor> ex = eb.build();
    script_workload(*ex);
    const sim::run_report er = ex->run();
    const std::uint64_t from_executor =
        hash_run(ex->log_text(), er, ex->check());

    EXPECT_EQ(from_harness, from_executor);
    EXPECT_EQ(from_harness, pin.hash);
  }
}

// run() builds one crash plan, so a policy naming both would silently drop
// crash_random. Harness construction refuses the pair, and every backend
// that builds worlds goes through it.
TEST(run_policy_pin, both_crash_plans_are_rejected) {
  EXPECT_THROW(api::harness::builder()
                   .crash_at({5})
                   .crash_random(1, 0.1, 2)
                   .build(),
               std::invalid_argument);
  for (api::exec_backend b :
       {api::exec_backend::single, api::exec_backend::sharded}) {
    EXPECT_THROW(api::executor::builder()
                     .backend(b)
                     .shards(b == api::exec_backend::sharded ? 2 : 1)
                     .crash_at({5})
                     .crash_random(1, 0.1, 2)
                     .build(),
                 std::invalid_argument)
        << api::backend_name(b);
  }
  EXPECT_NO_THROW(api::harness::builder().crash_at({5}).build());
  EXPECT_NO_THROW(api::harness::builder().crash_random(1, 0.1, 2).build());
}

// A deterministic serving soak: crashes every round and the rebalancer
// moving a hot cluster. The server builds its executor from the same
// policy; its log, stats, verdict and callback order are pinned.
TEST(run_policy_pin, server_pump_soak) {
  auto srv = serve::server::builder()
                 .shards(2)
                 .procs(4)
                 .seed(13)
                 .crash_random(29, 0.01, 2)
                 .batch_max_ops(64)
                 .rebalance({.enabled = true,
                             .window = 2,
                             .check_every = 2,
                             .hot_ratio = 1.2,
                             .sustain = 1,
                             .max_moves = 4})
                 .build();
  std::vector<api::counter> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(srv->add_counter());
  std::vector<serve::session> sessions;
  for (int i = 0; i < 4; ++i) sessions.push_back(srv->open_session());
  // The order completion callbacks fire in, across shards and through
  // crash recoveries, is part of the serving contract too.
  std::string fired;
  std::uint64_t callbacks = 0;
  const auto record = [&](const serve::completion& c) {
    ++callbacks;
    fired += std::to_string(c.ticket) + ':' + std::to_string(c.session) +
             ':' + std::to_string(c.object) + ':' + std::to_string(c.value) +
             ';';
  };
  for (int wave = 0; wave < 8; ++wave) {
    for (int s = 0; s < 4; ++s) {
      for (int i = 0; i < 6; ++i) {
        // Most traffic lands on the even (shard-0) objects.
        const int id = (i % 3 == 0 ? 2 * (s + wave) + 1 : 2 * (s + i)) % 8;
        ASSERT_EQ(sessions[static_cast<std::size_t>(s)].submit(
                      objs[static_cast<std::size_t>(id)].add(1), record),
                  serve::submit_status::admitted);
      }
    }
    srv->pump();
  }
  srv->drain();
  const serve::stats st = srv->snapshot();
  EXPECT_GT(st.crashes, 0u);
  EXPECT_FALSE(st.moves.empty());
  const hist::check_result c = srv->check();
  EXPECT_TRUE(c.ok) << c.message;
  std::uint64_t h = fnv(k_fnv_basis, hist::format_log(srv->events()));
  h = fnv(h, serve::stats_json(st));
  h = fnv(h, c.ok ? "ok" : "rejected");
  EXPECT_EQ(h, 8681697165048369594ULL);
  EXPECT_EQ(callbacks, st.admitted);
  EXPECT_EQ(fnv(k_fnv_basis, fired), 5523497507384660344ULL);
}

// ---- fail_policy::retry: exactly-once under mid-operation crashes -----------

// Crash a counter add at its commit point — once right BEFORE the capsule's
// CAS (recovery reports fail, the runtime re-attempts) and once right AFTER
// (recovery reports linearized, no re-attempt). In both branches the add
// must linearize exactly once: the follow-up read sees 1, never 0 or 2.
TEST(fail_policy_retry, mid_op_crash_linearizes_exactly_once) {
  for (bool crash_after_commit : {false, true}) {
    auto h = api::harness::builder()
                 .procs(1)
                 .fail_policy(core::runtime::fail_policy::retry)
                 .build();
    api::counter c = h.add_counter();
    h.script(0, {c.add(1), c.read()});
    h.runtime().start();
    // Step to the capsule's commit CAS (the only shared_cas with CP == 1).
    while (!(h.board().of(0).cp.peek() == 1 &&
             h.world().pending_access(0) == nvm::access::shared_cas)) {
      h.world().step(0);
    }
    if (crash_after_commit) h.world().step(0);
    h.world().crash();
    h.runtime().on_crash();  // logs the crash, resubmits, recovery decides
    h.drive_all();

    // The re-attempted (or already linearized) add closes exactly once —
    // either a normal response (the re-attempt) or a linearized recovery
    // verdict (the commit landed) — and the read observes 1.
    int add_closures = 0;
    hist::value_t read_value = hist::k_bottom;
    int fail_verdicts = 0;
    for (const auto& e : h.events()) {
      bool closes = e.kind == hist::event_kind::response ||
                    (e.kind == hist::event_kind::recover_result &&
                     e.verdict == hist::recovery_verdict::linearized);
      if (closes && e.desc.code == hist::opcode::ctr_add) ++add_closures;
      if (closes && e.desc.code == hist::opcode::ctr_read) read_value = e.value;
      if (e.kind == hist::event_kind::recover_result &&
          e.verdict == hist::recovery_verdict::fail) {
        ++fail_verdicts;
      }
    }
    EXPECT_EQ(read_value, 1)
        << "the interrupted add must take effect exactly once";
    EXPECT_EQ(add_closures, 1) << "the add must linearize exactly once";
    if (crash_after_commit) {
      EXPECT_EQ(fail_verdicts, 0)
          << "commit landed: recovery must not re-run the add";
    } else {
      EXPECT_EQ(fail_verdicts, 1)
          << "recovery must first report the interrupted attempt as fail";
    }
    auto check = h.check();
    EXPECT_TRUE(check.ok) << check.message << h.log_text();
  }
}

// The same invariant under a full crash-at-every-step sweep: whatever the
// crash placement, retry closes every op and the final read returns 1.
TEST(fail_policy_retry, crash_sweep_read_always_sees_one) {
  auto cfg = one_object<api::counter>(
      "counter", 1,
      [](api::counter c) { return scripts{{0, {c.add(1), c.read()}}}; },
      core::runtime::fail_policy::retry);
  run_outcome base = run_scenario(cfg, 1);
  ASSERT_TRUE(base.check.ok) << base.check.message;
  for (std::uint64_t k = 0; k < base.report.steps; ++k) {
    run_outcome out = run_scenario(cfg, 1, {k});
    ASSERT_TRUE(out.check.ok) << "crash at " << k << "\n" << out.check.message;
    // The read (client_seq 2) must close with value 1 in every run.
    EXPECT_NE(out.log_text.find("ctr_read()"), std::string::npos);
    EXPECT_EQ(out.log_text.find("ctr_read() -> 0"), std::string::npos)
        << "crash at " << k << ": read observed a lost add\n"
        << out.log_text;
  }
}

}  // namespace
