// Algorithm 2 (detectable CAS): sequential behaviour, flip-vector recovery
// semantics, crash sweeps, schedule fuzzing, and exhaustive exploration.
#include <gtest/gtest.h>

#include "core/detectable_cas.hpp"
#include "core/nrl.hpp"
#include "sim/explorer.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using namespace detect::test;

scenario cas_scenario(int nprocs, std::function<scripts(api::cas)> make_scripts,
                      core::runtime::fail_policy policy =
                          core::runtime::fail_policy::skip) {
  return one_object<api::cas>("cas", nprocs, std::move(make_scripts), policy);
}

TEST(detectable_cas, rejects_too_many_processes) {
  nvm::pmem_domain dom;
  core::announcement_board board(65, dom);
  EXPECT_THROW(core::detectable_cas(65, board, 0, dom),
               std::invalid_argument);
}

TEST(detectable_cas, sequential_semantics) {
  auto cfg = cas_scenario(1, [](api::cas c) {
    return scripts{{0,
                    {c.compare_and_set(0, 1), c.compare_and_set(0, 2),
                     c.compare_and_set(1, 2), c.read()}}};
  });
  auto out = run_scenario(cfg, 1);
  EXPECT_TRUE(out.check.ok) << out.check.message;
}

TEST(detectable_cas, contended_cas_exactly_one_winner) {
  // Both processes CAS(0→their value); exactly one must win.
  auto cfg = cas_scenario(2, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.read()}},
        {1, {c.compare_and_set(0, 2), c.read()}},
    };
  });
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto out = run_scenario(cfg, seed);
    ASSERT_TRUE(out.check.ok) << "seed " << seed << "\n" << out.check.message;
  }
}

TEST(detectable_cas, crash_sweep_single_proc) {
  auto cfg = cas_scenario(1, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.compare_and_set(1, 2), c.read()}}};
  });
  crash_sweep(cfg, 1);
}

TEST(detectable_cas, crash_sweep_contended) {
  auto cfg = cas_scenario(2, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.compare_and_set(1, 0)}},
        {1, {c.compare_and_set(0, 2), c.read()}},
    };
  });
  crash_sweep(cfg, 9);
}

TEST(detectable_cas, crash_sweep_retry_policy) {
  auto cfg = cas_scenario(
      2,
      [](api::cas c) {
        return scripts{
            {0, {c.compare_and_set(0, 1), c.compare_and_set(1, 2)}},
            {1, {c.compare_and_set(0, 3), c.read()}},
        };
      },
      core::runtime::fail_policy::retry);
  crash_sweep(cfg, 17);
}

TEST(detectable_cas, multi_crash_fuzz) {
  auto cfg = cas_scenario(3, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.compare_and_set(1, 2)}},
        {1, {c.compare_and_set(0, 2), c.compare_and_set(2, 3)}},
        {2, {c.read(), c.compare_and_set(1, 4)}},
    };
  });
  crash_fuzz(cfg, 150, 2);
}

TEST(detectable_cas, abab_value_cycle_fuzz) {
  // Values cycle 0→1→0→1: without the flip vector this is the classic ABA
  // trap for recovery.
  auto cfg = cas_scenario(2, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.compare_and_set(0, 1)}},
        {1, {c.compare_and_set(1, 0), c.compare_and_set(1, 0)}},
    };
  });
  crash_fuzz(cfg, 150, 2);
}

// Deterministic construction of Algorithm 2's two post-checkpoint recovery
// paths (lines 42-46): crash right BEFORE the CAS of line 35 ⇒ vec[p] still
// matches the pre-flip state ⇒ fail; crash right AFTER the successful CAS ⇒
// vec[p] equals the persisted flipped bit ⇒ linearized(true).
TEST(detectable_cas, line43_flip_bit_decides_both_ways) {
  for (bool crash_after_cas : {false, true}) {
    auto h = api::harness::builder().procs(2).build();
    api::cas c = h.add_cas();
    h.submit_op(0, c.compare_and_set(0, 7), 1);
    // Step until the next access is the CAS itself (the only shared_cas in
    // the operation, issued with CP == 1).
    while (!(h.board().of(0).cp.peek() == 1 &&
             h.world().pending_access(0) == nvm::access::shared_cas)) {
      h.world().step(0);
    }
    if (crash_after_cas) h.world().step(0);  // execute line 35
    h.crash_now();
    h.submit_recovery(0);
    h.drive_all();
    hist::value_t value = hist::k_bottom;
    hist::recovery_verdict verdict = last_verdict(h.events(), 0, &value);
    if (crash_after_cas) {
      EXPECT_EQ(verdict, hist::recovery_verdict::linearized);
      EXPECT_EQ(value, hist::k_true);
    } else {
      EXPECT_EQ(verdict, hist::recovery_verdict::fail);
    }
    auto check = h.check();
    EXPECT_TRUE(check.ok) << check.message;
  }
}

// The failed-CAS case: another process wins the race between p's read and
// p's CAS; p's line-35 CAS executes but fails, leaving vec[p] unflipped —
// recovery must report fail ("it did not change the value of any variable
// that operations by other processes may read", Lemma 2).
TEST(detectable_cas, lost_race_recovers_as_fail) {
  auto h = api::harness::builder().procs(2).build();
  api::cas c = h.add_cas();
  h.submit_op(0, c.compare_and_set(0, 7), 1);
  while (!(h.board().of(0).cp.peek() == 1 &&
           h.world().pending_access(0) == nvm::access::shared_cas)) {
    h.world().step(0);
  }
  // p1 sneaks in a full successful CAS(0→9).
  h.submit_op(1, c.compare_and_set(0, 9), 1);
  h.drive(1);
  h.board().of(1).done_seq.store(1);
  h.world().step(0);  // p0's CAS executes and fails
  h.crash_now();
  h.submit_recovery(0);
  h.drive_all();
  EXPECT_EQ(last_verdict(h.events(), 0), hist::recovery_verdict::fail);
  auto check = h.check();
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(detectable_cas, exhaustive_two_procs_one_crash_one_preemption) {
  struct scen final : sim::exploration {
    api::harness h = api::harness::builder().procs(2).build();
    scen() {
      api::cas c = h.add_cas();
      h.script(0, {c.compare_and_set(0, 1)});
      h.script(1, {c.compare_and_set(0, 2)});
      h.runtime().start();
    }
    sim::world& get_world() override { return h.world(); }
    void on_crash() override { h.runtime().on_crash(); }
    void at_end() override {
      auto r = h.check();
      if (!r.ok) throw std::runtime_error(r.message);
    }
  };
  sim::explore_config cfg;
  cfg.max_crashes = 1;
  cfg.max_preemptions = 1;
  cfg.max_runs = 100'000;
  auto res = sim::explore_schedules([] { return std::make_unique<scen>(); }, cfg);
  EXPECT_FALSE(res.failed) << res.failure;
  EXPECT_TRUE(res.complete) << "runs=" << res.runs;
  EXPECT_GT(res.runs, 100u);
}

TEST(detectable_cas, vec_bit_flips_only_on_success) {
  // Drive the object through scripts (no crashes) and count wins.
  auto h = api::harness::builder().procs(2).build();
  api::cas c = h.add_cas();
  h.script(0, {c.compare_and_set(0, 1), c.compare_and_set(0, 9),
               c.compare_and_set(1, 2)});
  h.run();
  // p0: success (flip), fail (no flip), success (flip) → bit back to 0.
  int successes = 0;
  for (const auto& e : h.events()) {
    if (e.kind == hist::event_kind::response &&
        e.desc.code == hist::opcode::cas && e.value == hist::k_true) {
      ++successes;
    }
  }
  EXPECT_EQ(successes, 2);
}

TEST(detectable_cas, read_recovery_returns_persisted_response) {
  auto cfg = cas_scenario(2, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 5)}},
        {1, {c.read(), c.read()}},
    };
  });
  crash_sweep(cfg, 23);
}

TEST(detectable_cas, nrl_wrapper_battery) {
  // The NRL adapter composes with any detectable object; wrap the CAS here
  // via add_object (the registry ships a prewired nrl_reg kind).
  scenario cfg;
  cfg.nprocs = 2;
  cfg.setup = [](api::harness& h) {
    api::cas inner = h.add_cas();
    auto nrl = std::make_unique<core::nrl_adapter>(inner.object(), h.board());
    api::cas c(h.add_object(std::move(nrl), std::make_unique<hist::cas_spec>(0),
                            api::op_family::cas, "nrl_cas"));
    h.script(0, {c.compare_and_set(0, 1), c.compare_and_set(1, 2)});
    h.script(1, {c.compare_and_set(0, 7), c.read()});
  };
  crash_sweep(cfg, 31);
  crash_fuzz(cfg, 60, 2);
}

TEST(detectable_cas, shared_cache_with_transform) {
  auto cfg = cas_scenario(2, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.compare_and_set(1, 0)}},
        {1, {c.compare_and_set(0, 2), c.read()}},
    };
  });
  cfg.shared_cache = true;
  crash_sweep(cfg, 37);
}

TEST(detectable_cas, extra_bits_are_theta_n) {
  nvm::pmem_domain dom;
  core::announcement_board board(64, dom);
  for (int n : {1, 8, 33, 64}) {
    core::detectable_cas cas(n, board, 0, dom);
    EXPECT_EQ(cas.extra_shared_bits(), static_cast<std::size_t>(n));
  }
}

class cas_property : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(cas_property, durable_linearizable_and_detectable) {
  auto [seed, crashes] = GetParam();
  auto cfg = cas_scenario(3, [](api::cas c) {
    return scripts{
        {0, {c.compare_and_set(0, 1), c.compare_and_set(1, 2)}},
        {1, {c.compare_and_set(0, 2), c.compare_and_set(2, 0)}},
        {2, {c.read(), c.compare_and_set(1, 3)}},
    };
  });
  crash_fuzz(cfg, 10, crashes, static_cast<std::uint64_t>(seed) * 15485863);
}

INSTANTIATE_TEST_SUITE_P(sweep, cas_property,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(0, 1, 2, 3)));

// Scale sweep: the flip vector grows with N; exercise several widths.
class cas_scale : public ::testing::TestWithParam<int> {};

TEST_P(cas_scale, crash_fuzz_at_n) {
  int n = GetParam();
  auto cfg = cas_scenario(n, [n](api::cas c) {
    scripts s;
    for (int p = 0; p < n; ++p) {
      s[p] = {c.compare_and_set(p, p + 1), c.compare_and_set(0, p + 10)};
    }
    return s;
  });
  crash_fuzz(cfg, 25, 2, static_cast<std::uint64_t>(n) * 472882);
}

INSTANTIATE_TEST_SUITE_P(scale, cas_scale, ::testing::Values(2, 3, 4, 6));

}  // namespace
