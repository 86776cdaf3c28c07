// Algorithm 1 (detectable read/write register): sequential behaviour,
// crash-at-every-step sweeps, schedule fuzzing, exhaustive small-model
// exploration, and the ABA scenario the toggle bits exist to defeat.
#include <gtest/gtest.h>

#include "core/detectable_register.hpp"
#include "sim/explorer.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using namespace detect::test;

scenario register_scenario(int nprocs,
                           std::function<scripts(api::reg)> make_scripts,
                           core::runtime::fail_policy policy =
                               core::runtime::fail_policy::skip) {
  return one_object<api::reg>("reg", nprocs, std::move(make_scripts), policy);
}

TEST(reg_word, pack_unpack_roundtrip) {
  const hist::value_t values[] = {0,
                                  1,
                                  -1,
                                  123456789,
                                  -123456789,
                                  core::reg_word::value_max,
                                  core::reg_word::value_min};
  for (hist::value_t v : values) {
    for (int pid : {0, 1, 13}) {
      for (int t : {0, 1}) {
        std::uint64_t w = core::reg_word::pack(v, pid, t);
        EXPECT_EQ(core::reg_word::value_of(w), v);
        EXPECT_EQ(core::reg_word::pid_of(w), pid);
        EXPECT_EQ(core::reg_word::toggle_of(w), t);
      }
    }
  }
}

TEST(reg_word, out_of_range_value_throws) {
  EXPECT_THROW(core::reg_word::pack(core::reg_word::value_max + 1, 0, 0),
               std::out_of_range);
}

TEST(detectable_register, sequential_reads_and_writes) {
  auto cfg = register_scenario(1, [](api::reg r) {
    return scripts{
        {0, {r.write(5), r.read(), r.write(7), r.read(), r.read()}}};
  });
  auto out = run_scenario(cfg, 1);
  EXPECT_TRUE(out.check.ok) << out.check.message;
}

TEST(detectable_register, two_writers_one_reader_many_seeds) {
  auto cfg = register_scenario(3, [](api::reg r) {
    return scripts{
        {0, {r.write(1), r.write(2), r.write(3)}},
        {1, {r.write(10), r.write(20)}},
        {2, {r.read(), r.read(), r.read()}},
    };
  });
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto out = run_scenario(cfg, seed);
    ASSERT_TRUE(out.check.ok) << "seed " << seed << "\n"
                              << out.check.message << out.log_text;
  }
}

TEST(detectable_register, crash_sweep_single_writer) {
  auto cfg = register_scenario(2, [](api::reg r) {
    return scripts{
        {0, {r.write(1), r.write(2)}},
        {1, {r.read(), r.read()}},
    };
  });
  crash_sweep(cfg, 42);
}

TEST(detectable_register, crash_sweep_two_writers) {
  auto cfg = register_scenario(2, [](api::reg r) {
    return scripts{
        {0, {r.write(1), r.write(2)}},
        {1, {r.write(5), r.read()}},
    };
  });
  crash_sweep(cfg, 7);
}

TEST(detectable_register, crash_sweep_with_retry_policy) {
  auto cfg = register_scenario(2,
                               [](api::reg r) {
                                 return scripts{
                                     {0, {r.write(1), r.write(2)}},
                                     {1, {r.write(5), r.read()}},
                                 };
                               },
                               core::runtime::fail_policy::retry);
  crash_sweep(cfg, 11);
}

TEST(detectable_register, double_crash_fuzz) {
  auto cfg = register_scenario(3, [](api::reg r) {
    return scripts{
        {0, {r.write(1), r.write(2)}},
        {1, {r.write(3), r.read()}},
        {2, {r.read(), r.write(4)}},
    };
  });
  crash_fuzz(cfg, 120, 2);
}

TEST(detectable_register, triple_crash_fuzz_retry) {
  auto cfg = register_scenario(2,
                               [](api::reg r) {
                                 return scripts{
                                     {0, {r.write(1), r.write(2), r.write(3)}},
                                     {1, {r.read(), r.read(), r.read()}},
                                 };
                               },
                               core::runtime::fail_policy::retry);
  crash_fuzz(cfg, 80, 3);
}

// The ABA scenario from §3: p reads ⟨v_q, q, t⟩, q writes other values and
// then the same value again. The same triplet can reappear in R only after q
// completes a write with the *other* toggle index, which sets q's toggle bits
// — p's recovery must therefore detect the intervening writes.
TEST(detectable_register, aba_same_value_rewritten) {
  auto cfg = register_scenario(2, [](api::reg r) {
    return scripts{
        {0, {r.write(7)}},
        {1, {r.write(9), r.write(9)}},
    };
  });
  crash_sweep(cfg, 3);
  crash_sweep(cfg, 13);
  crash_fuzz(cfg, 100, 2);
}

TEST(detectable_register, same_values_from_all_writers) {
  // All processes write the same value — maximally ABA-prone.
  auto cfg = register_scenario(3, [](api::reg r) {
    return scripts{
        {0, {r.write(1), r.write(1)}},
        {1, {r.write(1), r.write(1)}},
        {2, {r.read(), r.read()}},
    };
  });
  crash_fuzz(cfg, 120, 2);
}

// The precise schedule §3's correctness proof revolves around, constructed
// deterministically: p persists R's triplet ⟨0,0,0⟩ and halts with CP = 1
// just before its write to R (line 7); q then completes THREE writes of the
// same value 0 — toggle 0, toggle 1, toggle 0 — restoring R to the exact
// triplet p persisted. A naive recovery would conclude "nothing happened"
// and return fail; Algorithm 1's line-20 toggle-bit check sees that
// A[p][q][1] (cleared by p in line 2) was re-set by q's toggle-1 write,
// infers intervening linearized writes, and declares p's write linearized
// (as overwritten). The checker validates that verdict.
TEST(detectable_register, line20_toggle_disambiguates_recreated_triplet) {
  // p = 1 (writer under test), q = 0 (value 0's "owner")
  auto h = api::harness::builder().procs(2).build();
  api::reg r = h.add_reg();
  auto& reg = r.as<core::detectable_register>();

  // p starts write(7); halt when the next access is the line-7 store to R
  // (the only shared store issued with CP == 1).
  h.submit_op(1, r.write(7), 1);
  while (!(h.board().of(1).cp.peek() == 1 &&
           h.world().pending_access(1) == nvm::access::shared_store)) {
    h.world().step(1);
  }

  // q recreates R's initial triplet via two completed writes of value 0:
  // T_0 starts at 1 (R's initial word stands for q's toggle-0 write), so
  // toggles cycle 1 → 0, and the toggle-1 write sets A[1][0][1].
  for (std::uint64_t s = 1; s <= 2; ++s) {
    h.submit_op(0, r.write(0), s);
    h.drive(0);
    h.board().of(0).done_seq.store(s);
  }
  ASSERT_EQ(reg.invoke(0, r.read()), 0) << "R holds value 0 again";

  // Crash; p recovers. Line 20's first conjunct holds (same triplet), the
  // second fails (the toggle bit is set) ⇒ linearized-as-overwritten.
  h.crash_now();
  h.submit_recovery(1);
  h.drive(1);

  EXPECT_EQ(last_verdict(h.events(), 1), hist::recovery_verdict::linearized)
      << "the toggle bit must witness the intervening writes";
  auto check = h.check();
  EXPECT_TRUE(check.ok) << check.message;
}

// Control experiment for the test above: with only ONE completed write by q
// (toggle 1), R holds ⟨0,0,1⟩ ≠ the persisted triplet, so recovery takes the
// "R changed" branch — still linearized-as-overwritten.
TEST(detectable_register, recovery_sees_changed_triplet_after_one_write) {
  auto h = api::harness::builder().procs(2).build();
  api::reg r = h.add_reg();
  h.submit_op(1, r.write(7), 1);
  while (!(h.board().of(1).cp.peek() == 1 &&
           h.world().pending_access(1) == nvm::access::shared_store)) {
    h.world().step(1);
  }
  h.submit_op(0, r.write(0), 1);
  h.drive(0);
  h.board().of(0).done_seq.store(1);
  h.crash_now();
  h.submit_recovery(1);
  h.drive(1);
  EXPECT_EQ(last_verdict(h.events(), 1), hist::recovery_verdict::linearized);
  auto check = h.check();
  EXPECT_TRUE(check.ok) << check.message;
}

// And the fail side: crash at the same point with NO intervening writes —
// the triplet matches and the toggle bit is still clear, so recovery must
// return fail (the write truly did not happen).
TEST(detectable_register, line20_returns_fail_when_nothing_intervened) {
  auto h = api::harness::builder().procs(2).build();
  api::reg r = h.add_reg();
  h.submit_op(1, r.write(7), 1);
  while (!(h.board().of(1).cp.peek() == 1 &&
           h.world().pending_access(1) == nvm::access::shared_store)) {
    h.world().step(1);
  }
  h.crash_now();
  h.submit_recovery(1);
  h.drive_all();
  EXPECT_EQ(last_verdict(h.events(), 1), hist::recovery_verdict::fail);
  auto check = h.check();
  EXPECT_TRUE(check.ok) << check.message;
}

// The initial-word ABA. R starts as ⟨v_init, 0, 0⟩, a write by p0 with
// toggle 0, so p0's own first write must use toggle 1. Were T_0 to start at
// 0, p0's first write of v_init would store R's initial word again: p0
// passes line 5 on that word, p1's write completes, p0's line-7 store
// overwrites it and p0 crashes before line 8. Recovery at CP = 1 would then
// find R equal to the word p0 read with its toggle bit still clear, and
// report FAIL for a write a later read observes (single reg_read -> 0 vs
// sharded reg_read -> 5 in tests/corpus/replay/reg_initial_word_aba_sc.scn).
TEST(detectable_register, first_write_of_initial_value_is_no_aba) {
  auto h = api::harness::builder().procs(2).build();
  api::reg r = h.add_reg();
  h.submit_op(0, r.write(0), 1);
  while (!(h.board().of(0).cp.peek() == 1 &&
           h.world().pending_access(0) == nvm::access::shared_store)) {
    h.world().step(0);
  }
  h.submit_op(1, r.write(5), 1);
  h.drive(1);
  h.board().of(1).done_seq.store(1);
  h.world().step(0);  // line 7: p0's store overwrites p1's 5
  h.crash_now();
  h.submit_recovery(0);
  h.drive(0);
  EXPECT_EQ(last_verdict(h.events(), 0), hist::recovery_verdict::linearized)
      << "p0's write took effect";
  h.submit_op(1, r.read(), 2);
  h.drive(1);
  auto check = h.check();
  EXPECT_TRUE(check.ok) << check.message << h.log_text();
}

TEST(detectable_register, exhaustive_two_procs_one_crash_one_preemption) {
  // CHESS-style exploration: every crash placement combined with every
  // single-preemption schedule of two concurrent writes.
  struct scen final : sim::exploration {
    api::harness h = api::harness::builder().procs(2).build();
    scen() {
      api::reg r = h.add_reg();
      h.script(0, {r.write(1)});
      h.script(1, {r.write(2)});
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
  EXPECT_TRUE(res.complete) << "exploration should finish within budget; runs="
                            << res.runs;
  EXPECT_EQ(res.pruned, 0u);
  EXPECT_GT(res.runs, 100u) << "the bounded tree should still be substantial";
}

TEST(detectable_register, wait_free_step_bound_holds) {
  // Lemma 1's wait-freedom: a crash-free write takes at most a constant
  // number of steps plus the O(N) toggle loop.
  for (int n : {2, 4, 8}) {
    auto h = api::harness::builder().procs(n).build();
    api::reg r = h.add_reg();
    for (int p = 0; p < n; ++p) h.script(p, {r.write(p), r.read()});
    auto rep = h.run();
    EXPECT_FALSE(rep.hit_step_limit);
    // Per process: write ≤ (announce 4–5 + 2 control + body ~8 + N toggle
    // stores), read ≤ ~10. Generous linear bound:
    EXPECT_LE(rep.steps, static_cast<std::uint64_t>(n) * (30 + 2ull * n));
  }
}

TEST(detectable_register, nrl_wrapper_always_completes) {
  auto cfg = one_object<api::reg>("nrl_reg", 2, [](api::reg r) {
    return scripts{{0, {r.write(1), r.write(2)}}, {1, {r.read(), r.read()}}};
  });
  crash_sweep(cfg, 5);
  crash_fuzz(cfg, 60, 2);
}

TEST(detectable_register, shared_cache_with_transform_is_correct) {
  // Run the same battery under the shared-cache model with the automatic
  // persist transformation (§6).
  auto cfg = register_scenario(2, [](api::reg r) {
    return scripts{{0, {r.write(1), r.write(2)}}, {1, {r.write(5), r.read()}}};
  });
  cfg.shared_cache = true;
  crash_sweep(cfg, 21);
}

// Property sweep: many (seed, crash-count) combinations.
class register_property : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(register_property, durable_linearizable_and_detectable) {
  auto [seed, crashes] = GetParam();
  auto cfg = register_scenario(3, [](api::reg r) {
    return scripts{
        {0, {r.write(1), r.write(2)}},
        {1, {r.write(3), r.read()}},
        {2, {r.read(), r.write(4)}},
    };
  });
  crash_fuzz(cfg, 10, crashes, static_cast<std::uint64_t>(seed) * 104729);
}

INSTANTIATE_TEST_SUITE_P(sweep, register_property,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(0, 1, 2, 3)));

// Scale sweep: the same invariants across process counts (the toggle arrays
// and recovery logic are N-dependent, so N is a real dimension here).
class register_scale : public ::testing::TestWithParam<int> {};

TEST_P(register_scale, crash_fuzz_at_n) {
  int n = GetParam();
  auto cfg = register_scenario(n, [n](api::reg r) {
    scripts s;
    for (int p = 0; p < n; ++p) {
      s[p] = {r.write(p + 1), p % 2 == 0 ? r.read() : r.write(p + 100)};
    }
    return s;
  });
  crash_fuzz(cfg, 25, 2, static_cast<std::uint64_t>(n) * 293339);
}

INSTANTIATE_TEST_SUITE_P(scale, register_scale, ::testing::Values(2, 3, 4, 6));

}  // namespace
