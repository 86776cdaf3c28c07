// The fuzz engine itself: generator determinism (single- and multi-object),
// registry-wide qualification under generated workloads, dump/parse
// round-tripping across format versions, shrinker validity (shrunk scenarios
// still fail; object-level passes shrink multi-object failures), coverage
// bucketing + steered campaigns, and differential detection of a
// deliberately lying implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fuzz/fuzz.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;

// Registry kinds as of static init — later tests register extra (broken)
// kinds, and campaign tests must not pick those up.
const std::vector<std::string> g_builtin_kinds =
    api::object_registry::global().kinds();

api::scripted_scenario single_object(const std::string& kind) {
  api::scripted_scenario s;
  s.objects.push_back({0, kind, {}});
  return s;
}

// ---- generator --------------------------------------------------------------

TEST(scenario_gen, same_seed_same_scenario) {
  for (const char* kind : {"reg", "cas", "queue", "lock"}) {
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
      api::scripted_scenario a = fuzz::generate(seed, kind);
      api::scripted_scenario b = fuzz::generate(seed, kind);
      EXPECT_EQ(api::dump(a), api::dump(b)) << kind << " seed " << seed;
    }
  }
}

TEST(scenario_gen, different_seeds_differ) {
  EXPECT_NE(api::dump(fuzz::generate(1, "reg")),
            api::dump(fuzz::generate(2, "reg")));
  EXPECT_NE(api::dump(fuzz::generate(1, "queue")),
            api::dump(fuzz::generate(3, "queue")));
}

TEST(scenario_gen, iteration_seeds_are_stable_and_spread) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::uint64_t s = fuzz::iteration_seed(7, i);
    EXPECT_EQ(s, fuzz::iteration_seed(7, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u) << "iteration seeds must not collide";
}

TEST(scenario_gen, respects_config_bounds) {
  fuzz::gen_config cfg;
  cfg.min_procs = 2;
  cfg.max_procs = 4;
  cfg.min_ops = 3;
  cfg.max_ops = 5;
  cfg.max_crashes = 2;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "reg", cfg);
    EXPECT_GE(s.nprocs, 2);
    EXPECT_LE(s.nprocs, 4);
    EXPECT_EQ(static_cast<int>(s.scripts.size()), s.nprocs);
    for (const auto& [pid, ops] : s.scripts) {
      EXPECT_GE(ops.size(), 3u);
      EXPECT_LE(ops.size(), 5u);
    }
    EXPECT_LE(s.crash_steps.size(), 2u);
    EXPECT_TRUE(std::is_sorted(s.crash_steps.begin(), s.crash_steps.end()));
  }
}

TEST(scenario_gen, ops_come_from_the_target_objects_family) {
  fuzz::gen_config cfg;
  cfg.object_kind_pool = g_builtin_kinds;  // multi-object on
  for (const std::string& kind : g_builtin_kinds) {
    api::scripted_scenario s = fuzz::generate(99, kind, cfg);
    EXPECT_EQ(s.objects.front().kind, kind);
    for (const auto& [pid, ops] : s.scripts) {
      for (const hist::op_desc& d : ops) {
        const api::scenario_object* target = s.find_object(d.object);
        ASSERT_NE(target, nullptr)
            << kind << ": op targets undeclared object " << d.object;
        const api::kind_info& info =
            api::object_registry::global().at(target->kind);
        const std::vector<hist::opcode>& alphabet =
            api::family_opcodes(info.family);
        EXPECT_NE(std::find(alphabet.begin(), alphabet.end(), d.code),
                  alphabet.end())
            << kind << ": opcode " << hist::opcode_name(d.code)
            << " outside the family of its target " << target->kind;
      }
    }
  }
}

TEST(scenario_gen, non_detectable_kinds_get_no_crashes) {
  for (const char* kind : {"plain_reg", "stripped_cas", "stripped_queue"}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      api::scripted_scenario s = fuzz::generate(seed, kind);
      EXPECT_TRUE(s.crash_steps.empty()) << kind;
      EXPECT_EQ(s.policy, core::runtime::fail_policy::skip) << kind;
    }
  }
}

TEST(scenario_gen, shard_knob_is_bounded_and_deterministic) {
  fuzz::gen_config cfg;
  cfg.min_shards = 2;
  cfg.max_shards = 5;
  cfg.allow_sharded_backend = false;  // pin the backend for this test
  bool saw_above_min = false;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "reg", cfg);
    EXPECT_GE(s.shards, 2);
    EXPECT_LE(s.shards, 5);
    EXPECT_EQ(s.backend, api::exec_backend::single);
    EXPECT_EQ(s.shards, fuzz::generate(seed, "reg", cfg).shards);
    saw_above_min = saw_above_min || s.shards > 2;
  }
  EXPECT_TRUE(saw_above_min) << "the knob never left its minimum";

  // max_shards <= 1 disables the knob entirely.
  fuzz::gen_config off;
  off.max_shards = 1;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(fuzz::generate(seed, "reg", off).shards, 1);
  }
}

TEST(scenario_gen, sharded_backend_draw_requires_shards) {
  fuzz::gen_config cfg;
  cfg.min_shards = 2;
  cfg.max_shards = 4;
  bool saw_sharded = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "counter", cfg);
    if (s.backend == api::exec_backend::sharded) {
      saw_sharded = true;
      EXPECT_GE(s.shards, 2);
    }
  }
  EXPECT_TRUE(saw_sharded) << "no seed drew the sharded backend";
}

// The multi-object half of the tentpole: K-object scenarios declare distinct
// contiguous ids, draw extra kinds from the pool, and stay deterministic.
TEST(scenario_gen, multi_object_scenarios_are_bounded_and_deterministic) {
  fuzz::gen_config cfg;
  cfg.min_objects = 2;
  cfg.max_objects = 4;
  cfg.object_kind_pool = {"reg", "cas", "queue", "counter"};
  bool saw_multi_kind = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "reg", cfg);
    ASSERT_GE(s.objects.size(), 2u);
    ASSERT_LE(s.objects.size(), 4u);
    std::set<std::uint32_t> ids;
    for (const api::scenario_object& o : s.objects) {
      EXPECT_TRUE(ids.insert(o.id).second) << "duplicate id " << o.id;
    }
    EXPECT_EQ(s.objects.front().kind, "reg");
    saw_multi_kind =
        saw_multi_kind || s.objects.back().kind != s.objects.front().kind;
    EXPECT_EQ(api::dump(s), api::dump(fuzz::generate(seed, "reg", cfg)));
  }
  EXPECT_TRUE(saw_multi_kind) << "extras never drew a different kind";
}

TEST(scenario_gen, one_non_detectable_object_disarms_the_crash_plan) {
  fuzz::gen_config cfg;
  cfg.min_objects = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"plain_reg"};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "reg", cfg);
    EXPECT_TRUE(s.crash_steps.empty()) << api::dump(s);
    EXPECT_EQ(s.policy, core::runtime::fail_policy::skip);
  }
}

TEST(scenario_gen, lock_contract_holds_per_process_and_object) {
  fuzz::gen_config cfg;
  cfg.min_objects = 2;
  cfg.max_objects = 3;
  cfg.min_ops = 6;
  cfg.max_ops = 10;
  cfg.object_kind_pool = {"lock", "reg"};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "lock", cfg);
    if (!s.crash_steps.empty()) {
      EXPECT_EQ(s.policy, core::runtime::fail_policy::retry) << api::dump(s);
    }
    for (const auto& [pid, ops] : s.scripts) {
      std::map<std::uint32_t, bool> may_hold;
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::lock_try) {
          EXPECT_FALSE(may_hold[d.object])
              << "try_lock while possibly holding\n"
              << api::dump(s);
          may_hold[d.object] = true;
        } else if (d.code == hist::opcode::lock_release) {
          may_hold[d.object] = false;
        }
      }
    }
  }
}

// ---- mutation engine --------------------------------------------------------

TEST(scenario_gen, mutate_is_deterministic_and_contract_preserving) {
  fuzz::gen_config cfg;
  cfg.object_kind_pool = {"reg", "cas", "lock", "queue"};
  cfg.max_objects = 4;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    api::scripted_scenario base = fuzz::generate(seed, "cas", cfg);
    std::uint64_t rng_a = seed * 977 + 1;
    std::uint64_t rng_b = rng_a;
    api::scripted_scenario a = fuzz::mutate(base, rng_a, cfg);
    api::scripted_scenario b = fuzz::mutate(base, rng_b, cfg);
    ASSERT_EQ(api::dump(a), api::dump(b)) << "mutation must be deterministic";
    // Mutants stay replayable: every op targets a declared object and the
    // generator's usage contracts still hold.
    ASSERT_FALSE(a.objects.empty());
    for (const auto& [pid, ops] : a.scripts) {
      std::map<std::uint32_t, bool> may_hold;
      for (const hist::op_desc& d : ops) {
        ASSERT_NE(a.find_object(d.object), nullptr) << api::dump(a);
        if (d.code == hist::opcode::cas) {
          EXPECT_NE(d.a, d.b);
        }
        if (d.code == hist::opcode::lock_try) {
          EXPECT_FALSE(may_hold[d.object]) << api::dump(a);
          may_hold[d.object] = true;
        } else if (d.code == hist::opcode::lock_release) {
          may_hold[d.object] = false;
        }
      }
    }
    std::string failure = fuzz::check_scenario(a, /*diff=*/false);
    EXPECT_TRUE(failure.empty()) << failure << "\n" << api::dump(a);
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- registry-wide qualification under generated workloads ------------------

class generated_qualification : public ::testing::TestWithParam<std::string> {};

TEST_P(generated_qualification, generated_scenarios_pass_the_oracle) {
  const std::string kind = GetParam();
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    api::scripted_scenario s = fuzz::generate(seed, kind);
    std::string failure = fuzz::check_scenario(s, /*diff=*/false);
    EXPECT_TRUE(failure.empty())
        << kind << " seed " << seed << ":\n"
        << failure << "\n"
        << api::dump(s);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(all_kinds, generated_qualification,
                         ::testing::ValuesIn(g_builtin_kinds),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Multi-object flavor of the qualification: mixed-kind scenarios (which
// exercise cross-shard routing and the merged-log path whenever the shard
// knob or backend draw fires) pass the full oracle.
TEST(generated_qualification_multi, mixed_kind_scenarios_pass_the_oracle) {
  fuzz::gen_config cfg;
  cfg.min_objects = 2;
  cfg.max_objects = 4;
  cfg.object_kind_pool = g_builtin_kinds;
  cfg.max_procs = 2;
  cfg.max_ops = 5;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string& kind = g_builtin_kinds[seed % g_builtin_kinds.size()];
    api::scripted_scenario s = fuzz::generate(seed, kind, cfg);
    std::string failure = fuzz::check_scenario(s, /*diff=*/false);
    ASSERT_TRUE(failure.empty())
        << kind << " seed " << seed << ":\n"
        << failure << "\n"
        << api::dump(s);
  }
}

// ---- differ -----------------------------------------------------------------

// For >= 1000 generated seeds, single and sharded replays of the same
// scenario produce identical checker verdicts (and, single-object, identical
// response streams), verified by check_scenario's sharded stage. Kinds
// rotate over every opcode family with a detectable core implementation.
TEST(differ, sharded_equivalence_holds_for_1000_seeds) {
  const std::vector<std::string> kinds = {"reg",   "cas",   "counter",
                                          "swap",  "tas",   "queue",
                                          "stack", "max_reg", "lock"};
  fuzz::gen_config cfg;
  cfg.max_procs = 2;
  cfg.max_ops = 5;
  cfg.max_crashes = 2;
  cfg.min_shards = 2;  // every scenario carries a sharded diff
  cfg.max_shards = 4;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t seed =
        fuzz::iteration_seed(0x54a2d, static_cast<std::uint64_t>(i));
    const std::string& kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
    api::scripted_scenario s = fuzz::generate(seed, kind, cfg);
    std::string failure = fuzz::check_scenario(s, /*diff=*/false);
    ASSERT_TRUE(failure.empty()) << "seed " << seed << ":\n"
                                 << failure << "\n"
                                 << api::dump(s);
  }
}

// Genuinely cross-shard histories: multi-object scenarios whose objects
// route to different shards must still pass the equivalence oracle (verdict
// equality — the merged-log and per-object decomposition paths).
TEST(differ, sharded_equivalence_holds_on_multi_object_scenarios) {
  fuzz::gen_config cfg;
  cfg.min_objects = 2;
  cfg.max_objects = 4;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.max_procs = 2;
  cfg.max_ops = 5;
  cfg.min_shards = 2;
  cfg.max_shards = 4;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t seed =
        fuzz::iteration_seed(0xbeefcafe, static_cast<std::uint64_t>(i));
    api::scripted_scenario s = fuzz::generate(
        seed, cfg.object_kind_pool[static_cast<std::size_t>(i) % 5], cfg);
    std::string failure = fuzz::check_scenario(s, /*diff=*/false);
    ASSERT_TRUE(failure.empty()) << "seed " << seed << ":\n"
                                 << failure << "\n"
                                 << api::dump(s);
  }
}

// Fuzzer-found regression (campaign seed 55, iteration 55): a crash inside
// the announcement window leaves the invoke unlogged, and the nrl adapter's
// re-invoking recovery executes the op in an EARLY recovery attempt that is
// itself crashed before reporting — only a later attempt logs the verdict.
// build_records must anchor the synthesized interval at the first
// recover_begin of that op, not the last, or it fabricates a real-time edge
// and falsely rejects the history.
TEST(differ, recovered_op_interval_anchors_at_first_recovery_attempt) {
  api::scripted_scenario s = api::parse_scenario(
      "kind nrl_reg\n"
      "params 0 64\n"
      "procs 3\n"
      "policy skip\n"
      "sched_seed 14913590177380136610\n"
      "crash_steps 13 87 129\n"
      "script 0 reg_write:0:0 reg_read:0:0\n"
      "script 1 reg_write:4:0\n"
      "script 2 reg_read:0:0 reg_write:0:0 reg_read:0:0\n");
  std::string failure = fuzz::check_scenario(s);
  EXPECT_TRUE(failure.empty()) << failure;
}

// The shrinker legally empties per-process scripts; an empty script still
// submits a client task on the single backend, so the sharded replay must
// schedule one too (on shard 0) or the worlds' task sets — and with them
// seeded schedules and shard-local crash alignment — diverge.
TEST(differ, sharded_equivalence_survives_empty_scripts) {
  api::scripted_scenario s = single_object("reg");
  s.nprocs = 3;
  s.sched_seed = 1234;
  s.crash_steps = {7, 19};
  s.policy = core::runtime::fail_policy::retry;
  s.shards = 3;
  s.scripts[0] = {{0, hist::opcode::reg_write, 5, 0, 0},
                  {0, hist::opcode::reg_read, 0, 0, 0}};
  s.scripts[1] = {};  // emptied by a shrink step
  s.scripts[2] = {{0, hist::opcode::reg_read, 0, 0, 0}};
  std::string failure = fuzz::check_scenario(s, /*diff=*/false);
  EXPECT_TRUE(failure.empty()) << failure;
}

TEST(differ, core_kinds_agree_with_their_variants) {
  for (const char* kind : {"reg", "cas", "counter", "queue"}) {
    api::scripted_scenario s = fuzz::generate(5, kind);
    for (const std::string& variant : fuzz::variants_of(kind)) {
      fuzz::diff_report d = fuzz::diff_against(s, variant);
      EXPECT_TRUE(d.ok) << kind << " vs " << variant << ":\n" << d.message;
    }
  }
}

// Per-object substitution: in a two-object scenario, each object can be
// swapped for a variant of its own kind independently.
TEST(differ, substitutes_variants_per_object) {
  api::scripted_scenario s;
  s.objects.push_back({0, "reg", {}});
  s.objects.push_back({1, "cas", {}});
  s.nprocs = 1;
  s.scripts[0] = {{0, hist::opcode::reg_write, 3, 0, 0},
                  {1, hist::opcode::cas, 0, 1, 0},
                  {0, hist::opcode::reg_read, 0, 0, 0},
                  {1, hist::opcode::cas_read, 0, 0, 0}};
  EXPECT_TRUE(fuzz::diff_against(s, 0u, "attiya_reg").ok);
  EXPECT_TRUE(fuzz::diff_against(s, 1u, "bendavid_cas").ok);
  EXPECT_THROW(fuzz::diff_against(s, 0u, "bendavid_cas"),
               std::invalid_argument);
  EXPECT_THROW(fuzz::diff_against(s, 7u, "attiya_reg"), std::invalid_argument);
}

TEST(differ, family_mismatch_throws) {
  api::scripted_scenario s = fuzz::generate(5, "reg");
  EXPECT_THROW(fuzz::diff_against(s, "queue"), std::invalid_argument);
}

TEST(differ, kinds_without_variants_have_none) {
  EXPECT_TRUE(fuzz::variants_of("max_reg").empty());
  EXPECT_TRUE(fuzz::variants_of("plain_reg").empty());
}

using test::register_lying_counter_once;

api::scripted_scenario counter_scenario(
    std::vector<std::vector<hist::opcode>> per_proc_ops) {
  api::scripted_scenario s = single_object("counter");
  s.nprocs = static_cast<int>(per_proc_ops.size());
  int pid = 0;
  for (const auto& codes : per_proc_ops) {
    std::vector<hist::op_desc> ops;
    for (hist::opcode c : codes) {
      hist::op_desc d;
      d.code = c;
      if (c == hist::opcode::ctr_add) d.a = 1;
      ops.push_back(d);
    }
    s.scripts[pid++] = std::move(ops);
  }
  return s;
}

TEST(differ, catches_a_lying_implementation) {
  register_lying_counter_once();
  using hist::opcode;
  api::scripted_scenario s =
      counter_scenario({{opcode::ctr_add, opcode::ctr_read}});
  fuzz::diff_report d = fuzz::diff_against(s, "test_lying_counter");
  EXPECT_FALSE(d.ok);
  EXPECT_NE(d.message.find("test_lying_counter"), std::string::npos)
      << d.message;
}

// The lying object is caught even when it is NOT the primary: per-object
// variant substitution reaches every declared object.
TEST(differ, catches_a_lying_secondary_object) {
  register_lying_counter_once();
  api::scripted_scenario s;
  s.objects.push_back({0, "reg", {}});
  s.objects.push_back({1, "counter", {}});
  s.nprocs = 1;
  s.scripts[0] = {{0, hist::opcode::reg_write, 2, 0, 0},
                  {1, hist::opcode::ctr_add, 1, 0, 0},
                  {1, hist::opcode::ctr_read, 0, 0, 0}};
  fuzz::diff_report d = fuzz::diff_against(s, 1u, "test_lying_counter");
  EXPECT_FALSE(d.ok);
  EXPECT_NE(d.message.find("test_lying_counter"), std::string::npos)
      << d.message;
}

// ---- coverage ---------------------------------------------------------------

TEST(coverage, bucket_signature_reflects_scenario_and_outcome) {
  api::scripted_scenario s;
  s.objects.push_back({0, "reg", {}});
  s.objects.push_back({1, "cas", {}});
  s.nprocs = 2;
  s.shards = 2;
  s.scripts[0] = {{0, hist::opcode::reg_write, 1, 0, 0},
                  {1, hist::opcode::cas, 0, 1, 0}};
  s.scripts[1] = {{0, hist::opcode::reg_read, 0, 0, 0}};
  api::scripted_outcome out = api::replay(s);
  fuzz::bucket_signature b = fuzz::bucket_of(s, out);
  EXPECT_EQ(b.kinds, "cas+reg");
  EXPECT_EQ(b.backend, "single");
  EXPECT_EQ(b.shards, 2);
  EXPECT_EQ(b.crash_phase, 0);
  EXPECT_TRUE(b.decomposed) << "two objects -> decomposition taken";
  EXPECT_NE(b.key().find("kinds=cas+reg"), std::string::npos);
  EXPECT_NE(b.key().find("decomp=1"), std::string::npos);
  // The scenario key is a strict prefix of the full key.
  EXPECT_EQ(b.key().rfind(b.scenario_key(), 0), 0u);

  // Crash-phase and recovery bits come from the outcome.
  api::scripted_scenario crashy = single_object("reg");
  crashy.nprocs = 2;
  crashy.crash_steps = {5};
  crashy.scripts[0] = {{0, hist::opcode::reg_write, 1, 0, 0},
                       {0, hist::opcode::reg_write, 2, 0, 0}};
  crashy.scripts[1] = {{0, hist::opcode::reg_read, 0, 0, 0}};
  api::scripted_outcome crashed = api::replay(crashy);
  fuzz::bucket_signature cb = fuzz::bucket_of(crashy, crashed);
  EXPECT_EQ(cb.crash_phase, 1);
  EXPECT_FALSE(cb.decomposed);
}

// The bytes of both coverage keys over 1,000 generated scenarios, each
// bucketed from its own replay: any change to a coordinate's name, value,
// order or separator moves the hash. Steering and every coverage.json table
// key on these strings.
std::uint64_t hash_coverage_keys(const fuzz::gen_config& cfg) {
  std::uint64_t h = test::k_fnv_basis;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const std::string& kind = g_builtin_kinds[seed % g_builtin_kinds.size()];
    const api::scripted_scenario s = fuzz::generate(seed, kind, cfg);
    const fuzz::bucket_signature b = fuzz::bucket_of(s, api::replay(s));
    h = test::fnv(h, b.scenario_key());
    h = test::fnv(h, b.key());
  }
  return h;
}

TEST(coverage_pin, keys_under_default_pools) {
  fuzz::gen_config cfg;
  cfg.object_kind_pool = g_builtin_kinds;
  EXPECT_EQ(hash_coverage_keys(cfg), 11467961905729994386ULL);
}

TEST(coverage_pin, keys_under_mixed_model_pools) {
  fuzz::gen_config cfg;
  cfg.object_kind_pool = g_builtin_kinds;
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  cfg.visibility_pool = {"sc", "tso", "pso"};
  EXPECT_EQ(hash_coverage_keys(cfg), 14743051081797087439ULL);
}

TEST(coverage, map_counts_distinct_buckets_and_timeline) {
  fuzz::coverage_map cov;
  fuzz::bucket_signature a;
  a.kinds = "reg";
  fuzz::bucket_signature b;
  b.kinds = "cas";
  EXPECT_TRUE(cov.record(a));
  EXPECT_FALSE(cov.record(a)) << "same bucket is not novel twice";
  EXPECT_TRUE(cov.record(b));
  EXPECT_EQ(cov.distinct(), 2u);
  EXPECT_EQ(cov.executed(), 3u);
  ASSERT_EQ(cov.timeline().size(), 2u);
  EXPECT_EQ(cov.timeline()[0], (std::pair<std::uint64_t, std::size_t>{1, 1}));
  EXPECT_EQ(cov.timeline()[1], (std::pair<std::uint64_t, std::size_t>{3, 2}));
  EXPECT_TRUE(cov.seen_scenario(a.scenario_key()));
}

// The pinned 1000-seed multi-object battery: (a) K-object generation is
// deterministic, (b) campaign coverage is monotonically non-decreasing,
// (c) the generated stream reaches every registered kind and both the
// single and sharded backends.
TEST(coverage, pinned_multi_object_campaign_reaches_kinds_and_backends) {
  fuzz::gen_config cfg;
  cfg.max_objects = 4;
  cfg.object_kind_pool = g_builtin_kinds;
  cfg.max_procs = 2;
  cfg.max_ops = 5;

  std::set<std::string> kinds_reached;
  std::set<std::string> backends_reached;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t seed = fuzz::iteration_seed(0x5eed, i);
    const std::string& kind = g_builtin_kinds[i % g_builtin_kinds.size()];
    api::scripted_scenario s = fuzz::generate(seed, kind, cfg);
    // (a) determinism
    ASSERT_EQ(api::dump(s), api::dump(fuzz::generate(seed, kind, cfg)));
    for (const api::scenario_object& o : s.objects) {
      kinds_reached.insert(o.kind);
    }
    backends_reached.insert(api::backend_name(s.backend));
  }
  // (c) every registered kind appears in some scenario, on both backends.
  for (const std::string& kind : g_builtin_kinds) {
    EXPECT_TRUE(kinds_reached.count(kind) != 0) << "kind never generated: "
                                                << kind;
  }
  EXPECT_TRUE(backends_reached.count("single") != 0);
  EXPECT_TRUE(backends_reached.count("sharded") != 0);
}

TEST(coverage, campaign_coverage_is_monotone_and_deterministic) {
  fuzz::fuzz_options opt;
  opt.base_seed = 31;
  opt.iterations = 300;
  opt.kinds = g_builtin_kinds;
  opt.diff = false;
  opt.gen.max_procs = 2;
  opt.gen.max_ops = 4;

  fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
  ASSERT_FALSE(stats.failure.has_value());
  EXPECT_EQ(stats.coverage.executed, opt.iterations);
  EXPECT_GT(stats.coverage.distinct_buckets, 10u);
  // (b) the (executed, distinct) timeline is strictly increasing in both
  // coordinates — coverage never decreases over a campaign.
  const auto& tl = stats.coverage.timeline;
  ASSERT_FALSE(tl.empty());
  for (std::size_t i = 1; i < tl.size(); ++i) {
    EXPECT_GT(tl[i].first, tl[i - 1].first);
    EXPECT_EQ(tl[i].second, tl[i - 1].second + 1);
  }
  EXPECT_EQ(tl.back().second, stats.coverage.distinct_buckets);
  EXPECT_EQ(stats.coverage.corpus.size(), stats.coverage.distinct_buckets);

  fuzz::fuzz_stats again = fuzz::run_fuzz(opt);
  EXPECT_EQ(again.coverage.distinct_buckets, stats.coverage.distinct_buckets);
  EXPECT_EQ(again.replays, stats.replays);
}

// The ISSUE-4 acceptance bar: on the same fixed-seed 5000-iteration
// campaign, coverage-steered generation reaches >= 1.5x the distinct
// buckets of pure-random generation.
TEST(coverage, steering_beats_random_by_1_5x_on_5k_iterations) {
  auto campaign = [](bool steer) {
    fuzz::fuzz_options opt;
    opt.base_seed = 0xC0FFEE;
    opt.iterations = 5000;
    // A fixed six-kind pool: wide enough that directed mutation has
    // composite-rare buckets to chase, narrow enough that blind sampling
    // demonstrably saturates within the budget.
    opt.kinds = {"reg", "cas", "counter", "queue", "stack", "lock"};
    opt.diff = false;    // the A/B compares generation, not the variant pass
    opt.shrink = false;
    opt.steer = steer;
    opt.gen.max_procs = 2;
    opt.gen.max_ops = 4;
    opt.gen.max_crashes = 2;
    opt.gen.max_objects = 4;
    fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
    EXPECT_FALSE(stats.failure.has_value())
        << stats.failure->message << "\n"
        << api::dump(stats.failure->scenario);
    return stats.coverage.distinct_buckets;
  };
  const std::size_t random_buckets = campaign(false);
  const std::size_t steered_buckets = campaign(true);
  EXPECT_GE(steered_buckets * 2, random_buckets * 3)
      << "steered=" << steered_buckets << " random=" << random_buckets;
  EXPECT_GT(random_buckets, 0u);
}

TEST(coverage, stats_serialize_to_json) {
  fuzz::campaign_result r;
  fuzz::coverage_stats& st = r.stats.coverage;
  st.executed = 10;
  st.distinct_buckets = 2;
  st.steered = true;
  st.timeline = {{1, 1}, {4, 2}};
  st.corpus = {{0, 123, false, "kinds=reg|mix=reg:3"},
               {3, 456, true, "kinds=cas|mix=cas:1"}};
  std::string json =
      fuzz::coverage_json(fuzz::campaign_config().seed(7).iterations(10), r);
  EXPECT_NE(json.find("\"base_seed\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"distinct_buckets\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"steered\": true"), std::string::npos);
  EXPECT_NE(json.find("[[1, 1], [4, 2]]"), std::string::npos);
  EXPECT_NE(json.find("\"bucket\": \"kinds=cas|mix=cas:1\""),
            std::string::npos);
}

// ---- shrinker ---------------------------------------------------------------

TEST(shrinker, synthetic_predicate_shrinks_to_one_op) {
  fuzz::gen_config cfg;
  cfg.min_procs = 3;
  cfg.max_procs = 3;
  cfg.min_ops = 6;
  cfg.max_ops = 8;
  api::scripted_scenario s = fuzz::generate(77, "queue", cfg);
  // Plant the needle the predicate looks for.
  s.scripts[1][2] = {0, hist::opcode::enq, 55, 0, 0};
  s.policy = core::runtime::fail_policy::retry;
  s.shared_cache = true;

  auto fails = [](const api::scripted_scenario& c) {
    for (const auto& [pid, ops] : c.scripts) {
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::enq && d.a == 55) return true;
      }
    }
    return false;
  };
  api::scripted_scenario shrunk = fuzz::shrink(s, fails);
  EXPECT_TRUE(fails(shrunk)) << "shrunk scenario must still fail";
  EXPECT_EQ(shrunk.total_ops(), 1u) << api::dump(shrunk);
  EXPECT_EQ(shrunk.nprocs, 1);
  EXPECT_TRUE(shrunk.crash_steps.empty());
  EXPECT_EQ(shrunk.policy, core::runtime::fail_policy::skip);
  EXPECT_FALSE(shrunk.shared_cache);
}

// The object-level passes: a needle on one object of a 4-object scenario
// shrinks to a single-object scenario (drop + merge + retarget).
TEST(shrinker, drops_and_merges_objects) {
  api::scripted_scenario s;
  s.objects.push_back({0, "reg", {}});
  s.objects.push_back({1, "queue", {}});
  s.objects.push_back({2, "reg", {}});
  s.objects.push_back({3, "counter", {}});
  s.nprocs = 2;
  s.backend = api::exec_backend::sharded;
  s.shards = 2;
  s.scripts[0] = {{0, hist::opcode::reg_write, 1, 0, 0},
                  {1, hist::opcode::enq, 2, 0, 0},
                  {2, hist::opcode::reg_write, 55, 0, 0},
                  {3, hist::opcode::ctr_add, 1, 0, 0}};
  s.scripts[1] = {{1, hist::opcode::deq, 0, 0, 0},
                  {2, hist::opcode::reg_read, 0, 0, 0}};

  // The needle: some reg_write of 55 (wherever it lives after retargeting).
  auto fails = [](const api::scripted_scenario& c) {
    for (const auto& [pid, ops] : c.scripts) {
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::reg_write && d.a == 55) return true;
      }
    }
    return false;
  };
  api::scripted_scenario shrunk = fuzz::shrink(s, fails);
  EXPECT_TRUE(fails(shrunk));
  EXPECT_EQ(shrunk.objects.size(), 1u) << api::dump(shrunk);
  EXPECT_EQ(shrunk.objects.front().kind, "reg");
  EXPECT_EQ(shrunk.total_ops(), 1u) << api::dump(shrunk);
  EXPECT_EQ(shrunk.backend, api::exec_backend::single)
      << "a non-sharding failure must simplify off the sharded backend";
  EXPECT_EQ(shrunk.shards, 1);
  // Every surviving op targets a surviving object.
  for (const auto& [pid, ops] : shrunk.scripts) {
    for (const hist::op_desc& d : ops) {
      EXPECT_NE(shrunk.find_object(d.object), nullptr);
    }
  }
}

// A genuinely cross-object failure must keep both objects: merging loses
// the two-distinct-ids property the predicate demands, so the shrinker may
// not apply it.
TEST(shrinker, keeps_objects_a_cross_object_failure_needs) {
  api::scripted_scenario s;
  s.objects.push_back({0, "reg", {}});
  s.objects.push_back({1, "reg", {}});
  s.objects.push_back({2, "queue", {}});
  s.nprocs = 1;
  s.scripts[0] = {{0, hist::opcode::reg_write, 1, 0, 0},
                  {1, hist::opcode::reg_write, 2, 0, 0},
                  {2, hist::opcode::enq, 3, 0, 0}};
  auto fails = [](const api::scripted_scenario& c) {
    std::set<std::uint32_t> reg_targets;
    for (const auto& [pid, ops] : c.scripts) {
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::reg_write) reg_targets.insert(d.object);
      }
    }
    return reg_targets.size() >= 2;
  };
  ASSERT_TRUE(fails(s));
  api::scripted_scenario shrunk = fuzz::shrink(s, fails);
  EXPECT_TRUE(fails(shrunk));
  EXPECT_EQ(shrunk.objects.size(), 2u) << api::dump(shrunk);
  EXPECT_EQ(shrunk.total_ops(), 2u) << api::dump(shrunk);
}

// Shrinker edits must never cross the usage contracts the generator
// enforces — otherwise the minimized artifact can "fail" for the contract
// violation instead of the original defect.
TEST(shrinker, preserves_usage_contracts) {
  // Lock: find a generated crashy scenario (generate forces retry there).
  fuzz::gen_config cfg;
  cfg.min_procs = 2;
  cfg.max_procs = 2;
  cfg.min_ops = 6;
  cfg.max_ops = 6;
  api::scripted_scenario lock_s;
  for (std::uint64_t seed = 1;; ++seed) {
    lock_s = fuzz::generate(seed, "lock", cfg);
    if (!lock_s.crash_steps.empty()) break;
    ASSERT_LT(seed, 100u) << "no crashy lock scenario in 100 seeds";
  }
  ASSERT_EQ(lock_s.policy, core::runtime::fail_policy::retry);

  // Predicate: "still crashy and still contends" — aggressive shrinking
  // would love to drop the crash plan, flip retry to skip, or delete a
  // release; the contract guard must block the unsound edits.
  auto lock_fails = [](const api::scripted_scenario& c) {
    if (c.crash_steps.empty()) return false;
    int tries = 0;
    for (const auto& [pid, ops] : c.scripts) {
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::lock_try) ++tries;
      }
    }
    return tries >= 2;
  };
  ASSERT_TRUE(lock_fails(lock_s));
  api::scripted_scenario lock_shrunk = fuzz::shrink(lock_s, lock_fails);
  EXPECT_TRUE(lock_fails(lock_shrunk));
  EXPECT_EQ(lock_shrunk.policy, core::runtime::fail_policy::retry)
      << "crashy lock scenarios must keep fail_policy::retry";
  for (const auto& [pid, ops] : lock_shrunk.scripts) {
    bool may_hold = false;
    for (const hist::op_desc& d : ops) {
      if (d.code == hist::opcode::lock_try) {
        EXPECT_FALSE(may_hold) << "try_lock while possibly holding\n"
                               << api::dump(lock_shrunk);
        may_hold = true;
      } else if (d.code == hist::opcode::lock_release) {
        may_hold = false;
      }
    }
  }

  // CAS: the zero-arguments pass must keep old != new.
  api::scripted_scenario cas_s = fuzz::generate(5, "cas");
  auto cas_fails = [](const api::scripted_scenario& c) {
    for (const auto& [pid, ops] : c.scripts) {
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::cas) return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(cas_fails(cas_s));
  api::scripted_scenario cas_shrunk = fuzz::shrink(cas_s, cas_fails);
  EXPECT_TRUE(cas_fails(cas_shrunk));
  for (const auto& [pid, ops] : cas_shrunk.scripts) {
    for (const hist::op_desc& d : ops) {
      if (d.code == hist::opcode::cas) {
        EXPECT_NE(d.a, d.b) << "degenerate Cas(x, x) after shrinking";
      }
    }
  }
}

TEST(shrinker, passing_scenario_is_returned_unchanged) {
  api::scripted_scenario s = fuzz::generate(3, "reg");
  api::scripted_scenario out =
      fuzz::shrink(s, [](const api::scripted_scenario&) { return false; });
  EXPECT_EQ(api::dump(out), api::dump(s));
}

// Shrinker validity against the real differ: minimizing a genuine
// differential failure keeps it failing, down to the single lying read.
TEST(shrinker, real_diff_failure_shrinks_to_the_lying_read) {
  register_lying_counter_once();
  using hist::opcode;
  api::scripted_scenario s = counter_scenario(
      {{opcode::ctr_add, opcode::ctr_read, opcode::ctr_add, opcode::ctr_read,
        opcode::ctr_add}});
  auto fails = [](const api::scripted_scenario& c) {
    return !fuzz::diff_against(c, "test_lying_counter").ok;
  };
  ASSERT_TRUE(fails(s));
  api::scripted_scenario shrunk = fuzz::shrink(s, fails);
  EXPECT_TRUE(fails(shrunk)) << "shrunk scenario must still fail";
  ASSERT_EQ(shrunk.total_ops(), 1u) << api::dump(shrunk);
  EXPECT_EQ(shrunk.scripts.begin()->second[0].code, opcode::ctr_read)
      << "the minimal failing scenario is the lone lying read";
}

// ---- dump / parse round-tripping --------------------------------------------

TEST(replay_dump, round_trips_exactly) {
  for (const char* kind : {"reg", "cas", "queue", "lock"}) {
    for (std::uint64_t seed : {101ull, 202ull}) {
      api::scripted_scenario s = fuzz::generate(seed, kind);
      std::string text = api::dump(s);
      api::scripted_scenario parsed = api::parse_scenario(text);
      EXPECT_EQ(api::dump(parsed), text) << kind << " seed " << seed;
    }
  }
}

TEST(replay_dump, multi_object_scenarios_round_trip_with_targets) {
  fuzz::gen_config cfg;
  cfg.min_objects = 2;
  cfg.max_objects = 4;
  cfg.object_kind_pool = {"reg", "cas", "queue", "lock"};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "cas", cfg);
    std::string text = api::dump(s);
    EXPECT_NE(text.find("object 0 cas"), std::string::npos) << text;
    EXPECT_NE(text.find("object 1 "), std::string::npos) << text;
    api::scripted_scenario parsed = api::parse_scenario(text);
    EXPECT_EQ(api::dump(parsed), text) << "seed " << seed;
    ASSERT_EQ(parsed.objects.size(), s.objects.size());
    for (std::size_t i = 0; i < s.objects.size(); ++i) {
      EXPECT_EQ(parsed.objects[i].id, s.objects[i].id);
      EXPECT_EQ(parsed.objects[i].kind, s.objects[i].kind);
    }
  }
}

TEST(replay_dump, parsed_scenario_replays_identically) {
  api::scripted_scenario s = fuzz::generate(7, "cas");
  api::scripted_scenario parsed = api::parse_scenario(api::dump(s));
  api::scripted_outcome a = api::replay(s);
  api::scripted_outcome b = api::replay(parsed);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_EQ(a.report.steps, b.report.steps);
  EXPECT_EQ(a.report.crashes, b.report.crashes);
  EXPECT_EQ(a.check.ok, b.check.ok);
}

TEST(replay_dump, malformed_input_throws) {
  EXPECT_THROW(api::parse_scenario(""), std::invalid_argument);
  EXPECT_THROW(api::parse_scenario("bogus line\n"), std::invalid_argument);
  EXPECT_THROW(api::parse_scenario("kind reg\nscript 0 frobnicate:1:2\n"),
               std::invalid_argument);
  EXPECT_THROW(api::parse_scenario("kind reg\npolicy maybe\n"),
               std::invalid_argument);
}

TEST(replay_dump, parse_errors_carry_line_number_and_token) {
  auto message_of = [](const std::string& text) -> std::string {
    try {
      api::parse_scenario(text);
    } catch (const std::invalid_argument& ex) {
      return ex.what();
    }
    return {};
  };

  // A bad op token on line 3 (after a comment line).
  std::string msg =
      message_of("kind reg\n# comment\nscript 0 reg_write:1:0 zap\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'zap'"), std::string::npos) << msg;

  // An unknown opcode surfaces its name and line even though the throw
  // originates in opcode_from_name.
  msg = message_of("kind reg\nscript 0 frobnicate:1:2\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("frobnicate"), std::string::npos) << msg;

  // Unknown keys and bad values name their line too.
  msg = message_of("kind reg\nprocs 2\nwibble 7\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'wibble'"), std::string::npos) << msg;

  msg = message_of("kind reg\nbackend warp\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("warp"), std::string::npos) << msg;
}

// Numeric lines take digits only, exactly as many as the key wants: a
// trailing token, a sign or an out-of-range value is a line error, never a
// silent truncation or wrap-around.
TEST(replay_dump, numeric_lines_reject_trailing_tokens_and_negatives) {
  const std::string head = "object 0 reg 0 64\n";
  const std::string tail = "script 0 reg_read:0:0\n";
  auto rejects = [&](const std::string& line) {
    try {
      api::parse_scenario(head + line + "\n" + tail);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).rfind("parse_scenario: line 2: ", 0) == 0;
    }
    return false;
  };
  for (const char* line : {
           "procs 3 junk", "procs -1", "procs 0", "procs", "procs 1 2",
           "procs 99999999999",
           "shared_cache 1 1", "shared_cache -1", "shared_cache 2",
           "sched_seed -1", "sched_seed 5 x", "sched_seed",
           "sched_seed 18446744073709551616",
           "shards 2 x", "shards -2", "shards 0",
           "crash_steps 5 x 7", "crash_steps -1", "crash_steps +3",
           "drain_steps 5 x 7", "drain_steps -1", "drain_steps 0x10",
           "migrate 0 1 2", "migrate 0 -1", "migrate -1 0", "migrate 0",
       }) {
    EXPECT_TRUE(rejects(line)) << line;
  }
  // The well-formed forms still parse.
  api::scripted_scenario s = api::parse_scenario(
      head + "procs 3\nshared_cache 1\nsched_seed 18446744073709551615\n"
             "shards 2\ncrash_steps 5 7\ncrash_steps 9\nvisibility tso\n"
             "drain_steps\nmigrate 0 1\n" + tail);
  EXPECT_EQ(s.nprocs, 3);
  EXPECT_TRUE(s.shared_cache);
  EXPECT_EQ(s.sched_seed, 18446744073709551615ull);
  EXPECT_EQ(s.shards, 2);
  EXPECT_EQ(s.crash_steps, (std::vector<std::uint64_t>{5, 7, 9}));
  EXPECT_TRUE(s.drain_steps.empty());
  ASSERT_EQ(s.migrations.size(), 1u);
}

// Byte-mutation self-fuzz of the parser (campaign workers ingest each
// other's corpus files from disk): every mutant of a generated dump either
// parses to a dump fixpoint or throws std::invalid_argument carrying the
// parse_scenario prefix — no other exception, crash or silent drift. The
// sanitizer pass runs this under ASan/UBSan.
TEST(replay_dump, byte_mutants_parse_to_a_fixpoint_or_fail_cleanly) {
  fuzz::gen_config cfg;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "queue", "lock"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  cfg.visibility_pool = {"sc", "tso", "pso"};
  const std::string alphabet = "0123456789 -+:@\n#abcxyz_";
  std::uint64_t rng = 0x5eed;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::string dump = api::dump(fuzz::generate(seed, "reg", cfg));
    for (int m = 0; m < 60; ++m) {
      std::string text = dump;
      const int edits = 1 + static_cast<int>(sim::next_rand(rng) % 3);
      for (int e = 0; e < edits; ++e) {
        const std::size_t at = sim::next_rand(rng) % (text.size() + 1);
        const char c = alphabet[sim::next_rand(rng) % alphabet.size()];
        switch (sim::next_rand(rng) % 3) {
          case 0:
            if (at < text.size()) text[at] = c;
            break;
          case 1:
            text.insert(at, 1, c);
            break;
          default:
            if (at < text.size()) text.erase(at, 1);
            break;
        }
      }
      try {
        const std::string once = api::dump(api::parse_scenario(text));
        EXPECT_EQ(api::dump(api::parse_scenario(once)), once) << text;
        ++parsed;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("parse_scenario: ", 0), 0u)
            << e.what() << "\n" << text;
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "escaped " << e.what() << "\n" << text;
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// The ISSUE-4 parser hardening: duplicate object ids and ops targeting an
// undeclared object are rejected with the line/token-carrying error.
TEST(replay_dump, rejects_duplicate_object_ids) {
  auto message_of = [](const std::string& text) -> std::string {
    try {
      api::parse_scenario(text);
    } catch (const std::invalid_argument& ex) {
      return ex.what();
    }
    return {};
  };
  std::string msg = message_of(
      "object 0 reg 0 64\n"
      "object 1 cas 0 64\n"
      "object 1 queue 0 64\n"
      "procs 1\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate object id 1"), std::string::npos) << msg;
}

TEST(replay_dump, rejects_ops_targeting_undeclared_objects) {
  auto message_of = [](const std::string& text) -> std::string {
    try {
      api::parse_scenario(text);
    } catch (const std::invalid_argument& ex) {
      return ex.what();
    }
    return {};
  };
  std::string msg = message_of(
      "object 0 reg 0 64\n"
      "procs 1\n"
      "script 0 reg_write:1:0 reg_read:0:0@3\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'reg_read:0:0@3'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("undeclared object 3"), std::string::npos) << msg;

  // Out-of-range / signed targets must error, not wrap into a declared id.
  msg = message_of(
      "object 0 reg 0 64\nprocs 1\nscript 0 reg_read:0:0@4294967296\n");
  EXPECT_NE(msg.find("bad op target"), std::string::npos) << msg;
  msg = message_of("object 0 reg 0 64\nprocs 1\nscript 0 reg_read:0:0@-1\n");
  EXPECT_NE(msg.find("bad op target"), std::string::npos) << msg;

  // Mixing the legacy kind key with v3 object declarations is ambiguous.
  msg = message_of("object 0 reg 0 64\nkind cas\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  msg = message_of("kind cas\nobject 0 reg 0 64\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

// replay() itself guards programmatically-built scenarios the parser never
// saw.
TEST(replay_dump, replay_rejects_undeclared_targets) {
  api::scripted_scenario s = single_object("reg");
  s.nprocs = 1;
  s.scripts[0] = {{9, hist::opcode::reg_read, 0, 0, 0}};
  EXPECT_THROW(api::replay(s), std::invalid_argument);
  api::scripted_scenario empty;
  EXPECT_THROW(api::replay(empty), std::invalid_argument);
}

TEST(replay_dump, legacy_dumps_without_backend_fields_parse_as_single) {
  // A pre-executor (v1) dump: no backend / shards lines.
  api::scripted_scenario s = api::parse_scenario(
      "# detect scripted_scenario v1\n"
      "kind reg\n"
      "params 0 64\n"
      "procs 2\n"
      "policy skip\n"
      "shared_cache 0\n"
      "sched_seed 7\n"
      "crash_steps 5\n"
      "script 0 reg_write:3:0 reg_read:0:0\n"
      "script 1 reg_read:0:0\n");
  EXPECT_EQ(s.backend, api::exec_backend::single);
  EXPECT_EQ(s.shards, 1);
  ASSERT_EQ(s.objects.size(), 1u);
  EXPECT_EQ(s.objects.front().id, 0u);
  EXPECT_EQ(s.objects.front().kind, "reg");
  EXPECT_TRUE(api::replay(s).check.ok);
}

// The ISSUE-4 acceptance bar: a v2 single-object dump (the PR-3 format,
// kind/params + backend/shards lines) parses as the single-object special
// case and replays byte-identically to its v3 round-trip.
TEST(replay_dump, v2_dumps_parse_and_replay_byte_identically) {
  const std::string v2_text =
      "# detect scripted_scenario v2\n"
      "kind cas\n"
      "params 0 64\n"
      "procs 2\n"
      "policy retry\n"
      "shared_cache 0\n"
      "sched_seed 99\n"
      "backend single\n"
      "shards 2\n"
      "crash_steps 11 23\n"
      "script 0 cas:0:1 cas_read:0:0\n"
      "script 1 cas:1:2 cas_read:0:0\n";
  api::scripted_scenario s = api::parse_scenario(v2_text);
  ASSERT_EQ(s.objects.size(), 1u);
  EXPECT_EQ(s.objects.front().id, 0u);
  EXPECT_EQ(s.objects.front().kind, "cas");
  EXPECT_EQ(s.shards, 2);
  for (const auto& [pid, ops] : s.scripts) {
    for (const hist::op_desc& d : ops) EXPECT_EQ(d.object, 0u);
  }
  api::scripted_outcome a = api::replay(s);
  // The v3 round-trip preserves the execution byte for byte.
  api::scripted_scenario rt = api::parse_scenario(api::dump(s));
  api::scripted_outcome b = api::replay(rt);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_EQ(a.report.steps, b.report.steps);
  EXPECT_EQ(a.report.crashes, b.report.crashes);
  EXPECT_TRUE(a.check.ok);
  // And the full oracle (incl. the shards=2 equivalence diff) is clean.
  EXPECT_TRUE(fuzz::check_scenario(s).empty());
}

// The ISSUE-5 acceptance bar, mirroring the v2 test: a pinned v3
// multi-object dump (the PR-4 format — object lines, no placement/migrate
// lines) parses as placement modulo with no migrations and replays
// byte-identically to its v4 round-trip.
TEST(replay_dump, v3_dumps_parse_and_replay_byte_identically) {
  const std::string v3_text =
      "# detect scripted_scenario v3\n"
      "object 0 cas 0 64\n"
      "object 1 reg 0 64\n"
      "procs 2\n"
      "policy skip\n"
      "shared_cache 0\n"
      "sched_seed 77\n"
      "backend sharded\n"
      "shards 2\n"
      "crash_steps\n"
      "script 0 cas:0:1 reg_write:3:0@1\n"
      "script 1 cas_read:0:0 reg_read:0:0@1\n";
  api::scripted_scenario s = api::parse_scenario(v3_text);
  EXPECT_EQ(s.placement, api::placement_policy{});
  EXPECT_TRUE(s.migrations.empty());
  ASSERT_EQ(s.objects.size(), 2u);
  api::scripted_outcome a = api::replay(s);
  // The v4 round-trip carries an explicit `placement modulo` line and
  // preserves the execution byte for byte.
  const std::string v4_text = api::dump(s);
  EXPECT_NE(v4_text.find("placement modulo"), std::string::npos) << v4_text;
  api::scripted_scenario rt = api::parse_scenario(v4_text);
  api::scripted_outcome b = api::replay(rt);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_EQ(a.report.steps, b.report.steps);
  EXPECT_TRUE(a.check.ok);
  // And the full oracle (incl. the shards=2 equivalence diff) is clean.
  EXPECT_TRUE(fuzz::check_scenario(s).empty());
}

TEST(replay_dump, placement_and_migrations_round_trip) {
  api::scripted_scenario s = fuzz::generate(33, "counter");
  s.backend = api::exec_backend::sharded;
  s.shards = 3;
  s.placement = api::pinned_placement({{0, 2}});
  s.crash_steps.clear();
  s.migrations = {{0, 1}, {0, 2}};
  std::string text = api::dump(s);
  EXPECT_NE(text.find("placement pinned 0:2"), std::string::npos) << text;
  EXPECT_NE(text.find("migrate 0 1"), std::string::npos) << text;
  EXPECT_NE(text.find("migrate 0 2"), std::string::npos) << text;
  api::scripted_scenario parsed = api::parse_scenario(text);
  EXPECT_EQ(parsed.placement, s.placement);
  EXPECT_EQ(parsed.migrations, s.migrations);
  EXPECT_EQ(api::dump(parsed), text);
  // The parsed scenario replays identically to the original.
  api::scripted_outcome a = api::replay(s);
  api::scripted_outcome b = api::replay(parsed);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_TRUE(a.check.ok) << a.check.message;
}

TEST(replay_dump, placement_and_migration_parse_errors) {
  const std::string head =
      "object 0 reg 0 64\nprocs 1\nscript 0 reg_read:0:0\n";
  EXPECT_THROW(api::parse_scenario(head + "placement warp\n"),
               std::invalid_argument);
  EXPECT_THROW(api::parse_scenario(head + "placement pinned 0\n"),
               std::invalid_argument);
  EXPECT_THROW(api::parse_scenario(head + "placement pinned 0:-1\n"),
               std::invalid_argument);  // negative shard, rejected at parse
  // Placement errors carry the 1-based line like every other key's.
  try {
    api::parse_scenario(head + "placement warp\n");
    FAIL() << "placement warp must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(api::parse_scenario(head + "migrate 9 0\n"),
               std::invalid_argument);  // undeclared object
  EXPECT_THROW(api::parse_scenario(head + "migrate 0\n"),
               std::invalid_argument);  // missing shard
}

TEST(replay_dump, replay_validates_migration_plans) {
  api::scripted_scenario s = single_object("reg");
  s.nprocs = 1;
  s.backend = api::exec_backend::sharded;
  s.shards = 2;
  s.scripts[0] = {{0, hist::opcode::reg_read, 0, 0, 0}};
  s.migrations = {{0, 5}};  // out of range for 2 shards
  EXPECT_THROW(api::replay(s), std::invalid_argument);
  s.migrations = {{9, 1}};  // undeclared object
  EXPECT_THROW(api::replay(s), std::invalid_argument);
  s.migrations = {{0, 1}};
  EXPECT_TRUE(api::replay(s).check.ok);
}

TEST(replay_dump, backend_and_shards_round_trip) {
  api::scripted_scenario s = fuzz::generate(21, "queue");
  s.backend = api::exec_backend::sharded;
  s.shards = 3;
  std::string text = api::dump(s);
  EXPECT_NE(text.find("backend sharded"), std::string::npos);
  EXPECT_NE(text.find("shards 3"), std::string::npos);
  api::scripted_scenario parsed = api::parse_scenario(text);
  EXPECT_EQ(parsed.backend, api::exec_backend::sharded);
  EXPECT_EQ(parsed.shards, 3);
  EXPECT_EQ(api::dump(parsed), text);
}

TEST(replay_dump, failure_artifact_parses_back_to_the_shrunk_scenario) {
  fuzz::fuzz_failure f;
  f.iteration = 3;
  f.seed = 1234;
  f.kind = "reg";
  f.message = "synthetic\nmultiline message";
  f.scenario = fuzz::generate(1234, "reg");
  fuzz::gen_config one_proc;
  one_proc.min_procs = 1;
  one_proc.max_procs = 1;
  f.shrunk = fuzz::generate(1234, "reg", one_proc);
  api::scripted_scenario parsed = api::parse_scenario(f.to_artifact());
  EXPECT_EQ(api::dump(parsed), api::dump(f.shrunk));
}

// ---- placement knob + placement equivalence ---------------------------------

TEST(scenario_gen, placement_knob_is_bounded_and_deterministic) {
  fuzz::gen_config cfg;
  cfg.min_shards = 2;  // every scenario carries the knob
  cfg.max_shards = 4;
  bool saw_nonmodulo = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    api::scripted_scenario a = fuzz::generate(seed, "reg", cfg);
    api::scripted_scenario b = fuzz::generate(seed, "reg", cfg);
    EXPECT_EQ(api::dump(a), api::dump(b));
    saw_nonmodulo |= a.placement.kind != api::placement_kind::modulo;
    if (a.placement.kind == api::placement_kind::pinned) {
      // Pins cover exactly the declared objects, each onto a real shard.
      EXPECT_EQ(a.placement.pins.size(), a.objects.size());
      for (const auto& [id, shard] : a.placement.pins) {
        EXPECT_NE(a.find_object(id), nullptr);
        EXPECT_GE(shard, 0);
        EXPECT_LT(shard, a.shards);
      }
    }
  }
  EXPECT_TRUE(saw_nonmodulo) << "the knob never left modulo in 60 draws";

  // Unsharded scenarios carry no placement (nothing to place).
  fuzz::gen_config unsharded;
  unsharded.max_shards = 1;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(fuzz::generate(seed, "reg", unsharded).placement,
              api::placement_policy{});
  }
}

TEST(scenario_gen, forced_placement_pins_every_scenario) {
  fuzz::gen_config cfg;
  cfg.min_shards = 2;
  cfg.placement = "range";
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(fuzz::generate(seed, "queue", cfg).placement.kind,
              api::placement_kind::range);
  }
  cfg.placement = "none";
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(fuzz::generate(seed, "queue", cfg).placement,
              api::placement_policy{});
  }
}

TEST(scenario_gen, migrations_only_on_crash_free_sharded_scenarios) {
  fuzz::gen_config cfg;
  cfg.min_shards = 2;
  cfg.max_shards = 4;
  bool saw_migration = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "lock", cfg);
    if (s.migrations.empty()) continue;
    saw_migration = true;
    EXPECT_EQ(s.backend, api::exec_backend::sharded) << seed;
    EXPECT_TRUE(s.crash_steps.empty()) << seed;
    for (const auto& [id, shard] : s.migrations) {
      EXPECT_NE(s.find_object(id), nullptr);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, s.shards);
    }
    // Migration scenarios run their scripts twice, so every lock script
    // must end not-holding.
    for (const auto& [pid, ops] : s.scripts) {
      std::map<std::uint32_t, bool> held;
      for (const hist::op_desc& d : ops) {
        if (d.code == hist::opcode::lock_try) held[d.object] = true;
        if (d.code == hist::opcode::lock_release) held[d.object] = false;
      }
      for (const auto& [id, h] : held) EXPECT_FALSE(h) << seed;
    }
  }
  EXPECT_TRUE(saw_migration) << "the knob never drew a migration in 200 seeds";
}

// For >= 1000 generated seeds, replays under modulo vs hash vs range
// placement produce identical checker verdicts (and identical response
// streams for single-object scenarios), verified by check_scenario's
// placement stage — placement is semantics-invariant.
TEST(differ, placement_equivalence_holds_for_1000_seeds) {
  const std::vector<std::string> kinds = {"reg",   "cas",   "counter",
                                          "swap",  "tas",   "queue",
                                          "stack", "max_reg", "lock"};
  fuzz::gen_config cfg;
  cfg.max_procs = 2;
  cfg.max_ops = 5;
  cfg.max_crashes = 2;
  cfg.min_shards = 2;  // every scenario carries the placement diff
  cfg.max_shards = 4;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t seed =
        fuzz::iteration_seed(0x91aceULL, static_cast<std::uint64_t>(i));
    const std::string& kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
    api::scripted_scenario s = fuzz::generate(seed, kind, cfg);
    std::string failure = fuzz::check_scenario(s, /*diff=*/false, nullptr,
                                               nullptr, /*placement=*/true);
    ASSERT_TRUE(failure.empty()) << "seed " << seed << ":\n"
                                 << failure << "\n"
                                 << api::dump(s);
  }
}

TEST(differ, placement_diff_is_trivially_ok_without_a_shard_knob) {
  api::scripted_scenario s = fuzz::generate(9, "reg");
  s.shards = 1;
  EXPECT_EQ(fuzz::check_scenario(s, /*diff=*/false, nullptr, nullptr,
                                 /*placement=*/true),
            "");
}

TEST(run_fuzz, placement_equiv_campaign_is_clean) {
  fuzz::fuzz_options opt;
  opt.base_seed = 17;
  opt.iterations = 150;
  opt.kinds = g_builtin_kinds;
  opt.diff = false;
  opt.placement_equiv = true;
  opt.gen.min_shards = 2;
  opt.gen.max_procs = 2;
  opt.gen.max_ops = 5;
  fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
  EXPECT_FALSE(stats.failure.has_value())
      << stats.failure->message << "\n"
      << api::dump(stats.failure->scenario);
  // The placement stage genuinely replayed extra variants.
  EXPECT_GT(stats.replays, 2 * stats.iterations);
}

TEST(shrinker, simplifies_placement_and_drops_migrations) {
  register_lying_counter_once();
  api::scripted_scenario s = single_object("test_lying_counter");
  s.nprocs = 1;
  s.backend = api::exec_backend::sharded;
  s.shards = 2;
  s.placement.kind = api::placement_kind::hash;
  s.migrations = {{0, 1}};
  s.scripts[0] = {{0, hist::opcode::ctr_add, 1, 0, 0},
                  {0, hist::opcode::ctr_read, 0, 0, 0}};
  auto fails = [](const api::scripted_scenario& c) {
    return !fuzz::check_scenario(c).empty();
  };
  ASSERT_TRUE(fails(s));
  api::scripted_scenario shrunk = fuzz::shrink(s, fails);
  EXPECT_TRUE(fails(shrunk));
  // The failure is the lying read, not the routing: placement simplifies to
  // modulo and the migration plan drops away.
  EXPECT_EQ(shrunk.placement, api::placement_policy{});
  EXPECT_TRUE(shrunk.migrations.empty());
}

TEST(coverage, signature_carries_placement_and_migration_bits) {
  api::scripted_scenario s = fuzz::generate(3, "reg");
  s.backend = api::exec_backend::sharded;
  s.shards = 2;
  s.placement = {};
  s.migrations.clear();
  const std::string base_key = fuzz::scenario_signature(s).scenario_key();
  EXPECT_NE(base_key.find("place=modulo"), std::string::npos) << base_key;
  EXPECT_NE(base_key.find("mig=0"), std::string::npos) << base_key;

  api::scripted_scenario hashed = s;
  hashed.placement.kind = api::placement_kind::hash;
  EXPECT_NE(fuzz::scenario_signature(hashed).scenario_key(), base_key);

  api::scripted_scenario migrated = s;
  migrated.migrations = {{0, 1}};
  EXPECT_NE(fuzz::scenario_signature(migrated).scenario_key(), base_key);
}

// ---- campaign engine --------------------------------------------------------

TEST(run_fuzz, clean_campaign_over_builtin_kinds_is_deterministic) {
  fuzz::fuzz_options opt;
  opt.base_seed = 9;
  opt.iterations = static_cast<std::uint64_t>(g_builtin_kinds.size());
  opt.kinds = g_builtin_kinds;  // pin: later tests add broken kinds
  opt.gen.max_procs = 2;
  opt.gen.max_ops = 5;

  fuzz::fuzz_stats a = fuzz::run_fuzz(opt);
  EXPECT_FALSE(a.failure.has_value())
      << a.failure->message << "\n"
      << api::dump(a.failure->scenario);
  EXPECT_EQ(a.iterations, opt.iterations);

  fuzz::fuzz_stats b = fuzz::run_fuzz(opt);
  EXPECT_EQ(a.replays, b.replays) << "campaigns must be reproducible";
  EXPECT_FALSE(b.failure.has_value());
}

TEST(run_fuzz, reports_and_shrinks_a_failing_kind) {
  register_lying_counter_once();
  fuzz::fuzz_options opt;
  opt.base_seed = 5;
  opt.iterations = 50;
  opt.kinds = {"test_lying_counter"};

  fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
  ASSERT_TRUE(stats.failure.has_value())
      << "the lying counter must be caught by the oracle";
  const fuzz::fuzz_failure& f = *stats.failure;
  EXPECT_EQ(f.kind, "test_lying_counter");
  EXPECT_EQ(f.seed, fuzz::iteration_seed(opt.base_seed, f.iteration));
  EXPECT_FALSE(f.message.empty());
  EXPECT_LE(f.shrunk.total_ops(), f.scenario.total_ops());
  // The shrunk scenario still fails the same oracle.
  EXPECT_FALSE(fuzz::check_scenario(f.shrunk).empty());
  // And the artifact parses back to it.
  EXPECT_EQ(api::dump(api::parse_scenario(f.to_artifact())),
            api::dump(f.shrunk));
}

// A kind that throws out of the library is a finding, not a lost worker:
// the throw is filed with its type and message, and the scenario shrinks
// while it still throws the same type.
TEST(run_fuzz, a_throw_becomes_a_shrunk_failure) {
  test::register_throwing_counter_once();
  fuzz::fuzz_options opt;
  opt.base_seed = 5;
  opt.iterations = 50;
  opt.kinds = {"test_throwing_counter"};

  fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
  ASSERT_TRUE(stats.failure.has_value());
  const fuzz::fuzz_failure& f = *stats.failure;
  EXPECT_EQ(f.kind, "test_throwing_counter");
  EXPECT_EQ(f.message,
            "threw: std::domain_error: test_throwing_counter: add(3)");
  EXPECT_LT(f.shrunk.total_ops(), f.scenario.total_ops());
  EXPECT_EQ(f.shrunk.total_ops(), 1u) << api::dump(f.shrunk);
  EXPECT_THROW(fuzz::check_scenario(f.shrunk), std::domain_error);
  EXPECT_EQ(api::dump(api::parse_scenario(f.to_artifact())),
            api::dump(f.shrunk));
}

// Steered campaigns also catch planted bugs: the lying counter cannot hide
// behind the mutation engine.
TEST(run_fuzz, steered_campaign_still_catches_the_lying_counter) {
  register_lying_counter_once();
  fuzz::fuzz_options opt;
  opt.base_seed = 5;
  opt.iterations = 80;
  opt.kinds = {"counter", "test_lying_counter"};
  opt.steer = true;

  fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
  ASSERT_TRUE(stats.failure.has_value());
  EXPECT_FALSE(fuzz::check_scenario(stats.failure->shrunk).empty());
}

}  // namespace
