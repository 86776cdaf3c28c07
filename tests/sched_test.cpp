// The detect::sched subsystem: strategy naming + policy serialization, PCT
// scheduler determinism and demotion semantics, the step-limit diagnostic,
// scripted_scenario v5 (schedule + persistency lines, v4 compat), the
// buffered-persistency model's novel crash states, the PCT-vs-uniform
// coverage comparison, and the planted preemption bug only PCT finds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"

namespace {

using namespace detect;

// Registry kinds as of static init — campaign tests must not pick up the
// broken kinds later tests register.
const std::vector<std::string> g_builtin_kinds =
    api::object_registry::global().kinds();

// ---- strategy names + policy serialization ----------------------------------

TEST(strategy, names_round_trip) {
  for (sched::strategy s : {sched::strategy::round_robin,
                            sched::strategy::uniform_random,
                            sched::strategy::pct}) {
    auto back = sched::strategy_from_name(sched::strategy_name(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(sched::strategy_from_name("fifo").has_value());
  EXPECT_FALSE(sched::strategy_from_name("").has_value());
}

TEST(strategy, policy_to_string_parse_round_trips) {
  sched::sched_policy p;
  EXPECT_EQ(sched::sched_policy::parse(p.to_string()), p);
  p.strat = sched::strategy::round_robin;
  EXPECT_EQ(sched::sched_policy::parse(p.to_string()), p);
  p.strat = sched::strategy::pct;
  p.pct_points = {3, 17, 90};
  EXPECT_EQ(sched::sched_policy::parse(p.to_string()), p);
  EXPECT_EQ(p.to_string(), "pct 3 17 90");
}

TEST(strategy, policy_parse_rejects_malformed_input) {
  EXPECT_THROW(sched::sched_policy::parse("fifo"), std::invalid_argument);
  EXPECT_THROW(sched::sched_policy::parse(""), std::invalid_argument);
  // Preemption points only make sense for pct.
  EXPECT_THROW(sched::sched_policy::parse("uniform_random 3"),
               std::invalid_argument);
  EXPECT_THROW(sched::sched_policy::parse("pct 3 x"), std::invalid_argument);
}

// ---- pct scheduler ----------------------------------------------------------

TEST(pct_scheduler, same_seed_and_points_pick_identically) {
  const std::vector<int> runnable{0, 1, 2};
  sched::pct_scheduler a(42, {5, 9});
  sched::pct_scheduler b(42, {5, 9});
  for (std::uint64_t step = 0; step < 40; ++step) {
    EXPECT_EQ(a.pick(runnable, step), b.pick(runnable, step)) << step;
  }
  EXPECT_EQ(a.preemptions_applied(), 2u);
}

TEST(pct_scheduler, runs_the_top_priority_process_until_a_point_demotes_it) {
  const std::vector<int> runnable{0, 1};
  sched::pct_scheduler s(7, {10});
  const int before = s.pick(runnable, 0);
  for (std::uint64_t step = 1; step < 10; ++step) {
    EXPECT_EQ(s.pick(runnable, step), before) << "strict priority until the "
                                                 "preemption point";
  }
  // The preemption point demotes the running process below all others.
  const int after = s.pick(runnable, 10);
  EXPECT_NE(after, before);
  EXPECT_EQ(s.preemptions_applied(), 1u);
  // Demotions are sticky: the demoted process stays below while others run.
  EXPECT_EQ(s.pick(runnable, 11), after);
  // ... but it still runs when it is the only runnable process.
  EXPECT_EQ(s.pick({before}, 12), before);
}

TEST(pct_scheduler, draw_pct_points_is_deterministic_and_bounded) {
  const std::vector<std::uint64_t> a = sched::draw_pct_points(9, 4, 100);
  EXPECT_EQ(a, sched::draw_pct_points(9, 4, 100));
  EXPECT_LE(a.size(), 4u);
  EXPECT_GE(a.size(), 1u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (std::uint64_t p : a) {
    EXPECT_GE(p, 1u);
    EXPECT_LE(p, 100u);
  }
  EXPECT_NE(a, sched::draw_pct_points(10, 4, 100));
}

TEST(make_scheduler, maps_policies_onto_the_legacy_dispatch) {
  // uniform_random without a seed is the historical no-seed round robin.
  sched::sched_policy uniform;
  EXPECT_EQ(sched::make_scheduler(uniform, std::nullopt)->describe(),
            "round_robin");
  EXPECT_EQ(sched::make_scheduler(uniform, 5)->describe(),
            "uniform_random(seed=5)");
  sched::sched_policy pct;
  pct.strat = sched::strategy::pct;
  pct.pct_points = {4, 9};
  EXPECT_EQ(sched::make_scheduler(pct, 5)->describe(),
            "pct(seed=5, budget=2, applied=0)");
}

// ---- step-limit diagnostic --------------------------------------------------

TEST(step_limit, note_names_the_active_strategy_and_budget) {
  sched::sched_policy pct;
  pct.strat = sched::strategy::pct;
  pct.pct_points = {2};
  auto h = api::harness::builder()
               .procs(2)
               .seed(11)
               .schedule(pct)
               .max_steps(4)
               .build();
  api::counter c = h.add_counter();
  h.script(0, {c.add(1), c.read()});
  h.script(1, {c.add(1)});
  sim::run_report r = h.run();
  ASSERT_TRUE(r.hit_step_limit);
  EXPECT_NE(r.limit_note.find("step limit 4"), std::string::npos)
      << r.limit_note;
  EXPECT_NE(r.limit_note.find("pct(seed=11, budget=1"), std::string::npos)
      << r.limit_note;
}

// ---- scripted_scenario v5 ---------------------------------------------------

TEST(replay_v5, schedule_and_persistency_round_trip) {
  api::scripted_scenario s = fuzz::generate(21, "counter");
  s.crash_steps.clear();
  s.sched.strat = sched::strategy::pct;
  s.sched.pct_points = {7, 31};
  s.persist = nvm::persist_model::buffered;
  const std::string text = api::dump(s);
  EXPECT_NE(text.find("# detect scripted_scenario v6"), std::string::npos);
  EXPECT_NE(text.find("sched pct 7 31"), std::string::npos) << text;
  EXPECT_NE(text.find("persist buffered"), std::string::npos) << text;
  api::scripted_scenario rt = api::parse_scenario(text);
  EXPECT_EQ(rt.sched, s.sched);
  EXPECT_EQ(rt.persist, s.persist);
  EXPECT_EQ(api::dump(rt), text);
  api::scripted_outcome a = api::replay(s);
  api::scripted_outcome b = api::replay(rt);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_TRUE(a.check.ok) << a.check.message;
}

// The ISSUE-6 acceptance bar, mirroring the v2/v3 pins in fuzz_test: a
// pinned v4 dump (the PR-5 format — placement/migrate era, no sched/persist
// lines) parses as the uniform_random strategy under strict persistency —
// exactly the scheduler and memory model those replays always used — and
// replays byte-identically to its v5 round-trip.
TEST(replay_v5, v4_dumps_parse_and_replay_byte_identically) {
  const std::string v4_text =
      "# detect scripted_scenario v4\n"
      "object 0 cas 0 64\n"
      "object 1 reg 0 64\n"
      "procs 2\n"
      "policy skip\n"
      "shared_cache 0\n"
      "sched_seed 77\n"
      "backend sharded\n"
      "shards 2\n"
      "placement hash\n"
      "crash_steps\n"
      "script 0 cas:0:1 reg_write:3:0@1\n"
      "script 1 cas_read:0:0 reg_read:0:0@1\n";
  api::scripted_scenario s = api::parse_scenario(v4_text);
  EXPECT_EQ(s.sched, sched::sched_policy{});
  EXPECT_EQ(s.sched.strat, sched::strategy::uniform_random);
  EXPECT_EQ(s.persist, nvm::persist_model::strict);
  api::scripted_outcome a = api::replay(s);
  // The v5 round-trip carries explicit `sched` / `persist` lines and
  // preserves the execution byte for byte.
  const std::string v5_text = api::dump(s);
  EXPECT_NE(v5_text.find("sched uniform_random"), std::string::npos)
      << v5_text;
  EXPECT_NE(v5_text.find("persist strict"), std::string::npos) << v5_text;
  api::scripted_scenario rt = api::parse_scenario(v5_text);
  api::scripted_outcome b = api::replay(rt);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_EQ(a.report.steps, b.report.steps);
  EXPECT_TRUE(a.check.ok);
  // And the full oracle (incl. the shards=2 equivalence diff) is clean.
  EXPECT_TRUE(fuzz::check_scenario(s).empty());
}

TEST(replay_v5, parse_rejects_malformed_schedule_lines) {
  const std::string head =
      "object 0 reg 0 64\n"
      "procs 1\n"
      "script 0 reg_read:0:0\n";
  EXPECT_THROW(api::parse_scenario("sched fifo\n" + head),
               std::invalid_argument);
  EXPECT_THROW(api::parse_scenario("persist flaky\n" + head),
               std::invalid_argument);
}

// ---- generator pools --------------------------------------------------------

TEST(scenario_gen, default_pools_draw_the_historical_schedule) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "reg");
    EXPECT_EQ(s.sched, sched::sched_policy{});
    EXPECT_EQ(s.persist, nvm::persist_model::strict);
  }
}

TEST(scenario_gen, mixed_pools_reach_every_strategy_and_model) {
  fuzz::gen_config cfg;
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  std::set<sched::strategy> strategies;
  std::set<nvm::persist_model> models;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "counter", cfg);
    EXPECT_EQ(api::dump(s), api::dump(fuzz::generate(seed, "counter", cfg)));
    strategies.insert(s.sched.strat);
    models.insert(s.persist);
    if (s.sched.strat == sched::strategy::pct) {
      EXPECT_GE(s.sched.pct_points.size(), 1u);
      EXPECT_LE(s.sched.pct_points.size(),
                static_cast<std::size_t>(cfg.pct_depth));
    } else {
      EXPECT_TRUE(s.sched.pct_points.empty());
    }
  }
  EXPECT_EQ(strategies.size(), 3u);
  EXPECT_EQ(models.size(), 2u);
}

// ---- buffered persistency ---------------------------------------------------

// The buffered model's soundness hinge: every history event is an epoch
// boundary, so a crash reverts to a consistent cut and correct objects still
// pass the full durable-linearizability + detectability oracle.
TEST(buffered_persistency, correct_objects_stay_clean_under_crashes) {
  int crashy = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "counter");
    s.persist = nvm::persist_model::buffered;
    crashy += s.crash_steps.empty() ? 0 : 1;
    EXPECT_TRUE(fuzz::check_scenario(s).empty()) << "seed " << seed;
  }
  EXPECT_GE(crashy, 3) << "the seeds must actually exercise crashes";
}

// The acceptance bar: buffered mode produces >= 1 crash-state coverage
// bucket strict mode can never reach. `lost=1` requires a crash to discard
// stores that strict mode would already have persisted — under strict
// visibility every store is durable the moment it lands, so the bit is
// structurally unreachable there.
TEST(buffered_persistency, reaches_a_crash_state_bucket_strict_never_does) {
  std::set<std::string> strict_buckets;
  std::set<std::string> buffered_buckets;
  bool saw_lost = false;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    api::scripted_scenario s = fuzz::generate(seed, "counter");
    if (s.crash_steps.empty()) continue;
    api::scripted_outcome strict = api::replay(s);
    EXPECT_FALSE(strict.report.lost_persistence)
        << "strict mode can never lose persistence (seed " << seed << ")";
    strict_buckets.insert(fuzz::bucket_of(s, strict).key());

    api::scripted_scenario b = s;
    b.persist = nvm::persist_model::buffered;
    api::scripted_outcome buffered = api::replay(b);
    EXPECT_TRUE(buffered.check.ok) << buffered.check.message;
    const fuzz::bucket_signature sig = fuzz::bucket_of(b, buffered);
    buffered_buckets.insert(sig.key());
    saw_lost = saw_lost || sig.lost_persistence;
  }
  EXPECT_TRUE(saw_lost)
      << "some buffered crash must discard a write-behind store";
  for (const std::string& key : strict_buckets) {
    EXPECT_EQ(key.find("lost=1"), std::string::npos) << key;
  }
  std::vector<std::string> only_buffered;
  for (const std::string& key : buffered_buckets) {
    if (key.find("lost=1") != std::string::npos) only_buffered.push_back(key);
  }
  EXPECT_GE(only_buffered.size(), 1u);
}

// ---- PCT vs uniform: coverage A/B ------------------------------------------

// The ISSUE-6 coverage pin (pattern of PR 4's steering A/B): on the same
// seed budget, a pct-pool campaign reaches >= 1.3x the distinct
// schedule-novelty buckets of a uniform-random campaign. The non-schedule
// generator dimensions (kind, objects, shards, crashes) are pinned so the
// bucket space *is* the schedule-novelty space — what separates the two
// campaigns is exactly the preemption-count coordinate uniform schedules
// structurally lack (preempt=0 always, vs pct's budget buckets 1..3).
TEST(coverage_ab, pct_reaches_1_3x_the_schedule_novelty_buckets_of_uniform) {
  auto campaign = [](const std::string& pool) {
    fuzz::fuzz_options opt;
    opt.base_seed = 7;
    opt.iterations = 100;
    opt.kinds = {"counter"};
    opt.diff = false;  // bucket counting only — keep the A/B cheap
    opt.gen.crashes = false;
    opt.gen.max_objects = 1;
    opt.gen.max_shards = 1;
    opt.gen.sched_pool = {pool};
    opt.gen.pct_depth = 3;
    fuzz::fuzz_stats stats = fuzz::run_fuzz(opt);
    EXPECT_FALSE(stats.failure.has_value());
    EXPECT_EQ(stats.coverage.slices("sched").size(), 1u);
    return stats.coverage.distinct_buckets;
  };
  const std::size_t uniform = campaign("uniform_random");
  const std::size_t pct = campaign("pct");
  // pct >= 1.3 * uniform, in integers.
  EXPECT_GE(pct * 10, uniform * 13)
      << "pct " << pct << " vs uniform " << uniform;
}

// ---- the planted preemption bug ---------------------------------------------

// A counter whose read only lies after a specific preemption pattern: it
// samples the inner counter twice and reports an impossible value (v1 +
// 1000) exactly when three add deltas landed between the samples. With two
// 2-add writers, reaching delta == 3 takes (a) the reader preempted right
// after its first sample and (b) the writers' run cut off mid-add before
// the fourth delta — two placed preemptions inside the reader's
// announcement window. Uniform random schedules essentially never hold a
// reader off for three full adds and then resume it at exactly that cut;
// PCT's demotion points do it by construction.
struct preempt_counter : core::detectable_object {
  api::created_object inner;

  explicit preempt_counter(api::created_object in) : inner(std::move(in)) {}

  hist::value_t invoke(int pid, const hist::op_desc& op) override {
    if (op.code != hist::opcode::ctr_read) {
      return inner.primary().invoke(pid, op);
    }
    const hist::value_t v0 = inner.primary().invoke(pid, op);
    const hist::value_t v1 = inner.primary().invoke(pid, op);
    return v1 == v0 + 3 ? v1 + 1000 : v1;
  }
  core::recovery_result recover(int pid, const hist::op_desc& op) override {
    return inner.primary().recover(pid, op);
  }
  bool wants_aux_reset() const override {
    return inner.primary().wants_aux_reset();
  }
};

void register_preempt_counter_once() {
  auto& reg = api::object_registry::global();
  if (reg.contains("test_preempt_counter")) return;
  api::kind_info info;
  info.name = "test_preempt_counter";
  info.family = api::op_family::counter;
  info.detectable = false;
  info.make = [](const api::object_env& e, const api::object_params& p) {
    api::created_object c;
    c.owned.push_back(std::make_unique<preempt_counter>(
        api::object_registry::global().create("counter", e, p)));
    return c;
  };
  info.make_spec = [](const api::object_params& p) {
    return api::object_registry::global().make_spec("counter", p);
  };
  reg.add(std::move(info));
}

// One reader (whose read double-samples), two 2-add writers.
api::scripted_scenario preempt_bug_scenario() {
  api::scripted_scenario s;
  s.objects.push_back({0, "test_preempt_counter", {}});
  s.nprocs = 3;
  s.scripts[0] = {{0, hist::opcode::ctr_read, 0, 0, 0}};
  s.scripts[1] = {{0, hist::opcode::ctr_add, 1, 0, 0},
                  {0, hist::opcode::ctr_add, 1, 0, 0}};
  s.scripts[2] = {{0, hist::opcode::ctr_add, 1, 0, 0},
                  {0, hist::opcode::ctr_add, 1, 0, 0}};
  return s;
}

// Pinned budgets, calibrated by scanning seeds 1..500: uniform_random never
// fires the bug (0/500); pct first fires at seed 118 and 10 times overall.
constexpr std::uint64_t k_preempt_seed_budget = 200;
constexpr int k_preempt_depth = 6;
constexpr std::uint64_t k_preempt_horizon = 90;

api::scripted_scenario preempt_bug_with_pct(std::uint64_t seed) {
  api::scripted_scenario s = preempt_bug_scenario();
  s.sched_seed = seed;
  s.sched.strat = sched::strategy::pct;
  s.sched.pct_points =
      sched::draw_pct_points(seed, k_preempt_depth, k_preempt_horizon);
  return s;
}

bool preempt_bug_fires(const api::scripted_scenario& s) {
  return !api::replay(s).check.ok;
}

// The ISSUE-6 acceptance bar: within the same pinned seed budget, pct finds
// the planted preemption bug and uniform_random misses it. The uniform
// scheduler would have to hold the reader off for three full adds and then
// resume it before the fourth completes — a run of ~18 exact picks; pct
// places the two cuts deliberately.
TEST(planted_preempt_bug, pct_finds_it_where_uniform_misses) {
  register_preempt_counter_once();
  const api::scripted_scenario base = preempt_bug_scenario();
  std::uint64_t first_pct = 0;
  for (std::uint64_t seed = 1; seed <= k_preempt_seed_budget; ++seed) {
    api::scripted_scenario u = base;
    u.sched_seed = seed;
    EXPECT_FALSE(preempt_bug_fires(u))
        << "uniform_random found the planted bug at seed " << seed;
    if (first_pct == 0 && preempt_bug_fires(preempt_bug_with_pct(seed))) {
      first_pct = seed;
    }
  }
  EXPECT_EQ(first_pct, 118u)
      << "pct must find the planted bug within the pinned budget";
}

// ... and the shrinker's schedule-minimization pass (strategy canonicalize,
// then drop preemption points one at a time, interleaved with the
// structural passes) reduces the drawn 6-point schedule to <= 2 preemption
// points while the repro keeps failing.
TEST(planted_preempt_bug, shrinker_minimizes_the_schedule) {
  register_preempt_counter_once();
  api::scripted_scenario p = preempt_bug_with_pct(118);
  ASSERT_TRUE(preempt_bug_fires(p));
  ASSERT_GE(p.sched.pct_points.size(), 3u) << "drawn schedule starts larger";
  api::scripted_scenario shrunk = fuzz::shrink(p, preempt_bug_fires);
  EXPECT_TRUE(preempt_bug_fires(shrunk));
  // The bug is schedule-dependent, so canonicalization must keep pct ...
  EXPECT_EQ(shrunk.sched.strat, sched::strategy::pct);
  // ... with at most the two preemption points the bug actually needs.
  EXPECT_LE(shrunk.sched.pct_points.size(), 2u);
  EXPECT_GE(shrunk.sched.pct_points.size(), 1u);
}

}  // namespace
