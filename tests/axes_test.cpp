// The fuzzer's model axes (schedule strategy, persistency model, visibility
// model): golden FNV pins over generated, mutated and shrunk scenarios with
// every model pool open, so any change to how the axes are drawn, mutated or
// shrunk shows up as a hash mismatch; plus the axis table itself (axes.hpp).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using test::fnv_raw;
using test::k_fnv_basis;

const std::vector<std::string> k_kinds = {"reg",   "cas",     "counter",
                                          "queue", "stack",   "swap",
                                          "tas",   "max_reg", "lock"};

// The check_parallel corpus recipe with all three model pools open — the
// pools of the `models` benchmark workload.
fuzz::gen_config open_pools() {
  fuzz::gen_config cfg;
  cfg.max_procs = 3;
  cfg.max_ops = 6;
  cfg.max_shards = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  cfg.visibility_pool = {"sc", "tso", "pso"};
  return cfg;
}

// ---- golden pins ------------------------------------------------------------

TEST(model_axes_pin, generate_and_replay_with_every_pool_open) {
  const fuzz::gen_config cfg = open_pools();
  std::uint64_t h = k_fnv_basis;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, k_kinds[seed % k_kinds.size()], cfg);
    h = fnv_raw(h, api::dump(s));
    api::scripted_outcome out = api::replay(s);
    h = fnv_raw(h, out.log_text);
    h = fnv_raw(h, out.check.message);
    h = fnv_raw(h, std::to_string(out.report.steps));
  }
  EXPECT_EQ(h, 5481874680879061326ULL);
}

// Three chained mutations per seed, so every extra (model-axis) mutation
// case, point perturbations included, is hit many times over.
TEST(model_axes_pin, mutate_with_every_pool_open) {
  const fuzz::gen_config cfg = open_pools();
  std::uint64_t h = k_fnv_basis;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    api::scripted_scenario m =
        fuzz::generate(seed, k_kinds[seed % k_kinds.size()], cfg);
    std::uint64_t rng = seed * 7919 + 1;
    for (int round = 0; round < 3; ++round) {
      m = fuzz::mutate(m, rng, cfg);
      h = fnv_raw(h, api::dump(m));
    }
  }
  EXPECT_EQ(h, 17974008492379582502ULL);
}

// Every pool setting a campaign can ask for, not just all-open: each single
// opened pool, each pinned non-default value, and partial mixes. Generation
// and mutation only (replays are pinned above).
TEST(model_axes_pin, generate_and_mutate_under_each_pool_setting) {
  struct setting {
    std::vector<std::string> sched, persist, visibility;
  };
  const std::vector<setting> settings = {
      {{"uniform_random"}, {"strict"}, {"sc"}},
      {{"round_robin", "uniform_random", "pct"}, {"strict"}, {"sc"}},
      {{"pct"}, {"strict"}, {"sc"}},
      {{"round_robin"}, {"strict"}, {"sc"}},
      {{"uniform_random"}, {"strict", "buffered"}, {"sc"}},
      {{"uniform_random"}, {"buffered"}, {"sc"}},
      {{"uniform_random"}, {"strict"}, {"sc", "tso", "pso"}},
      {{"uniform_random"}, {"strict"}, {"tso"}},
      {{"uniform_random"}, {"strict"}, {"pso"}},
      {{"pct"}, {"buffered"}, {"sc", "tso"}},
      {{"round_robin", "pct"}, {"strict", "buffered"}, {"pso"}},
  };
  std::uint64_t h = k_fnv_basis;
  for (const setting& st : settings) {
    fuzz::gen_config cfg = open_pools();
    cfg.sched_pool = st.sched;
    cfg.persist_pool = st.persist;
    cfg.visibility_pool = st.visibility;
    cfg.pct_depth = 2;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      api::scripted_scenario s =
          fuzz::generate(seed, k_kinds[seed % k_kinds.size()], cfg);
      h = fnv_raw(h, api::dump(s));
      std::uint64_t rng = seed * 104729 + 3;
      for (int round = 0; round < 3; ++round) {
        s = fuzz::mutate(s, rng, cfg);
        h = fnv_raw(h, api::dump(s));
      }
    }
  }
  EXPECT_EQ(h, 10179685567210923167ULL);
}

// The planted Theorem-2 bugs: stripped objects (no auxiliary state) claimed
// detectable, hunted with every model pool open. The hunt stops at the first
// failure and shrinks it; the shrunk dumps are pinned, which pins the
// shrinker's model-axis canonicalization and point-drop passes.
TEST(model_axes_pin, shrunk_planted_failures_with_every_pool_open) {
  api::object_registry& reg = api::object_registry::global();
  std::uint64_t h = k_fnv_basis;
  for (const char* k : {"counter", "reg", "cas", "swap", "stack"}) {
    api::kind_info info = reg.at(std::string("stripped_") + k);
    info.name = std::string("planted_") + k;
    info.detectable = true;
    if (!reg.contains(info.name)) reg.add(info);

    for (std::uint64_t base = 11; base <= 13; ++base) {
      fuzz::fuzz_options opt;
      opt.base_seed = base;
      opt.iterations = 3000;
      opt.kinds = {info.name};
      opt.gen = open_pools();
      opt.gen.object_kind_pool = {info.name};
      opt.gen.max_shards = 1;
      const fuzz::fuzz_stats st = fuzz::run_fuzz(opt);
      ASSERT_TRUE(st.failure.has_value()) << info.name << " was not found";
      h = fnv_raw(h, std::to_string(st.failure->iteration));
      h = fnv_raw(h, api::dump(st.failure->shrunk));
    }
  }
  EXPECT_EQ(h, 9914254512480862302ULL);
}

// ---- the table --------------------------------------------------------------

TEST(model_axes, table_order_is_the_draw_order) {
  std::vector<std::string> names;
  for (const fuzz::model_axis& ax : fuzz::model_axes()) {
    names.emplace_back(ax.name);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"sched", "persist", "visibility"}));
}

// Every value round-trips through set/get, the default and shrink target
// are values, and only values with points keep a live point list.
TEST(model_axes, values_round_trip_through_the_scenario) {
  for (const fuzz::model_axis& ax : fuzz::model_axes()) {
    EXPECT_NE(ax.find(ax.dflt), nullptr) << ax.name;
    EXPECT_NE(ax.find(ax.shrink_target), nullptr) << ax.name;
    EXPECT_EQ(fuzz::pool_open(ax, {}), false) << ax.name;
    for (const fuzz::axis_value& v : ax.values) {
      api::scripted_scenario s;
      s.objects.push_back({0, "reg", {}});
      ax.set(s, v.name);
      EXPECT_EQ(ax.get(s), v.name);
      EXPECT_EQ(ax.points_live(s), v.has_points) << ax.name << "=" << v.name;
      EXPECT_FALSE(std::string(v.description).empty());
      // The dump line carries the value, and parses back to it.
      EXPECT_EQ(ax.get(api::parse_scenario(api::dump(s))), v.name);
    }
    EXPECT_EQ(ax.find("no_such_value"), nullptr);
  }
}

TEST(model_axes, generator_rejects_unknown_pool_values) {
  for (const fuzz::model_axis& ax : fuzz::model_axes()) {
    fuzz::gen_config cfg;
    cfg.*ax.pool = {"no_such_value"};
    try {
      fuzz::generate(1, "reg", cfg);
      ADD_FAILURE() << ax.name << " accepted an unknown pool value";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(ax.name) + "_pool"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(model_axes, describe_names_every_axis_and_its_points) {
  api::scripted_scenario s;
  s.sched.strat = sched::strategy::pct;
  s.sched.pct_points = {12, 40};
  s.persist = nvm::persist_model::buffered;
  s.visibility = wmm::visibility_model::pso;
  EXPECT_EQ(fuzz::describe_models(s),
            " sched=pct pct_points=12,40 persist=buffered visibility=pso");
  s.drain_steps = {17};
  EXPECT_EQ(fuzz::describe_models(s),
            " sched=pct pct_points=12,40 persist=buffered visibility=pso"
            " drain_steps=17");
}

// The shrinker's pass 0 takes every axis to its shrink target (which for
// sched differs from the default), dropping points with the value.
TEST(model_axes, canonicalize_moves_to_the_shrink_target) {
  api::scripted_scenario s;
  s.sched.strat = sched::strategy::pct;
  s.sched.pct_points = {3};
  s.persist = nvm::persist_model::buffered;
  s.visibility = wmm::visibility_model::tso;
  s.drain_steps = {5};
  for (const fuzz::model_axis& ax : fuzz::model_axes()) {
    EXPECT_TRUE(fuzz::canonicalize(ax, s)) << ax.name;
    EXPECT_FALSE(fuzz::canonicalize(ax, s)) << ax.name;
    EXPECT_EQ(ax.get(s), ax.shrink_target);
  }
  EXPECT_EQ(s.sched.strat, sched::strategy::round_robin);
  EXPECT_TRUE(s.sched.pct_points.empty());
  EXPECT_TRUE(s.drain_steps.empty());
}

// coverage.json carries one by_<slice> table per axis, each row naming its
// value under <slice>.
TEST(model_axes, coverage_json_has_a_table_per_axis) {
  fuzz::campaign_config cfg;
  cfg.iterations(12).seed(3).quiet(true);
  cfg.options.diff = false;
  cfg.options.gen.sched_pool = {"round_robin", "pct"};
  cfg.options.gen.persist_pool = {"strict", "buffered"};
  cfg.options.gen.visibility_pool = {"sc", "tso"};
  const fuzz::campaign_result r = fuzz::run_campaign(cfg);
  ASSERT_EQ(r.exit_code, 0);
  const std::string json = fuzz::coverage_json(cfg, r);
  for (const fuzz::model_axis& ax : fuzz::model_axes()) {
    const std::string slice = ax.slice;
    EXPECT_NE(json.find("\"by_" + slice + "\": ["), std::string::npos)
        << json;
    const std::vector<fuzz::slice_stats>& rows =
        r.stats.coverage.slices(ax.name);
    std::uint64_t executed = 0;
    for (const fuzz::slice_stats& row : rows) {
      EXPECT_NE(json.find("{\"" + slice + "\": \"" + row.value + "\""),
                std::string::npos)
          << json;
      executed += row.executed;
    }
    EXPECT_EQ(executed, r.stats.coverage.executed) << ax.name;
  }
}

}  // namespace
