// The differ's oracle (fuzz::check_scenario, fuzz::diff_against): golden FNV
// pins over generated scenarios under every (diff, placement) setting, and
// over the failure text of every stage — primary, sharded, placement and
// variant — on hand-built failing inputs. Any change to which replays a
// variant family performs, in which order, or what they report shows up as
// a hash mismatch. The sharded backend's own check results are pinned here
// too, over generated replays.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/axes.hpp"
#include "fuzz/fuzz.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using test::fnv_raw;
using test::k_fnv_basis;

// Registry kinds as of static init, before test_lying_counter is registered.
const std::vector<std::string> g_builtin_kinds =
    api::object_registry::global().kinds();

// fuzz_main's default campaign config: every registry kind, extra objects
// drawn from the same list.
fuzz::gen_config default_config() {
  fuzz::gen_config cfg;
  cfg.object_kind_pool = g_builtin_kinds;
  return cfg;
}

// Every check_scenario setting: (diff, placement).
const std::vector<std::pair<bool, bool>> k_settings = {
    {false, false}, {true, false}, {false, true}, {true, true}};

// One oracle run folded into `h`: the failure text and the primary replay's
// verdict, node count and log. The replay count is pinned only without the
// placement stage, whose replays the variant family may share with the
// sharded stage.
std::uint64_t hash_check(std::uint64_t h, const api::scripted_scenario& s,
                         bool diff, bool placement) {
  std::uint64_t replays = 0;
  api::scripted_outcome primary;
  const std::string failure =
      fuzz::check_scenario(s, diff, &replays, &primary, placement);
  h = fnv_raw(h, failure);
  h = fnv_raw(h, primary.check.ok ? "ok" : "rejected");
  h = fnv_raw(h, std::to_string(primary.check.nodes));
  h = fnv_raw(h, primary.log_text);
  if (!placement) h = fnv_raw(h, std::to_string(replays));
  return h;
}

std::uint64_t hash_generated(const fuzz::gen_config& cfg) {
  std::uint64_t h = k_fnv_basis;
  for (const auto& [diff, placement] : k_settings) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      const std::string& kind = g_builtin_kinds[seed % g_builtin_kinds.size()];
      h = hash_check(h, fuzz::generate(seed, kind, cfg), diff, placement);
    }
  }
  return h;
}

std::uint64_t hash_every_setting(std::uint64_t h,
                                 const api::scripted_scenario& s) {
  for (const auto& [diff, placement] : k_settings) {
    h = hash_check(h, s, diff, placement);
  }
  return h;
}

// ---- generated scenarios ----------------------------------------------------

TEST(differ_pin, default_config) {
  EXPECT_EQ(hash_generated(default_config()), 3862697831807262732ULL);
}

TEST(differ_pin, every_scenario_sharded) {
  fuzz::gen_config cfg = default_config();
  cfg.min_shards = 2;
  EXPECT_EQ(hash_generated(cfg), 12274527717456946082ULL);
}

TEST(differ_pin, mixed_model_pools) {
  fuzz::gen_config cfg = default_config();
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  cfg.visibility_pool = {"sc", "tso", "pso"};
  EXPECT_EQ(hash_generated(cfg), 5214843295720148694ULL);
}

// The sharded check's results over 3,000 generated replays on the sharded
// backend: every registry kind in the object pool, every model axis open,
// at least two shards. Any change to how check() cuts the shard logs into
// per-object streams that moves a verdict, a node count or a message moves
// the hash.
TEST(sharded_check_pin, results_over_generated_replays) {
  fuzz::gen_config cfg = default_config();
  cfg.min_shards = 2;
  for (const fuzz::model_axis& axis : fuzz::model_axes()) {
    std::vector<std::string>& pool = cfg.*axis.pool;
    pool.clear();
    for (const fuzz::axis_value& v : axis.values) pool.push_back(v.name);
  }
  std::uint64_t h = k_fnv_basis;
  int crashy = 0, migrating = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    api::scripted_scenario s = fuzz::generate(
        seed, g_builtin_kinds[seed % g_builtin_kinds.size()], cfg);
    s.backend = api::exec_backend::sharded;
    crashy += !s.crash_steps.empty();
    migrating += !s.migrations.empty();
    const hist::check_result r = api::replay(s).check;
    h = test::fnv(h, r.ok ? "ok" : "rejected");
    h = test::fnv(h, std::to_string(r.nodes));
    h = test::fnv(h, std::to_string(r.objects));
    h = test::fnv(h, r.synthesized_interval ? "synth" : "-");
    h = test::fnv(h, std::to_string(r.failed_object));
    h = test::fnv(h, r.inconclusive ? "inconclusive" : "decided");
    h = test::fnv(h, r.message);
  }
  EXPECT_GE(crashy, 800);
  EXPECT_GE(migrating, 140);
  EXPECT_EQ(h, 2884743937306544897ULL);
}

// lin_memo's fingerprint decides which sub-checks of a variant family repeat.
// Over fuzz_main's default scenarios, each replayed as declared, on the other
// shard layout, and crash-free with its primary object as declared and as
// every variants_of kind, through one memo per scenario, the hit and miss
// totals are pinned: a weaker fingerprint would turn misses into hits, and a
// fingerprint that read bytes outside the event fields would turn repeats
// into misses.
TEST(differ_pin, memo_hits_and_misses) {
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const std::string& kind = g_builtin_kinds[seed % g_builtin_kinds.size()];
    const api::scripted_scenario s = fuzz::generate(seed, kind, default_config());
    hist::lin_memo memo;
    hist::check_options opt;
    opt.memo = &memo;
    api::replay(s, opt);
    if (s.shards > 1) {
      api::scripted_scenario other = s;
      other.backend = s.backend == api::exec_backend::single
                          ? api::exec_backend::sharded
                          : api::exec_backend::single;
      api::replay(other, opt);
    }
    api::scripted_scenario base = s;
    base.crash_steps.clear();
    base.policy = core::runtime::fail_policy::skip;
    api::replay(base, opt);
    for (const std::string& v : fuzz::variants_of(s.objects[0].kind)) {
      api::scripted_scenario substituted = base;
      substituted.objects[0].kind = v;
      api::replay(substituted, opt);
    }
    hits += memo.hits();
    misses += memo.misses();
  }
  EXPECT_EQ(hits, 1612u);
  EXPECT_EQ(misses, 1452u);
}

// ---- hand-built failures, one per stage -------------------------------------

// Primary stage: a non-detectable counter whose crashed add is reported FAIL
// yet took effect (tests/corpus/replay/plain_counter_crash.scn).
const char* const k_plain_counter_crash =
    "object 0 plain_counter 0 64\n"
    "procs 2\n"
    "policy retry\n"
    "shared_cache 1\n"
    "sched_seed 12309200858610268086\n"
    "crash_steps 5 17\n"
    "script 0 ctr_add:2:0 ctr_read:0:0 ctr_read:0:0 ctr_read:0:0\n"
    "script 1 ctr_add:1:0 ctr_add:2:0 ctr_read:0:0 ctr_add:2:0 ctr_add:2:0 "
    "ctr_add:2:0 ctr_read:0:0\n";

// Sharded stage, verdicts: the migration moves the plain counter to a fresh
// shard, whose own step counter meets the crash plan differently — the
// sharded replay passes, the single one is rejected.
const char* const k_plain_counter_migration =
    "object 0 plain_counter 0 64\n"
    "procs 1\n"
    "policy skip\n"
    "shared_cache 1\n"
    "sched_seed 14902\n"
    "crash_steps 57 71\n"
    "backend sharded\n"
    "shards 2\n"
    "placement modulo\n"
    "migrate 0 1\n"
    "script 0 ctr_add:2:0 ctr_read:0:0 ctr_add:1:0 ctr_read:0:0\n";

// Placement stage, verdicts: single and sharded/modulo replays pass; under
// hash placement the plain counter starts on the shard it migrates to.
const char* const k_two_counters_migration =
    "object 0 plain_counter 0 64\n"
    "object 1 counter 0 64\n"
    "procs 2\n"
    "policy retry\n"
    "shared_cache 1\n"
    "sched_seed 8256\n"
    "crash_steps 34 62\n"
    "backend sharded\n"
    "shards 3\n"
    "placement modulo\n"
    "migrate 0 1\n"
    "script 0 ctr_add:2:0 ctr_read:0:0 ctr_add:1:0@1 ctr_read:0:0 "
    "ctr_add:3:0@1 ctr_read:0:0\n"
    "script 1 ctr_add:1:0@1 ctr_add:2:0 ctr_read:0:0@1\n";

TEST(differ_pin, stage_failure_messages) {
  test::register_lying_counter_once();
  std::uint64_t h = k_fnv_basis;
  for (const char* text : {k_plain_counter_crash, k_plain_counter_migration,
                           k_two_counters_migration}) {
    h = hash_every_setting(h, api::parse_scenario(text));
  }

  // Variant stage: the lying counter substituted for the primary object and
  // for a secondary one.
  api::scripted_scenario lone;
  lone.objects.push_back({0, "counter", {}});
  lone.nprocs = 1;
  lone.scripts[0] = {{0, hist::opcode::ctr_add, 1, 0, 0},
                     {0, hist::opcode::ctr_read, 0, 0, 0}};
  h = fnv_raw(h, fuzz::diff_against(lone, "test_lying_counter").message);
  api::scripted_scenario pair;
  pair.objects.push_back({0, "reg", {}});
  pair.objects.push_back({1, "counter", {}});
  pair.nprocs = 1;
  pair.scripts[0] = {{0, hist::opcode::reg_write, 2, 0, 0},
                     {1, hist::opcode::ctr_add, 1, 0, 0},
                     {1, hist::opcode::ctr_read, 0, 0, 0}};
  h = fnv_raw(h, fuzz::diff_against(pair, 1u, "test_lying_counter").message);
  EXPECT_EQ(h, 16176775528308875252ULL);
}

// The variant family's replays format no log text; check_scenario formats
// the primary's for `primary_out` and for a rejection. The rejection reads
// the same either way, and the stored text is the event log's.
TEST(differ, rejection_text_does_not_depend_on_primary_out) {
  test::register_lying_counter_once();
  api::scripted_scenario s;
  s.objects.push_back({0, "test_lying_counter", {}});
  s.nprocs = 2;
  s.scripts[0] = {{0, hist::opcode::ctr_add, 2, 0, 0},
                  {0, hist::opcode::ctr_read, 0, 0, 0}};
  s.scripts[1] = {{0, hist::opcode::ctr_add, 1, 0, 0}};
  for (bool diff : {false, true}) {
    const std::string bare = fuzz::check_scenario(s, diff);
    api::scripted_outcome primary;
    const std::string stored = fuzz::check_scenario(s, diff, nullptr, &primary);
    EXPECT_EQ(bare.rfind("checker rejected test_lying_counter: ", 0), 0u)
        << bare;
    EXPECT_EQ(bare, stored);
    EXPECT_FALSE(primary.log_text.empty());
    EXPECT_EQ(primary.log_text, hist::format_log(primary.events));
    EXPECT_NE(bare.find(primary.log_text), std::string::npos);
  }
}

// One process, a migration and a crash plan on a detectable counter: the
// single and sharded replays (modulo placement) and the placement variants
// (hash placement) meet different crash schedules, so only their verdicts
// compare.
TEST(differ_pin, crash_plan_with_migration) {
  api::scripted_scenario s = api::parse_scenario(
      "object 0 counter 0 64\n"
      "procs 1\n"
      "sched_seed 7\n"
      "crash_steps 1 13\n"
      "backend sharded\n"
      "shards 2\n"
      "placement modulo\n"
      "migrate 0 1\n"
      "script 0 ctr_add:2:0 ctr_read:0:0 ctr_add:1:0 ctr_read:0:0 "
      "ctr_add:3:0 ctr_read:0:0\n");
  std::uint64_t h = hash_every_setting(k_fnv_basis, s);
  s.placement.kind = api::placement_kind::hash;
  h = hash_every_setting(h, s);
  EXPECT_EQ(h, 1079114523090335189ULL);
}

// ---- crash plans across migrations ------------------------------------------

// Crash steps are keyed on each shard's own step counter, so after a
// migration the sharded replay's second round meets a different crash
// schedule than the single replay, which skips the migration: the response
// streams legitimately differ, and only the verdicts compare.
TEST(differ, crash_plans_with_migrations_compare_verdicts_only) {
  const std::vector<std::string> kinds = {"reg",  "cas",   "counter", "swap",
                                          "tas",  "queue", "stack"};
  fuzz::gen_config cfg;
  cfg.max_procs = 1;
  cfg.max_shards = 1;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    s.backend = api::exec_backend::sharded;
    s.shards = 2;
    s.migrations = {{s.primary().id, 1}};
    s.crash_steps = {1 + seed % 7, 12 + seed % 11};
    for (api::placement_kind kind :
         {api::placement_kind::modulo, api::placement_kind::hash}) {
      s.placement.kind = kind;
      const std::string failure = fuzz::check_scenario(
          s, /*diff=*/false, nullptr, nullptr, /*placement=*/true);
      EXPECT_EQ(failure, "") << api::dump(s);
    }
  }

  // The verdicts still compare: the single replay of this plain counter is
  // rejected while its sharded primary passes.
  const std::string failure = fuzz::check_scenario(
      api::parse_scenario(k_plain_counter_migration), /*diff=*/false);
  EXPECT_NE(failure.find("differ: single failed the checker"),
            std::string::npos)
      << failure;
}

}  // namespace
