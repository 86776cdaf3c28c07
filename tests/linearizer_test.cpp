// Golden pin of the linearizer's results: hist::check_linearizable on every
// object's sub-history and hist::check_durable_linearizability on the product
// spec, over a 500-seed generated corpus, under small node budgets (so the
// inconclusive boundary is pinned exactly) and the default one. Each history
// is checked whole and cut in half; the cut leaves operations pending, which
// the search may drop, so its drop branches are pinned as well. The hash
// folds in the verdict, the budget flag, the node count, the witness and the
// error text, so any change to the search order, the node accounting or the
// failure text shows up as a mismatch.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "fuzz/scenario_gen.hpp"
#include "history/checker.hpp"
#include "history/linearizer.hpp"
#include "test_util.hpp"

namespace {

using namespace detect;
using test::fnv_raw;
using test::k_fnv_basis;

// Tallies that show the corpus reaches every kind of outcome.
struct tally {
  std::size_t linearizable = 0;
  std::size_t rejected = 0;
  std::size_t inconclusive = 0;
  std::size_t dropped = 0;  // linearizable with some pending op left out
};

std::uint64_t hash_lin(std::uint64_t h, const hist::lin_result& r,
                       std::size_t ops, tally& t) {
  h = fnv_raw(h, r.linearizable ? "lin" : "not");
  h = fnv_raw(h, r.exhausted_budget ? "exhausted" : "decided");
  h = fnv_raw(h, std::to_string(r.nodes));
  for (std::size_t i : r.witness) h = fnv_raw(h, std::to_string(i) + ',');
  h = fnv_raw(h, r.error);
  if (r.exhausted_budget) {
    ++t.inconclusive;
  } else if (r.linearizable) {
    ++t.linearizable;
    if (r.witness.size() < ops) ++t.dropped;
  } else {
    ++t.rejected;
  }
  return h;
}

std::uint64_t hash_check(std::uint64_t h, const hist::check_result& r,
                         tally& t) {
  h = fnv_raw(h, r.ok ? "ok" : "rejected");
  h = fnv_raw(h, r.inconclusive ? "inconclusive" : "decided");
  h = fnv_raw(h, std::to_string(r.nodes));
  h = fnv_raw(h, r.synthesized_interval ? "synth" : "-");
  h = fnv_raw(h, r.message);
  if (r.inconclusive) {
    ++t.inconclusive;
  } else if (r.ok) {
    ++t.linearizable;
  } else {
    ++t.rejected;
  }
  return h;
}

// check_parallel_test's corpus shape, with the primary object rotating over
// every registry kind so each kind's spec is searched.
fuzz::gen_config corpus_config() {
  fuzz::gen_config cfg;
  cfg.max_procs = 3;
  cfg.max_ops = 6;
  cfg.max_shards = 3;
  cfg.max_objects = 3;
  cfg.object_kind_pool = {"reg", "cas", "counter", "queue", "stack"};
  cfg.sched_pool = {"round_robin", "uniform_random", "pct"};
  cfg.persist_pool = {"strict", "buffered"};
  return cfg;
}

constexpr std::size_t k_small_budgets[] = {1, 7, 50};

// A copy of `o`'s spec whose initial value is `shift` higher. Checking a
// history against shifted specs rejects many of them, which pins the
// failure text too.
std::unique_ptr<hist::spec> shifted_spec(const api::scenario_object& o,
                                         hist::value_t shift) {
  api::object_params params = o.params;
  params.init += shift;
  return api::object_registry::global().make_spec(o.kind, params);
}

// Every object's sub-history checked under the small budgets and `budget`.
std::uint64_t hash_objects(std::uint64_t h, const api::scripted_scenario& s,
                           const std::vector<hist::event>& events,
                           hist::value_t shift, std::size_t budget,
                           tally& t) {
  std::vector<std::vector<hist::event>> streams(s.objects.size());
  std::vector<hist::stay> stays;
  for (std::size_t i = 0; i < s.objects.size(); ++i) {
    stays.push_back({s.objects[i].id, 0, hist::k_open, &streams[i]});
  }
  hist::project(events, std::move(stays));
  for (std::size_t i = 0; i < s.objects.size(); ++i) {
    const api::scenario_object& o = s.objects[i];
    const std::unique_ptr<hist::spec> sp = shifted_spec(o, shift);
    const std::vector<hist::op_record> records =
        hist::build_records(streams[i]);
    for (std::size_t b : k_small_budgets) {
      h = hash_lin(h, hist::check_linearizable(records, *sp, b),
                   records.size(), t);
    }
    h = hash_lin(h, hist::check_linearizable(records, *sp, budget),
                 records.size(), t);
  }
  return h;
}

// The whole log and its first half.
std::vector<std::vector<hist::event>> whole_and_cut(
    const std::vector<hist::event>& events) {
  return {events, std::vector<hist::event>(
                      events.begin(),
                      events.begin() + static_cast<std::ptrdiff_t>(
                                           events.size() / 2))};
}

void expect_every_outcome(const tally& t) {
  EXPECT_GT(t.linearizable, 0u);
  EXPECT_GT(t.rejected, 0u);
  EXPECT_GT(t.inconclusive, 0u);
}

TEST(linearizer_pin, results_over_500_seed_corpus) {
  const std::vector<std::string> kinds = api::object_registry::global().kinds();
  const fuzz::gen_config cfg = corpus_config();
  std::uint64_t per_object = k_fnv_basis;
  std::uint64_t product = k_fnv_basis;
  tally objects_tally;
  tally product_tally;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const api::scripted_scenario s =
        fuzz::generate(seed, kinds[seed % kinds.size()], cfg);
    for (const auto& events : whole_and_cut(api::replay(s).events)) {
      for (hist::value_t shift : {0, 1}) {
        per_object = hash_objects(per_object, s, events, shift,
                                  hist::k_default_node_budget, objects_tally);
        // The product spec harness::spec() assembles: one sub-spec per
        // object.
        hist::multi_spec all;
        for (const api::scenario_object& o : s.objects) {
          all.add_object(o.id, shifted_spec(o, shift));
        }
        for (std::size_t b : k_small_budgets) {
          product = hash_check(
              product, hist::check_durable_linearizability(events, all, b),
              product_tally);
        }
        product = hash_check(
            product,
            hist::check_durable_linearizability(events, all, 100'000),
            product_tally);
      }
    }
  }
  expect_every_outcome(objects_tally);
  EXPECT_GT(objects_tally.dropped, 0u);
  expect_every_outcome(product_tally);
  EXPECT_EQ(per_object, 5475239762450445909ULL);
  EXPECT_EQ(product, 3061879462998703583ULL);
}

// The long single-object histories the deep_check benchmark replays (stack
// 4x10 with crashes, cas 4x16, reg 8x8), where the visited set prunes most
// of the search.
TEST(linearizer_pin, results_over_deep_histories) {
  struct shape {
    const char* kind;
    int procs;
    int ops;
    hist::value_t values;
    bool crashes;
  };
  constexpr shape k_shapes[] = {{"stack", 4, 10, 8, true},
                                {"cas", 4, 16, 2, false},
                                {"reg", 8, 8, 8, false}};
  std::uint64_t h = k_fnv_basis;
  tally t;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const shape& sh = k_shapes[i % 3];
    fuzz::gen_config g;
    g.min_procs = g.max_procs = sh.procs;
    g.min_ops = g.max_ops = sh.ops;
    g.value_range = sh.values;
    g.crashes = sh.crashes;
    g.max_objects = 1;
    g.max_shards = 1;
    g.allow_sharded_backend = false;
    g.allow_migrations = false;
    const api::scripted_scenario s = fuzz::generate(i + 1, sh.kind, g);
    for (const auto& events : whole_and_cut(api::replay(s).events)) {
      h = hash_objects(h, s, events, 0, hist::k_default_node_budget, t);
      h = hash_objects(h, s, events, 1, 20'000, t);
    }
  }
  expect_every_outcome(t);
  EXPECT_GT(t.dropped, 0u);
  EXPECT_EQ(h, 6349155761739784097ULL);
}

}  // namespace
