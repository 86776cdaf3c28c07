#include "fuzz/axes.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace detect::fuzz {

namespace {

using sim::next_rand;

/// Step horizon points are drawn over: roughly the scenario's expected run
/// length (announce + op body per scripted op).
std::uint64_t point_horizon(const api::scripted_scenario& s) {
  return 24 + 12 * static_cast<std::uint64_t>(s.total_ops());
}

void add_point(std::uint64_t& rng, const api::scripted_scenario& s,
               std::vector<std::uint64_t>& points) {
  points.push_back(1 + next_rand(rng) % point_horizon(s));
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
}

}  // namespace

const std::vector<model_axis>& model_axes() {
  static const std::vector<model_axis> axes = {
      {.name = "sched",
       .noun = "schedule strategy",
       .title = "schedule strategies",
       .dflt = "uniform_random",
       .shrink_target = "round_robin",
       .pool = &gen_config::sched_pool,
       .values = {{"round_robin", false,
                   "deterministic rotation over ready processes — the "
                   "canonical baseline schedule"},
                  {"uniform_random", false,
                   "every step picks a ready process uniformly from the "
                   "seeded stream"},
                  {"pct", true,
                   "priority-based exploration with a budget of seeded "
                   "preemption points"}},
       .get = [](const api::scripted_scenario& s) -> std::string {
         return sched::strategy_name(s.sched.strat);
       },
       .set =
           [](api::scripted_scenario& s, const std::string& v) {
             s.sched = {};
             s.sched.strat = *sched::strategy_from_name(v);
           },
       .points = [](const api::scripted_scenario& s) {
         return &s.sched.pct_points;
       },
       .points_name = "pct_points",
       .min_points = 1,
       .depth = &gen_config::pct_depth,
       .coord = "sched",
       .bucket_field = &bucket_signature::sched,
       .points_coord = "preempt",
       .points_bucket = &bucket_signature::preempt_bucket,
       .slice = "strategy"},
      {.name = "persist",
       .noun = "persist model",
       .title = "persistency models",
       .dflt = "strict",
       .shrink_target = "strict",
       .pool = &gen_config::persist_pool,
       .values = {{"strict", false,
                   "every drained store is persistent immediately — crashes "
                   "lose nothing"},
                  {"buffered", false,
                   "drained stores persist lazily via the journal — a crash "
                   "can discard them"}},
       .flips = true,
       .get = [](const api::scripted_scenario& s) -> std::string {
         return nvm::persist_name(s.persist);
       },
       .set =
           [](api::scripted_scenario& s, const std::string& v) {
             nvm::persist_from_name(v, s.persist);
           },
       .coord = "persist",
       .bucket_field = &bucket_signature::persist,
       .slice = "persist"},
      {.name = "visibility",
       .noun = "visibility model",
       .title = "visibility models",
       .dflt = "sc",
       .shrink_target = "sc",
       .pool = &gen_config::visibility_pool,
       .values = {{"sc", false,
                   "every store is globally visible the moment it executes "
                   "(no store buffers)"},
                  {"tso", true,
                   "per-process FIFO store buffers; the scheduler picks when "
                   "the head drains"},
                  {"pso", true,
                   "per-process per-cell store buffers; stores to different "
                   "cells drain in any order"}},
       .get = [](const api::scripted_scenario& s) -> std::string {
         return wmm::visibility_name(s.visibility);
       },
       .set =
           [](api::scripted_scenario& s, const std::string& v) {
             wmm::visibility_from_name(v, s.visibility);
             s.drain_steps.clear();
           },
       .points = [](const api::scripted_scenario& s) {
         return &s.drain_steps;
       },
       .points_name = "drain_steps",
       .max_points = 3,
       .coord = "vis",
       .bucket_field = &bucket_signature::vis,
       .slice = "visibility"},
  };
  return axes;
}

const axis_value* model_axis::find(std::string_view value) const {
  for (const axis_value& v : values) {
    if (value == v.name) return &v;
  }
  return nullptr;
}

std::vector<std::uint64_t>& model_axis::points_of(
    api::scripted_scenario& s) const {
  return const_cast<std::vector<std::uint64_t>&>(*points(s));
}

bool model_axis::points_live(const api::scripted_scenario& s) const {
  const axis_value* v = find(get(s));
  return points != nullptr && v != nullptr && v->has_points;
}

bool pool_open(const model_axis& ax, const gen_config& cfg) {
  const std::vector<std::string>& pool = cfg.*ax.pool;
  return !pool.empty() && (pool.size() > 1 || pool[0] != ax.dflt);
}

void draw_axis(const model_axis& ax, std::uint64_t& rng,
               api::scripted_scenario& s, const gen_config& cfg) {
  const std::vector<std::string>& pool = cfg.*ax.pool;
  const std::string& name = pool[next_rand(rng) % pool.size()];
  if (ax.find(name) == nullptr) {
    throw std::invalid_argument(std::string("scenario_gen: unknown ") +
                                ax.noun + " '" + name + "' in " + ax.name +
                                "_pool");
  }
  ax.set(s, name);
  if (!ax.points_live(s)) return;
  const std::uint64_t hi =
      ax.depth != nullptr
          ? static_cast<std::uint64_t>(std::max(1, cfg.*ax.depth))
          : ax.max_points;
  const std::uint64_t n =
      ax.min_points + next_rand(rng) % (hi - ax.min_points + 1);
  std::vector<std::uint64_t>& points = ax.points_of(s);
  for (std::uint64_t i = 0; i < n; ++i) add_point(rng, s, points);
}

void mutate_axis(const model_axis& ax, std::uint64_t& rng,
                 api::scripted_scenario& s, const gen_config& cfg) {
  if (!ax.flips) {
    draw_axis(ax, rng, s, cfg);
    return;
  }
  const axis_value* v = ax.find(ax.get(s));
  const std::size_t at = v == nullptr ? 0 : v - ax.values.data();
  ax.set(s, ax.values[(at + 1) % ax.values.size()].name);
}

bool perturb_points(const model_axis& ax, std::uint64_t& rng,
                    api::scripted_scenario& s) {
  if (!ax.points_live(s)) return false;
  std::vector<std::uint64_t>& points = ax.points_of(s);
  if (points.empty() || next_rand(rng) % 2 == 0) {
    add_point(rng, s, points);
  } else {
    points.erase(points.begin() +
                 static_cast<long>(next_rand(rng) % points.size()));
  }
  return true;
}

bool canonicalize(const model_axis& ax, api::scripted_scenario& s) {
  if (ax.get(s) == ax.shrink_target) return false;
  ax.set(s, ax.shrink_target);
  return true;
}

std::string describe_models(const api::scripted_scenario& s) {
  std::ostringstream os;
  for (const model_axis& ax : model_axes()) {
    os << " " << ax.name << "=" << ax.get(s);
    if (ax.points == nullptr || ax.points(s)->empty()) continue;
    os << " " << ax.points_name << "=";
    const std::vector<std::uint64_t>& points = *ax.points(s);
    for (std::size_t i = 0; i < points.size(); ++i) {
      os << (i != 0 ? "," : "") << points[i];
    }
  }
  return os.str();
}

}  // namespace detect::fuzz
