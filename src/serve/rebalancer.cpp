#include "serve/rebalancer.hpp"

#include <algorithm>

namespace detect::serve {

void rebalancer::record_round(
    const std::map<std::uint32_t, std::uint64_t>& object_ops) {
  window_.push_back(object_ops);
  while (window_.size() > static_cast<std::size_t>(std::max(1, pol_.window))) {
    window_.pop_front();
  }
  ++rounds_seen_;
}

std::vector<std::uint64_t> rebalancer::window_load(
    const std::map<std::uint32_t, int>& homes) const {
  std::vector<std::uint64_t> load(static_cast<std::size_t>(shards_), 0);
  for (const auto& round : window_) {
    for (const auto& [object, ops] : round) {
      auto it = homes.find(object);
      if (it == homes.end()) continue;
      if (it->second < 0 || it->second >= shards_) continue;
      load[static_cast<std::size_t>(it->second)] += ops;
    }
  }
  return load;
}

std::vector<planned_move> rebalancer::maybe_plan(
    const std::map<std::uint32_t, int>& homes,
    const std::vector<std::uint32_t>& frozen) {
  if (shards_ < 2) return {};
  if (pol_.check_every < 1 || rounds_seen_ % pol_.check_every != 0) return {};

  // Measure even when disabled: stats.load_ratio_window stays meaningful in
  // off mode, so rebalance-on vs rebalance-off runs are comparable.
  std::vector<std::uint64_t> load = window_load(homes);
  last_ratio_ = api::load_ratio(load);
  if (!pol_.enabled) return {};
  if (last_ratio_ < pol_.hot_ratio) {
    hot_streak_ = 0;
    return {};
  }
  if (++hot_streak_ < pol_.sustain) return {};
  hot_streak_ = 0;  // the plan fires; require a fresh streak for the next one

  // Per-object window totals, for ranking movable weight.
  std::map<std::uint32_t, std::uint64_t> weight;
  for (const auto& round : window_) {
    for (const auto& [object, ops] : round) weight[object] += ops;
  }

  // Greedy: repeatedly move the heaviest movable object off the current
  // hottest shard to the current coldest one, while that strictly narrows
  // the hot−cold gap (w < gap ⇒ both max shrinks-or-holds and the pair's
  // spread shrinks — no oscillation).
  std::vector<planned_move> plan;
  std::map<std::uint32_t, int> sim_homes = homes;
  while (static_cast<int>(plan.size()) < std::max(0, pol_.max_moves)) {
    const auto hot_it = std::max_element(load.begin(), load.end());
    const auto cold_it = std::min_element(load.begin(), load.end());
    const int hot = static_cast<int>(hot_it - load.begin());
    const int cold = static_cast<int>(cold_it - load.begin());
    if (hot == cold) break;
    const std::uint64_t gap = *hot_it - *cold_it;

    std::uint32_t best_obj = 0;
    std::uint64_t best_w = 0;
    bool found = false;
    for (const auto& [object, w] : weight) {
      auto home = sim_homes.find(object);
      if (home == sim_homes.end() || home->second != hot) continue;
      if (w == 0 || w >= gap) continue;  // must strictly narrow the gap
      if (std::find(frozen.begin(), frozen.end(), object) != frozen.end()) {
        continue;
      }
      if (!found || w > best_w) {
        best_obj = object;
        best_w = w;
        found = true;
      }
    }
    if (!found) break;

    plan.push_back({best_obj, hot, cold});
    sim_homes[best_obj] = cold;
    load[static_cast<std::size_t>(hot)] -= best_w;
    load[static_cast<std::size_t>(cold)] += best_w;
  }
  return plan;
}

}  // namespace detect::serve
