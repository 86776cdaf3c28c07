#include "serve/rebalancer.hpp"

#include <algorithm>

namespace detect::serve {

void rebalancer::record_round(const std::vector<std::uint64_t>& object_ops) {
  if (sum_.size() < object_ops.size()) sum_.resize(object_ops.size(), 0);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> round;
  for (std::size_t id = 0; id < object_ops.size(); ++id) {
    if (object_ops[id] == 0) continue;
    round.emplace_back(static_cast<std::uint32_t>(id), object_ops[id]);
    sum_[id] += object_ops[id];
  }
  window_.push_back(std::move(round));
  while (window_.size() > static_cast<std::size_t>(std::max(1, pol_.window))) {
    for (const auto& [id, ops] : window_.front()) sum_[id] -= ops;
    window_.pop_front();
  }
  ++rounds_seen_;
}

std::vector<std::uint64_t> rebalancer::window_load(
    const std::vector<int>& homes) const {
  std::vector<std::uint64_t> load(static_cast<std::size_t>(shards_), 0);
  const std::size_t n = std::min(sum_.size(), homes.size());
  for (std::size_t id = 0; id < n; ++id) {
    if (homes[id] < 0 || homes[id] >= shards_) continue;
    load[static_cast<std::size_t>(homes[id])] += sum_[id];
  }
  return load;
}

std::vector<planned_move> rebalancer::maybe_plan(
    const std::vector<int>& homes, const std::vector<bool>& frozen) {
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

  // Greedy: repeatedly move the heaviest movable object off the current
  // hottest shard to the current coldest one, while that strictly narrows
  // the hot−cold gap (w < gap ⇒ both max shrinks-or-holds and the pair's
  // spread shrinks — no oscillation). Ranking reads the window sums; ties go
  // to the lowest id. An object already in the plan lives where its last
  // planned move put it.
  std::vector<planned_move> plan;
  const auto planned_home = [&](std::uint32_t object) {
    for (auto m = plan.rbegin(); m != plan.rend(); ++m) {
      if (m->object == object) return m->to;
    }
    return homes[object];
  };
  const std::size_t n = std::min(sum_.size(), homes.size());
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
    for (std::size_t id = 0; id < n; ++id) {
      const std::uint64_t w = sum_[id];
      if (w == 0 || w >= gap) continue;  // must strictly narrow the gap
      if (w <= best_w && found) continue;
      if (id < frozen.size() && frozen[id]) continue;
      const auto object = static_cast<std::uint32_t>(id);
      if (planned_home(object) != hot) continue;
      best_obj = object;
      best_w = w;
      found = true;
    }
    if (!found) break;

    plan.push_back({best_obj, hot, cold});
    load[static_cast<std::size_t>(hot)] -= best_w;
    load[static_cast<std::size_t>(cold)] += best_w;
  }
  return plan;
}

}  // namespace detect::serve
