// detect::serve::rebalancer — the hot-shard control loop's planning brain.
//
// The server feeds it one observation per batch round: how many ops each
// object executed. The rebalancer keeps a sliding window of those
// observations and, every `check_every` rounds, folds the window into a
// per-shard load vector under the current object→shard assignment. When the
// imbalance (api::load_ratio — max/ideal) stays at or above `hot_ratio` for
// `sustain` consecutive evaluations, it plans a greedy repair: move the
// hottest objects off the hottest shard onto the coldest one, each move
// accepted only if it strictly shrinks the gap between them.
//
// The class is pure bookkeeping — it never touches the executor. The server
// applies the returned plan with executor::migrate() between batch rounds
// (the only point where shards are quiescent) and logs every move into
// serve::stats. Keeping planning separate from actuation makes the trigger
// logic unit-testable with synthetic load shapes, no worlds required.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "api/placement.hpp"

namespace detect::serve {

struct rebalance_policy {
  bool enabled = false;
  /// Rounds of load history folded into each evaluation.
  int window = 8;
  /// Evaluate (and possibly plan) every N rounds.
  int check_every = 8;
  /// Trigger threshold on api::load_ratio (1.0 = perfect spread, K = all
  /// load on one shard of K).
  double hot_ratio = 1.5;
  /// Consecutive hot evaluations required before a plan fires — one noisy
  /// window never moves anything.
  int sustain = 2;
  /// Cap on moves per fired plan.
  int max_moves = 4;
};

struct planned_move {
  std::uint32_t object = 0;
  int from = 0;
  int to = 0;
};

class rebalancer {
 public:
  rebalancer(rebalance_policy pol, int shards)
      : pol_(pol), shards_(shards) {}

  const rebalance_policy& policy() const noexcept { return pol_; }

  /// Record one finished batch round's per-object executed-op counts.
  void record_round(const std::map<std::uint32_t, std::uint64_t>& object_ops);

  /// The window's per-shard load under `homes` (object → current shard).
  /// Objects missing from `homes` are ignored.
  std::vector<std::uint64_t> window_load(
      const std::map<std::uint32_t, int>& homes) const;

  /// Evaluate after record_round(). Returns a (possibly empty) move plan;
  /// non-empty only when enabled, the evaluation cadence is due, and the
  /// imbalance has been sustained. Objects in `frozen` (e.g. with queued
  /// but unscripted ops, which must not change home) are never planned.
  std::vector<planned_move> maybe_plan(
      const std::map<std::uint32_t, int>& homes,
      const std::vector<std::uint32_t>& frozen = {});

  /// The ratio computed by the last evaluation (0.0 before any).
  double last_ratio() const noexcept { return last_ratio_; }

 private:
  rebalance_policy pol_;
  int shards_;
  std::deque<std::map<std::uint32_t, std::uint64_t>> window_;
  std::uint64_t rounds_seen_ = 0;
  int hot_streak_ = 0;
  double last_ratio_ = 0.0;
};

}  // namespace detect::serve
