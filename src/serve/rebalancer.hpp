// detect::serve::rebalancer — the hot-shard control loop's planning brain.
//
// The server feeds it one observation per batch round: how many ops each
// object executed. The rebalancer keeps a sliding window of those
// observations as one running per-object sum — each round adds its counts
// and subtracts those of the round leaving the window — and, every
// `check_every` rounds, folds the sum into a per-shard load vector under the
// current object→shard assignment. Object ids index every table (the
// server's ids are dense), so an evaluation costs one pass over the objects
// however many rounds the window holds. When the
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
#include <utility>
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

  /// Record one finished batch round's executed-op counts, indexed by
  /// object id.
  void record_round(const std::vector<std::uint64_t>& object_ops);

  /// The window's per-shard load under `homes` (object id → current shard).
  /// Objects past the end of `homes`, or homed outside [0, shards), are
  /// ignored.
  std::vector<std::uint64_t> window_load(const std::vector<int>& homes) const;

  /// Evaluate after record_round(). Returns a (possibly empty) move plan;
  /// non-empty only when enabled, the evaluation cadence is due, and the
  /// imbalance has been sustained. Objects set in the `frozen` mask (e.g.
  /// with queued but unscripted ops, which must not change home) are never
  /// planned; objects past its end are not frozen.
  std::vector<planned_move> maybe_plan(const std::vector<int>& homes,
                                       const std::vector<bool>& frozen = {});

  /// The ratio computed by the last evaluation (0.0 before any).
  double last_ratio() const noexcept { return last_ratio_; }

 private:
  rebalance_policy pol_;
  int shards_;
  /// The window's rounds, each as its (object, ops) entries with ops > 0 —
  /// what record_round() subtracts from `sum_` when the round leaves.
  std::deque<std::vector<std::pair<std::uint32_t, std::uint64_t>>> window_;
  std::vector<std::uint64_t> sum_;  // per object: ops over the window
  std::uint64_t rounds_seen_ = 0;
  int hot_streak_ = 0;
  double last_ratio_ = 0.0;
};

}  // namespace detect::serve
