// coverage — the fuzz campaign's feedback signal.
//
// Every executed scenario is abstracted into a `bucket_signature`: the
// coarse coordinates of what the execution exercised — the set of object
// kinds, the per-family opcode mix, backend and shard count, the placement
// policy kind and whether a migration plan ran, how deep the crash plan
// actually struck, and the checker-path bits (per-object decomposition
// genuinely taken, recovery-window interval synthesis triggered). Two scenarios with the same
// signature stress the same region of the state space; a campaign that only
// counts iterations cannot tell them apart, a campaign that counts buckets
// can.
//
// `coverage_map` is the campaign-side accumulator: it records signatures,
// answers novelty queries, and keeps the (executed, distinct) timeline that
// `coverage.json` reports as the new-bucket rate. The signature splits into
// a scenario-derived prefix (`scenario_key`, predictable before running) and
// outcome bits — steering mutates corpus seeds until the predictable prefix
// is one the campaign has not seen, which is what pushes generation toward
// unexplored (kinds, backend, shards, crash, op-mix) combinations instead of
// re-rolling the common ones.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"

namespace detect::fuzz {

struct bucket_signature {
  // Scenario-derived (predictable before the run). Deliberately exactly the
  // ISSUE's coordinates — knobs like retry/shared-cache are NOT part of the
  // signature: every extra independent dimension multiplies the bucket
  // space, and a space no campaign can saturate steers nothing.
  std::string kinds;    // sorted unique declared kind names, '+'-joined
  std::string op_mix;   // "<family>*|~" per family touched (full/partial mix)
  std::string backend;  // execution backend of the scenario itself
  int shards = 1;
  std::string placement = "modulo";  // placement policy kind (pins elided)
  bool migrated = false;             // scenario carries a migration plan
  // Model-axis coordinates (scenario-derived, so steerable), filled and
  // keyed from the axis table (axes.hpp). Each model combination is its own
  // scenario-key region, so steering pushes campaigns toward unexplored
  // combinations instead of re-rolling (uniform_random, strict, sc).
  std::string sched = "uniform_random";  // schedule strategy name
  int preempt_bucket = 0;  // min(pct preemption points, 3) — 0 for non-pct
  std::string persist = "strict";  // persistency model name
  std::string vis = "sc";          // visibility model name
  // Outcome-derived (observed from the replay).
  int crash_phase = 0;  // min(crashes actually delivered, 3) — 0 = none
  // min(max store-buffer depth the run ever reached, 3) — 0 under sc (and
  // for tso/pso runs whose buffers never held a store). How hard the run
  // actually leaned on delayed visibility, not just which model was armed.
  int pending_bucket = 0;
  bool recovery_seen = false;       // some recovery round ran
  bool decomposed = false;          // per-object decomposition over > 1 object
  bool synthesized_interval = false;  // announcement-window interval synthesis
  bool lost_persistence = false;  // a crash discarded buffered stores — a
                                  // crash state strict mode can never reach

  /// The scenario-derived prefix — what steering can aim at before running.
  std::string scenario_key() const;
  /// The full bucket id (scenario prefix + outcome bits).
  std::string key() const;
};

/// The scenario-derived half of the signature (outcome bits defaulted).
bucket_signature scenario_signature(const api::scripted_scenario& s);

/// The full signature of one executed scenario.
bucket_signature bucket_of(const api::scripted_scenario& s,
                           const api::scripted_outcome& out);

class coverage_map {
 public:
  /// Record one executed scenario's signature. Returns true when its full
  /// bucket is novel.
  bool record(const bucket_signature& b);

  /// The key() of the signature record() saw last, built once per record.
  const std::string& last_key() const { return last_key_; }

  /// Has any recorded scenario carried this scenario_key()?
  bool seen_scenario(const std::string& scenario_key) const {
    return buckets_under_.count(scenario_key) != 0;
  }

  /// Distinct full buckets recorded under this scenario_key() — steering's
  /// preference order: 0 means the key itself is unexplored, small counts
  /// mean its outcome dimensions (crash phase, recovery, checker paths)
  /// still have room.
  std::size_t buckets_under(const std::string& scenario_key) const {
    auto it = buckets_under_.find(scenario_key);
    return it == buckets_under_.end() ? 0 : it->second;
  }

  std::uint64_t executed() const { return executed_; }
  std::size_t distinct() const { return buckets_.size(); }

  /// (executed-so-far, distinct-so-far), one sample per novel bucket — the
  /// new-bucket rate over time.
  const std::vector<std::pair<std::uint64_t, std::size_t>>& timeline() const {
    return timeline_;
  }

 private:
  std::set<std::string> buckets_;
  // per scenario_key; transparent, so a key's prefix is looked up in place
  std::map<std::string, std::size_t, std::less<>> buckets_under_;
  std::string last_key_;
  std::uint64_t executed_ = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> timeline_;
};

}  // namespace detect::fuzz
