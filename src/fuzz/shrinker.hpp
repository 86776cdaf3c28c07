// shrinker — greedy minimization of failing scenarios.
//
// Given a scenario and a predicate that reports "still fails", repeatedly
// try structure-removing edits and keep every edit that preserves the
// failure, until a whole round makes no progress (or the round budget is
// exhausted). The edit order goes coarse to fine so big cuts land first:
//
//   0. canonicalize the model axes (axes.hpp) to their shrink targets
//      (round_robin, strict, sc), then drop their points (drain steps,
//      then pct preemptions) one at a time — a failure that survives on the
//      canonical models is model-independent and every later pass explores
//      the simpler artifact; one that does not keeps only the points it
//      actually needs,
//   1. drop whole per-process scripts (and renumber pids densely),
//   2. chop op-suffix halves, then individual ops, then migration steps
//      (individually and the whole plan — that also drops the second script
//      round),
//   3. drop crash steps,
//   4. simplify knobs (placement → modulo, retry → skip, shared_cache →
//      private, sharded backend → single, shards → 1),
//   5. zero op argument values.
//
// Every candidate is produced deterministically from the current scenario,
// so a shrink of the same failure always yields the same minimal scenario —
// the seed + dump pair that lands in the CI failure artifact.
#pragma once

#include <functional>

#include "api/api.hpp"

namespace detect::fuzz {

/// "Does this scenario still exhibit the failure?" Must be deterministic.
using fail_predicate = std::function<bool(const api::scripted_scenario&)>;

/// Greedily minimize `s` under `fails` (which must hold for `s` itself —
/// otherwise `s` is returned unchanged). `max_rounds` bounds the number of
/// full fixpoint iterations.
api::scripted_scenario shrink(api::scripted_scenario s,
                              const fail_predicate& fails, int max_rounds = 8);

}  // namespace detect::fuzz
