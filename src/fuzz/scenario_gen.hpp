// scenario_gen — deterministic registry-driven workload synthesis.
//
// Given a seed and a primary registry kind, synthesize a multi-process,
// multi-object op script: object count and kinds (primary kind as object 0,
// extra objects drawn from `object_kind_pool`), per-process op mix with
// per-op target objects, crash points, scheduler seed, fail policy,
// flush/memory-model policy, shard count, and execution backend are all
// derived from the seed through one xorshift64* stream, so the same
// (seed, kind, config) triple always yields the identical scenario —
// `fuzz_main --seed S` reproduces any run bit-for-bit.
//
// Argument domains are deliberately tiny (values 0..7) so CAS expectations
// collide, queue/stack runs hit both the non-empty and k_empty paths, and
// the checker's search stays tractable.
//
// Kinds with usage contracts are generated within them: the recoverable
// lock's recovery is only sound when a client never invokes try_lock while
// possibly holding (rlock.hpp), so lock scripts alternate try/release per
// (process, object) and crashy lock scenarios use fail_policy::retry.
//
// `mutate()` is the coverage-steered campaign's other generation mode: a
// structural edit of an existing (corpus) scenario — flip a knob, add or
// drop an object, retarget or rewrite an op — followed by a contract-repair
// pass, so mutants stay inside the same usage contracts `generate()`
// enforces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/api.hpp"

namespace detect::fuzz {

struct gen_config {
  int min_procs = 1;
  int max_procs = 3;
  /// Per-process script length bounds.
  int min_ops = 1;
  int max_ops = 8;
  /// Crash plan: up to `max_crashes` crash points uniformly below step 160.
  /// Ignored (no crashes generated) when `crashes` is false — non-detectable
  /// kinds are only meaningful crash-free. A quarter of the scenarios draw
  /// fail_policy::retry (detectable kinds only), and a quarter the
  /// shared-cache memory model.
  bool crashes = true;
  int max_crashes = 3;
  /// Argument domain for generated op values: 0 .. value_range-1.
  hist::value_t value_range = 8;
  /// Sharded-equivalence knob: scenarios draw `shards` from
  /// [min_shards, max_shards] out of the same xorshift stream (when
  /// min_shards == 1 a coin first keeps about half of them unsharded);
  /// fuzz::check_scenario's sharded stage then replays single vs sharded for
  /// every scenario with shards > 1. max_shards <= 1 disables the knob
  /// entirely.
  int min_shards = 1;
  int max_shards = 4;
  /// Multi-object knob: scenarios declare between min_objects and
  /// max_objects objects — object 0 is the primary kind, extras draw their
  /// kinds from `object_kind_pool`. An empty pool disables the knob
  /// (single-object scenarios only), which keeps `generate(seed, kind)`
  /// deterministic against later registry additions; campaign drivers fill
  /// the pool from their configured kind list. When min_objects == 1 a coin
  /// keeps about half of the scenarios single-object.
  int min_objects = 1;
  int max_objects = 4;
  std::vector<std::string> object_kind_pool;
  /// Let scenarios with shards > 1 run directly on the sharded backend for
  /// about a quarter of the draws (the rest keep backend single, where the
  /// shard knob feeds the single-vs-sharded equivalence diff instead).
  bool allow_sharded_backend = true;
  /// Placement knob: scenarios with shards > 1 draw a placement policy from
  /// the same xorshift stream (modulo/hash/range, plus pinned with explicit
  /// per-object pins). Empty = draw freely; a placement name pins every
  /// generated scenario to that policy (fuzz_main --placement). "none"
  /// disables the knob (every scenario keeps modulo).
  std::string placement;
  /// Migration knob: crash-free sharded-backend scenarios draw a small
  /// migration plan (run, migrate, run the scripts again) for about a
  /// quarter of the draws. Crashy scenarios never carry migrations — the
  /// second script round would see different (shard-local) crash schedules
  /// on the two sides of the cross-backend diffs.
  bool allow_migrations = true;
  /// Model-axis pools (axes.hpp): each scenario draws its schedule strategy,
  /// persistency model and visibility model uniformly from these lists. A
  /// pool holding only its default draws nothing, which keeps historical
  /// seed streams byte-identical. A "pct" draw also picks a preemption
  /// budget in [1, pct_depth], and a tso/pso draw up to three scripted
  /// full-drain points, over the scenario's expected step horizon.
  std::vector<std::string> sched_pool{"uniform_random"};
  int pct_depth = 3;
  std::vector<std::string> persist_pool{"strict"};
  std::vector<std::string> visibility_pool{"sc"};
};

/// One random operation for `family`, drawn from family_opcodes(). `pid` is
/// threaded through because lock operations carry the caller's pid.
hist::op_desc random_op(std::uint64_t& rng, api::op_family family, int pid,
                        const gen_config& cfg);

/// Synthesize the full scenario for primary kind `kind` from `seed`. The
/// declared objects' detectability (registry metadata) gates crash
/// injection: a scenario containing any non-detectable object (plain_*,
/// stripped_*) is generated crash-free regardless of `cfg.crashes`.
api::scripted_scenario generate(std::uint64_t seed, const std::string& kind,
                                const gen_config& cfg = {});

/// One structural mutation of `base` drawn from `rng` (knob flip, crash
/// edit, object add/drop, op retarget/rewrite/append), contract-repaired so
/// the result is as replayable as a generated scenario. Deterministic in
/// (base, rng state, cfg).
api::scripted_scenario mutate(const api::scripted_scenario& base,
                              std::uint64_t& rng, const gen_config& cfg);

/// Contract-repair pass shared by generate() and mutate(): clears the crash
/// plan when any object is non-detectable, forces fail_policy::retry on
/// crashy lock scenarios, repairs per-(process, object) try/release
/// alternation, de-degenerates Cas(x, x) ops, drops migration plans from
/// crashy scenarios (and ones that no longer fit the shard count), and
/// balances lock scripts (ending not-holding) when a migration plan makes
/// the scripts run twice.
void enforce_contracts(api::scripted_scenario& s);

/// The seed of iteration `iter` in a fuzz campaign starting at `base_seed`
/// (splitmix64 step — decorrelates consecutive iterations).
std::uint64_t iteration_seed(std::uint64_t base_seed, std::uint64_t iter);

}  // namespace detect::fuzz
