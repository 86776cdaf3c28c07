// differ — differential replay of one generated scenario across its variant
// family.
//
// A scenario's variant family is every replay the oracle derives from it by
// perturbing one dimension: the other shard layout (single vs sharded), the
// three parameter-free placement policies (modulo, hash, range), and one
// declared object's kind substituted by another implementation of the same
// opcode family — the paper's core algorithms ("reg", "cas", ...), the
// unbounded-identifier baselines ("attiya_reg", "bendavid_cas"), the nrl
// adapter, and the non-detectable plain_*/stripped_* variants. One internal
// driver replays a family: a single check memo serves all of its replays,
// and a scenario that two stages both name is replayed once.
//
// Every comparison of two family members diffs:
//
//   * run health — neither replay may hit the step limit;
//   * checker verdicts — both executions must be durably linearizable
//     against the objects' sequential specs;
//   * exact response streams — only where both replays are deterministic
//     and the same execution: a kind substitution compares them on
//     single-process crash-free scenarios; a shard layout or placement
//     change on single-object scenarios without migrations, or with
//     migrations but one process and no crash plan (the post-migration
//     round meets shard-local crash steps and, with several processes, a
//     fresh announcement board that shifts the seeded schedule).
//     Multi-object scenarios genuinely split across shard worlds, so there
//     the oracle is verdict equivalence, which exercises the merged-log and
//     per-object decomposition paths.
//
// Crash semantics only compare where every object honors the detectability
// contract: when the substituted variant or any declared object is
// non-detectable (plain_*, stripped_* — the Theorem-2 regime where verdicts
// can be wrong by construction), both replays of a kind substitution run
// crash-free (same scenario minus the crash plan).
#pragma once

#include <string>
#include <vector>

#include "api/api.hpp"

namespace detect::fuzz {

struct diff_report {
  bool ok = true;
  std::string message;  // first divergence, empty when ok
};

/// The registry kinds `kind` is differentially checked against: same opcode
/// family, distinct implementation. Kinds without a counterpart (max_reg,
/// lock, ...) return an empty list.
std::vector<std::string> variants_of(const std::string& kind);

/// Replay `s` as declared and with object `object_id`'s kind substituted by
/// `variant_kind` (the other objects stay put); diff as described above.
/// `variant_kind` may be any registered kind of the family, including ones
/// variants_of does not list. Throws std::invalid_argument if `object_id`
/// is undeclared or the kinds' families differ.
diff_report diff_against(const api::scripted_scenario& s,
                         std::uint32_t object_id,
                         const std::string& variant_kind);

/// Same, substituting the first declared (primary) object.
diff_report diff_against(const api::scripted_scenario& s,
                         const std::string& variant_kind);

/// Full per-scenario oracle the fuzzer, shrinker, and `fuzz_main --replay`
/// share. Empty on success, else the first failure. Stages, in order:
///
///   1. primary — the scenario's own replay must finish within the step
///      budget and pass the durable-linearizability + detectability check;
///   2. sharded — whenever `s.shards > 1` on the single or sharded backend,
///      the single vs sharded(`s.shards`) equivalence diff (part of the base
///      oracle, so the shrinker preserves it);
///   3. placement — when `placement` is set and `s.shards > 1`, the sharded
///      replays under modulo vs hash vs range must agree (the
///      `--placement-equiv` campaign mode);
///   4. variants — when `diff` is set, every variants_of kind of every
///      declared object, substituted one at a time.
///
/// `replays`, when set, is bumped per replay performed (campaign
/// accounting). `primary_out`, when set, receives the outcome of the
/// scenario's own replay — the coverage layer's bucket food. `check_jobs` is
/// the per-object checker fan-out threaded (as hist::check_options) into
/// every replay of the family — verdict-identical to serial by the parallel
/// driver's determinism guarantee.
std::string check_scenario(const api::scripted_scenario& s, bool diff = true,
                           std::uint64_t* replays = nullptr,
                           api::scripted_outcome* primary_out = nullptr,
                           bool placement = false, int check_jobs = 1);

}  // namespace detect::fuzz
