// Replayable scripted scenarios — the serialization half of the detect::api
// façade.
//
// A `scripted_scenario` is a fully self-contained run recipe over a set of
// registry objects: an ordered list of (object id, kind, params)
// declarations, process count, fail policy, memory model, scheduler seed,
// crash plan, execution backend + shard count + placement policy, an
// optional migration plan, and the per-process op scripts whose ops each
// name a target object id. `replay()` builds a fresh executor for it and
// runs it to completion, so the same value always reproduces the same
// execution — the currency the fuzzer generates, diffs, shrinks, and dumps.
// On the sharded backend the declared ids and declaration order feed the
// placement policy, so a multi-object scenario drives the cross-shard
// routing and merged-log paths directly. A scenario with migrations runs in
// two rounds: the scripts once, then (on the sharded backend) each
// `migrate` step, then the same scripts again — the post-migration round
// exercises the transplanted state.
//
// `dump()`/`parse_scenario()` round-trip scenarios through a line-oriented
// text form (format v6, which adds `visibility` and `drain_steps` lines; v5
// dumps parse with visibility sc and no drain steps, v4 and older dumps
// additionally without sched/persist/placement/migrate lines, and v1/v2
// dumps, which carry a single `kind`/`params` pair instead of `object`
// lines, still parse as the single-object special case). Failing fuzz runs
// are persisted as these dumps and replayed with `fuzz_main --replay`.
//
// `family_opcodes()` exposes each opcode family's invocable op set so
// generators can randomize over a kind's full op mix instead of hand-coding
// per-family scripts the way `smoke_script` does.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/harness.hpp"
#include "api/registry.hpp"
#include "history/checker.hpp"

namespace detect::api {

/// One declared object of a scenario: the id scripts target (and shards
/// route on), the registry kind instantiated under it, and its params.
struct scenario_object {
  std::uint32_t id = 0;
  std::string kind;
  object_params params;

  bool operator==(const scenario_object&) const = default;
};

/// A replayable run recipe: an ordered list of registry objects plus
/// everything the executor builder and runtime need to reproduce the
/// execution bit-for-bit.
struct scripted_scenario {
  /// Declared objects, in declaration order. Never empty for a valid
  /// scenario; v1/v2 dumps parse to exactly one entry with id 0.
  std::vector<scenario_object> objects;
  int nprocs = 2;
  core::runtime::fail_policy policy = core::runtime::fail_policy::skip;
  bool shared_cache = false;
  std::uint64_t sched_seed = 0;
  /// Schedule-exploration strategy `sched_seed` drives (see detect::sched).
  /// v4 and older dumps carry no `sched` key and parse as uniform_random —
  /// exactly the scheduler those replays always used.
  sched::sched_policy sched;
  /// Persistency-visibility model; dumps predating v5 parse as strict.
  nvm::persist_model persist = nvm::persist_model::strict;
  /// Store-buffer visibility model between live processes (sc / tso / pso;
  /// see wmm::visibility_model); dumps predating v6 parse as sc — exactly
  /// the interleaving semantics those replays always had. Orthogonal to
  /// `persist`: a buffered store drains (becomes globally visible) before
  /// it persists or journals.
  wmm::visibility_model visibility = wmm::visibility_model::sc;
  /// Scripted full-drain steps under tso/pso (sim::world_config's
  /// drain_points, keyed on the shard-local step counter like crash_steps).
  /// Meaningless — and kept empty by the generator/shrinker — under sc.
  std::vector<std::uint64_t> drain_steps;
  std::vector<std::uint64_t> crash_steps;
  /// Which execution backend replays this scenario. Dumps predating the
  /// executor redesign carry neither field and parse as single/1.
  exec_backend backend = exec_backend::single;
  /// Shard count: the sharded backend's world count when backend == sharded,
  /// and the shard count fuzz::check_scenario's sharded stage replays the
  /// scenario under for the single-vs-sharded equivalence diff otherwise
  /// (1 = no sharded diff).
  int shards = 1;
  /// Shard-placement policy (see api/placement.hpp). Semantics-invariant by
  /// design: fuzz::check_scenario's placement stage replays scenarios under
  /// several policies and requires identical verdicts. v3 and older dumps
  /// parse as modulo.
  placement_policy placement;
  /// Migration plan, applied between the two script rounds on the sharded
  /// backend (skipped, as the semantic no-op it is, on one-world backends so
  /// cross-backend diffs stay comparable). Ordered (object id, target
  /// shard).
  std::vector<std::pair<std::uint32_t, int>> migrations;
  /// Per-process op scripts; each op's `object` field names a declared id.
  std::map<int, std::vector<hist::op_desc>> scripts;

  /// The first declared object — what single-object scenarios (and the
  /// campaign's per-iteration kind rotation) revolve around. Throws
  /// std::logic_error on an object-less scenario.
  const scenario_object& primary() const;

  /// The declaration of `id`, or nullptr when undeclared.
  const scenario_object* find_object(std::uint32_t id) const;

  /// Declare a new object under the smallest unused id; returns that id.
  std::uint32_t add_object(std::string kind, object_params params = {});

  /// Total scripted ops across all processes.
  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& [pid, ops] : scripts) n += ops.size();
    return n;
  }

  bool operator==(const scripted_scenario&) const = default;
};

struct scripted_outcome {
  sim::run_report report;
  hist::check_result check;
  std::vector<hist::event> events;
  /// hist::format_log(events), filled by replay() (and by
  /// fuzz::check_scenario for its `primary_out`); replay_unformatted()
  /// leaves it empty.
  std::string log_text;
};

/// Build an executor for `s` (instantiating every declared object from the
/// registry under its declared id on `s.backend`), install the scripts, run,
/// and check. Sharded scenarios run their shards inline, in order, on the
/// calling thread (pool_threads(1)); the shared driver pool is never woken.
/// The check knobs: node budget, a shared per-object check memo (the differ
/// threads one through a scenario's whole variant family so identical
/// object histories linearize once), and the per-object fan-out (`jobs` —
/// see hist::check_options).
/// Throws std::invalid_argument on scenarios whose ops target undeclared
/// objects.
scripted_outcome replay(const scripted_scenario& s,
                        const hist::check_options& opt = {});

/// `replay` without its last step: `log_text` stays empty. For callers that
/// replay many scenarios and read the text of few (the differ's variant
/// families); `replay(s, opt)` is this followed by
/// `hist::format_log(events)`.
scripted_outcome replay_unformatted(const scripted_scenario& s,
                                    const hist::check_options& opt = {});

/// Line-oriented text form (v6); `parse_scenario(dump(s))` round-trips
/// exactly.
std::string dump(const scripted_scenario& s);

/// Inverse of `dump`; also accepts v5 dumps (no visibility/drain_steps
/// lines → sc, no drains), v4 dumps (additionally no sched/persist lines →
/// uniform_random/strict), v3 dumps (no placement/migrate lines → modulo,
/// no migrations) and v1/v2 dumps (single `kind`/`params` pair → one object
/// with id 0). Throws std::invalid_argument on malformed input, duplicate
/// object ids, or ops/migrations targeting an undeclared object — the
/// message carries the 1-based line and the offending token.
scripted_scenario parse_scenario(const std::string& text);

/// The invocable opcodes of a family — the alphabet generators draw from.
const std::vector<hist::opcode>& family_opcodes(op_family family);

const char* family_name(op_family family) noexcept;

/// Inverse of opcode_name(). Throws std::invalid_argument on unknown names.
hist::opcode opcode_from_name(const std::string& name);

const char* fail_policy_name(core::runtime::fail_policy p) noexcept;
core::runtime::fail_policy fail_policy_from_name(const std::string& name);

}  // namespace detect::api
