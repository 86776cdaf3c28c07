// Durable-linearizability + detectability verdict checker.
//
// Translates a raw event log into operation records and hands them to the
// linearizability checker, encoding the two correctness conditions the paper
// targets (§2, §6):
//
//  * Durable linearizability — ops that completed before a crash are
//    mandatory; ops pending at a crash (or at the end of the run) that were
//    never resolved by recovery are optional; the surviving history must
//    linearize.
//  * Detectability — a recovery verdict of `fail` asserts "not linearized":
//    the op is excluded, so if its effect was in fact observed by anyone the
//    remaining history cannot linearize and the checker reports a violation.
//    A verdict of `linearized(v)` asserts "linearized exactly once with
//    response v": the op becomes mandatory with response v.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "history/linearizer.hpp"
#include "history/log.hpp"

namespace detect::hist {

inline constexpr std::size_t k_default_node_budget = 4'000'000;

struct check_result {
  bool ok = false;
  bool inconclusive = false;  // node budget exhausted
  std::size_t nodes = 0;      // linearizer nodes expanded (summed per object)
  /// Checker-path observations (coverage-bucket food for the fuzzer):
  /// how many per-object sub-checks ran (0 for the product-spec path, so
  /// `objects > 1` means the decomposition was genuinely taken), and whether
  /// build_records synthesized a recovery-window interval for an op whose
  /// invoke was lost to an announcement-window crash.
  std::size_t objects = 0;
  bool synthesized_interval = false;
  /// Per-object path only: the object id `message` reports (the worst
  /// offender — see check_durable_linearizability_per_object), -1 when the
  /// check passed or did not take the per-object path. Lets callers (the
  /// sharded executor, serve triage) annotate the failure without parsing
  /// the message.
  std::int64_t failed_object = -1;
  std::string message;
};

/// Convert an event log into checkable op records. Records whose recovery
/// verdict is `fail` are excluded (see header comment). Throws on malformed
/// logs (e.g. response without invoke). `synthesized_interval`, when
/// non-null, is set to true iff some record's interval had to be synthesized
/// from recovery events (announcement-window crash; see the comment inside).
std::vector<op_record> build_records(const std::vector<event>& events,
                                     bool* synthesized_interval = nullptr);

/// Full pipeline: build records, check against the spec.
check_result check_durable_linearizability(
    const std::vector<event>& events, const spec& initial,
    std::size_t node_budget = k_default_node_budget);

/// The objects of a history with their sequential specs, by object id (specs
/// are borrowed; they are cloned internally, never mutated).
using object_spec_list = std::vector<std::pair<std::uint32_t, const spec*>>;

/// The `to` of a stay still under way at the end of its history.
inline constexpr std::size_t k_open = static_cast<std::size_t>(-1);

/// One stretch of an object's life in one history: the positions [from, to)
/// during which the object lived there. project() appends to `*events` the
/// object's own op events of the stretch and every crash of that history
/// under way during it: the crashes are the object's failure epochs.
struct stay {
  std::uint32_t id = 0;
  std::size_t from = 0;
  std::size_t to = k_open;
  std::vector<event>* events = nullptr;
};

/// The per-object projection, in one walk of a history: each op event goes
/// to its object's open stay (the latest one begun), each crash to every
/// stay under way. One object's stays in one history never overlap and
/// hold all its op events there; an op event of an object with no stay
/// begun is dropped. Every backend's check cuts its history into
/// per-object streams this way.
void project(const log& history, std::vector<stay> stays);
void project(const std::vector<event>& history, std::vector<stay> stays);

/// Cross-run memo for per-object sub-checks. The differ replays one scenario
/// many times (single vs sharded, placement variants, per-object kind
/// substitutions); most replays produce byte-identical per-object event
/// streams for most objects, so their linearizations are pure repeats. The
/// memo keys each sub-check on a 128-bit fingerprint of (spec dynamic type,
/// spec serialized state, node budget, the object's projected event stream)
/// and returns the recorded verdict on a hit. Fingerprints are compared, not
/// the streams themselves — two independent 64-bit multiply-xorshift
/// streams, one step per 64-bit field, make an accidental collision
/// vanishingly unlikely against the thousands of sub-checks a fuzz campaign
/// runs, and streams that differ in one field never collide.
///
/// Externally synchronized for the parallel driver: lookup()/store() take an
/// internal mutex, so one memo may be shared across the concurrent sub-check
/// lanes of a jobs > 1 check (and across whole concurrent checks). Two lanes
/// that race on the same fingerprint at worst both compute it and store
/// byte-identical results — a benign duplicate, never a wrong answer,
/// because entries are pure functions of their key.
class lin_memo {
 public:
  lin_memo() = default;
  lin_memo(const lin_memo&) = delete;
  lin_memo& operator=(const lin_memo&) = delete;

  std::size_t hits() const noexcept {
    std::scoped_lock lock(mu_);
    return hits_;
  }
  std::size_t misses() const noexcept {
    std::scoped_lock lock(mu_);
    return misses_;
  }
  std::size_t size() const noexcept {
    std::scoped_lock lock(mu_);
    return entries_.size();
  }

  /// The 128-bit fingerprint (implementation detail, public so the checker's
  /// hashing helper can produce one; the entry map itself stays private).
  struct key {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const key& o) const noexcept {
      return lo == o.lo && hi == o.hi;
    }
  };
  struct key_hash {
    std::size_t operator()(const key& k) const noexcept {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL));
    }
  };

  /// Checker-internal: copy the recorded verdict for `k` into `*out` and
  /// count a hit; false (and no count) on a miss.
  bool lookup(const key& k, check_result* out);
  /// Checker-internal: record a freshly computed verdict and count the
  /// compute as a miss. First store of a racing pair wins; the loser's
  /// byte-identical result is dropped.
  void store(const key& k, const check_result& r);

 private:
  mutable std::mutex mu_;
  std::unordered_map<key, check_result, key_hash> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Knobs of a durable-linearizability check, threaded as one struct through
/// executor::check → harness::check_per_object → the hist driver (and
/// api::replay / the differ's variant families) instead of a growing
/// positional parameter list. Designated initializers keep call sites
/// self-describing: `check({.node_budget = 1'000'000, .jobs = 4})`.
struct check_options {
  std::size_t node_budget = k_default_node_budget;
  /// Shared fingerprint cache for per-object sub-checks (see lin_memo).
  lin_memo* memo = nullptr;
  /// Memory-model tag mixed into every lin_memo fingerprint — callers that
  /// share one memo across replays under different (visibility, persist)
  /// pairs set it so a verdict recorded under one model pair can never
  /// satisfy a lookup under another. Two model pairs can produce
  /// byte-identical projected event streams for an object while the
  /// surrounding run differs, and a memo keyed on the stream alone would
  /// silently launder the sc verdict into the tso check. api::replay packs
  /// (visibility << 8 | persist) here; 0 is the pre-model-salt legacy value.
  std::uint64_t model_salt = 0;
  /// Per-object sub-check fan-out. 1 (default) runs sub-checks serially on
  /// the calling thread. N > 1 drives them on N lanes of the process-global
  /// util::task_pool — the pool grows to N real workers even on a one-core
  /// host, so an explicit request always exercises true concurrency.
  /// 0 = auto: min(hardware cores, object count), which collapses to inline
  /// serial when the host cannot actually run two lanes at once. Verdicts,
  /// messages, and node counts are byte-identical across every jobs value
  /// (results merge in declaration order; see docs/checking.md).
  int jobs = 1;
};

/// Per-object decomposition: run one linearization per object against its own
/// spec instead of one search against the product spec. Sound and complete —
/// linearizability is compositional, and every real-time edge between two ops
/// of the same object survives the projection — while the search space drops
/// from the product of all objects' interleavings to their sum. Events naming
/// an object absent from `specs` fail the check. Every object is checked
/// (`nodes` sums over all of them; each gets the full node budget); on
/// failure the message names the *worst offender* — the failing object whose
/// own sub-check expanded the most nodes, ties broken toward the smallest
/// object id — a deterministic choice regardless of `opt.jobs`.
check_result check_durable_linearizability_per_object(
    const std::vector<event>& events, const object_spec_list& specs,
    const check_options& opt);

/// One object's pre-projected sub-history with its spec — what the sharded
/// executor assembles from its shard logs (the object's stays on each shard,
/// joined in order), where no single event vector exists to project from.
struct object_stream {
  std::uint32_t id = 0;
  const spec* sp = nullptr;  // borrowed; cloned internally, never mutated
  std::vector<event> events;
};

/// The same parallel driver over pre-projected streams: one independent
/// linearization per stream, fanned out per `opt.jobs`, merged in `streams`
/// order with the worst-offender failure rule above.
check_result check_object_streams(const std::vector<object_stream>& streams,
                                  const check_options& opt);

}  // namespace detect::hist
