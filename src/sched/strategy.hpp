// detect::sched — pluggable schedule-exploration strategies for the
// simulated world.
//
// Every fuzz iteration used to explore interleavings through one uniform
// `sim::random_scheduler`. This layer turns the scheduling policy into a
// first-class, serializable knob:
//
//   * round_robin    — deterministic rotation (the unseeded default).
//   * uniform_random — each step picks uniformly among runnable processes
//     (the historical seeded behavior, refactored behind the interface).
//   * pct            — probabilistic concurrency testing (Burckhardt et al.):
//     every process gets a random priority from the seed stream and the
//     highest-priority runnable process runs; at each of d preemption points
//     (explicit global step numbers) the running process is demoted below
//     everyone else. A bug that needs d carefully placed preemptions is hit
//     with probability ~1/(n·k^d) per seed — far better than uniform random,
//     whose chance of sustaining d long adversarial gaps decays
//     exponentially.
//
// The preemption points are materialized in `sched_policy` (not re-derived
// from the seed at run time) so replays are self-contained and the shrinker
// can canonicalize a repro by dropping points one at a time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace detect::sched {

enum class strategy : std::uint8_t { round_robin, uniform_random, pct };

/// Stable wire name ("round_robin", "uniform_random", "pct").
const char* strategy_name(strategy s) noexcept;

/// Inverse of strategy_name. Empty optional for unknown names.
std::optional<strategy> strategy_from_name(const std::string& name) noexcept;

/// The serializable schedule-exploration choice of one execution: which
/// strategy, and (for pct) the explicit preemption points. The seed itself is
/// not part of the policy — it stays the scenario's `sched_seed`, shared by
/// every strategy.
struct sched_policy {
  strategy strat = strategy::uniform_random;
  /// Global step numbers at which pct demotes the running process. Ignored
  /// by the other strategies. Kept sorted by parse()/draw_pct_points().
  std::vector<std::uint64_t> pct_points;

  /// "pct 12 45" / "uniform_random" — the scripted_scenario v5 `sched` value.
  std::string to_string() const;
  /// Inverse of to_string(). Throws std::invalid_argument on unknown
  /// strategy names, malformed points, or points on a non-pct strategy.
  static sched_policy parse(const std::string& text);

  bool operator==(const sched_policy&) const = default;
};

/// Draw `depth` preemption points from the xorshift seed stream, uniformly
/// over steps [1, horizon]; returned sorted and deduplicated (so the
/// effective budget can come out below `depth` on collisions, exactly like
/// the PCT paper's with-replacement sampling).
std::vector<std::uint64_t> draw_pct_points(std::uint64_t seed, int depth,
                                           std::uint64_t horizon);

/// PCT scheduler over sim::scheduler::pick(). Priorities are assigned lazily
/// (first time a pid shows up runnable) from the seed stream; at each
/// preemption point the currently-preferred runnable process drops below
/// every priority handed out so far.
class pct_scheduler final : public sim::scheduler {
 public:
  pct_scheduler(std::uint64_t seed, std::vector<std::uint64_t> points);

  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override;
  std::string describe() const override;

  /// Preemption points actually applied so far (≤ the configured budget).
  std::uint64_t preemptions_applied() const noexcept { return applied_; }

 private:
  std::int64_t priority_of(int pid);
  int top_runnable(const std::vector<int>& runnable);

  std::uint64_t state_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> points_;
  std::size_t next_point_ = 0;
  std::uint64_t applied_ = 0;
  std::map<int, std::int64_t> prio_;
  std::int64_t demote_floor_ = -1;
};

/// Instantiate the scheduler a policy describes. `seed` is the scenario's
/// sched_seed; absent, uniform_random degrades to round robin — the
/// historical contract of api::run_policy (only the builders' .seed()
/// selects the random scheduler).
std::unique_ptr<sim::scheduler> make_scheduler(
    const sched_policy& policy, std::optional<std::uint64_t> seed);

}  // namespace detect::sched
