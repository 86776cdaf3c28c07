// detect::api::run_policy — the world-level settings of a run, and the one
// setter set that fills them.
//
// Every way of running the paper's objects — a harness, an executor backend,
// the serving front-end — builds its worlds from one run_policy: process
// count, world config (step budget, visibility, drain points), fail
// policy, schedule, persistency, crash plan and cache model.
// harness is constructed from one; api::exec_policy extends it with the
// backend choice, and serve::serve_config holds an exec_policy.
//
// run_builder writes the setters once. harness::builder and
// executor::builder derive from it with themselves as `Derived`, so every
// setter returns the concrete builder and a chain keeps its type:
//
//   auto h = api::harness::builder().procs(3).seed(42).crash_at({12}).build();
//   auto ex = api::executor::builder().shards(2).procs(3).seed(42).build();
#pragma once

#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "sched/strategy.hpp"

namespace detect::api {

struct run_policy {
  int nprocs = 2;
  /// Step budget, visibility model and drain points.
  sim::world_config wcfg;
  core::runtime::fail_policy fail = core::runtime::fail_policy::skip;
  std::optional<std::uint64_t> sched_seed;  // nullopt → round robin
  /// Schedule-exploration strategy `sched_seed` drives (see detect::sched).
  sched::sched_policy sched;
  /// Persistency-visibility model (strict / buffered; see nvm::persist_model).
  nvm::persist_model persist = nvm::persist_model::strict;
  /// The crash plan: scripted steps or (seed, rate, max) random crashes.
  /// At most one may be set; harness construction rejects both.
  std::vector<std::uint64_t> crash_steps;
  std::optional<std::tuple<std::uint64_t, double, std::uint64_t>> crash_random;
  /// Shared-cache memory model; `auto_persist` applies the §6 syntactic
  /// flush/fence transformation to every shared access.
  bool shared_cache = false;
  bool auto_persist = true;
};

template <typename Derived, typename Policy>
class run_builder {
 public:
  Derived& procs(int n) {
    pol_.nprocs = n;
    return self();
  }
  Derived& max_steps(std::uint64_t n) {
    pol_.wcfg.max_steps = n;
    return self();
  }
  Derived& fail_policy(core::runtime::fail_policy p) {
    pol_.fail = p;
    return self();
  }
  /// Seeded random scheduler for run(); default is round robin.
  Derived& seed(std::uint64_t s) {
    pol_.sched_seed = s;
    return self();
  }
  /// Schedule-exploration strategy the seed drives: round_robin,
  /// uniform_random (default), or pct with explicit preemption points.
  Derived& schedule(sched::sched_policy p) {
    pol_.sched = std::move(p);
    return self();
  }
  /// Persistency-visibility model. Default strict; buffered makes stores
  /// crash-persistent only at flush/epoch boundaries.
  Derived& persist(nvm::persist_model m) {
    pol_.persist = m;
    return self();
  }
  /// Store-buffer visibility model between live processes (sc / tso / pso;
  /// see wmm::visibility_model). Default sc, the historical interleaving
  /// semantics. Orthogonal to persist(): buffered stores drain before they
  /// persist or journal.
  Derived& visibility(wmm::visibility_model m) {
    pol_.wcfg.visibility = m;
    return self();
  }
  /// Scripted full-drain steps under tso/pso, keyed on the (world-local)
  /// step counter like crash_at (see sim::world_config::drain_points).
  Derived& drain_at(std::vector<std::uint64_t> steps) {
    pol_.wcfg.drain_points = std::move(steps);
    return self();
  }
  /// Crash when the (world-local) step counter hits each listed value.
  Derived& crash_at(std::vector<std::uint64_t> steps) {
    pol_.crash_steps = std::move(steps);
    return self();
  }
  /// Crash with probability `rate` before each step, at most `max` times.
  Derived& crash_random(std::uint64_t s, double rate, std::uint64_t max) {
    pol_.crash_random = {s, rate, max};
    return self();
  }
  Derived& shared_cache(bool auto_persist = true) {
    pol_.shared_cache = true;
    pol_.auto_persist = auto_persist;
    return self();
  }

 protected:
  Policy pol_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace detect::api
