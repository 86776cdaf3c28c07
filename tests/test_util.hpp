// Shared helpers for the test suites, built on the detect::api façade.
//
// A `scenario` is a replayable recipe: process count, fail policy, and a
// setup function that creates objects through typed handles and installs the
// client scripts. The drivers below instantiate a fresh harness per run:
//   * run_scenario: one scripted run under a seeded scheduler and crash plan,
//     checked for durable linearizability + detectability;
//   * crash_sweep: re-run the same scenario with a crash injected at every
//     possible step index (the deterministic "crash everywhere" battery the
//     paper's correctness lemmas are exercised with);
//   * crash_pair_sweep / crash_fuzz: two-crash and randomized batteries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"

namespace detect::test {

/// FNV-1a for golden pins: folds `s` into `h`, then a field separator, so
/// that hashing a list of fields cannot run two of them together.
inline std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return (h ^ 0xff) * 1099511628211ULL;
}

/// FNV-1a with no field separator: folds `s` into `h` and nothing else.
/// Golden pins captured this way (the differ, axes, linearizer and wmm
/// suites) keep using it, so their hashes stay comparable across history.
inline std::uint64_t fnv_raw(std::uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t k_fnv_basis = 1469598103934665603ULL;

/// Switches the process-global strand engine (sim::set_default_engine) to
/// `e` and restores the previous engine on scope exit. A world takes its
/// engine when it is built, so build the worlds inside the guard's scope.
class engine_guard {
 public:
  explicit engine_guard(sim::engine_kind e) : saved_(sim::default_engine()) {
    sim::set_default_engine(e);
  }
  ~engine_guard() { sim::set_default_engine(saved_); }
  engine_guard(const engine_guard&) = delete;
  engine_guard& operator=(const engine_guard&) = delete;

 private:
  sim::engine_kind saved_;
};

/// pid → script, the façade's scripting currency.
using scripts = std::map<int, std::vector<hist::op_desc>>;

struct scenario {
  int nprocs = 2;
  core::runtime::fail_policy policy = core::runtime::fail_policy::skip;
  /// Shared-cache memory model (with the §6 auto-persist transform unless
  /// disabled); default is the paper's private-cache model.
  bool shared_cache = false;
  bool auto_persist = true;
  /// Create objects via typed handles and install scripts.
  std::function<void(api::harness&)> setup;
};

struct run_outcome {
  sim::run_report report;
  hist::check_result check;
  std::string log_text;
};

inline api::harness make_harness(const scenario& cfg, std::uint64_t sched_seed,
                                 std::vector<std::uint64_t> crash_steps = {}) {
  api::harness::builder b;
  b.procs(cfg.nprocs).fail_policy(cfg.policy).seed(sched_seed).crash_at(
      std::move(crash_steps));
  if (cfg.shared_cache) b.shared_cache(cfg.auto_persist);
  api::harness h = b.build();
  cfg.setup(h);
  return h;
}

inline run_outcome run_scenario(const scenario& cfg, std::uint64_t sched_seed,
                                std::vector<std::uint64_t> crash_steps = {}) {
  api::harness h = make_harness(cfg, sched_seed, std::move(crash_steps));
  run_outcome out;
  out.report = h.run();
  out.check = h.check();
  out.log_text = h.log_text();
  return out;
}

/// Single-object scenario: instantiate `kind` from the registry and script
/// it through the typed handle `H` (e.g. one_object<api::reg>("reg", ...)).
template <typename H>
scenario one_object(const std::string& kind, int nprocs,
                    std::function<scripts(H)> make_scripts,
                    core::runtime::fail_policy policy =
                        core::runtime::fail_policy::skip,
                    api::object_params params = {}) {
  scenario cfg;
  cfg.nprocs = nprocs;
  cfg.policy = policy;
  cfg.setup = [kind, make_scripts, params](api::harness& h) {
    H handle(h.add(kind, params));
    for (auto& [pid, ops] : make_scripts(handle)) h.script(pid, std::move(ops));
  };
  return cfg;
}

/// Crash at every step index of the scenario (one crash per run), asserting
/// correctness each time. Returns the number of runs performed.
inline int crash_sweep(const scenario& cfg, std::uint64_t sched_seed) {
  run_outcome base = run_scenario(cfg, sched_seed);
  EXPECT_FALSE(base.report.hit_step_limit);
  EXPECT_TRUE(base.check.ok) << base.check.message;
  int runs = 1;
  for (std::uint64_t k = 0; k < base.report.steps; ++k) {
    run_outcome out = run_scenario(cfg, sched_seed, {k});
    EXPECT_FALSE(out.report.hit_step_limit);
    EXPECT_TRUE(out.check.ok)
        << "crash at step " << k << ":\n"
        << out.check.message;
    ++runs;
    if (::testing::Test::HasFailure()) break;
  }
  return runs;
}

/// Two crashes at every pair of step indices (strided to bound the quadratic
/// blowup): exercises crash-during-recovery and recovery-then-crash-again.
inline void crash_pair_sweep(const scenario& cfg, std::uint64_t seed,
                             std::uint64_t stride = 3) {
  run_outcome base = run_scenario(cfg, seed);
  ASSERT_TRUE(base.check.ok) << base.check.message;
  for (std::uint64_t k1 = 0; k1 < base.report.steps; k1 += stride) {
    for (std::uint64_t k2 = k1; k2 < base.report.steps + 10; k2 += stride) {
      run_outcome out = run_scenario(cfg, seed, {k1, k2});
      EXPECT_FALSE(out.report.hit_step_limit);
      EXPECT_TRUE(out.check.ok) << "crashes at steps " << k1 << "," << k2
                                << ":\n"
                                << out.check.message;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Random schedules with random crash placements; `seeds` independent runs.
inline void crash_fuzz(const scenario& cfg, int seeds, int max_crashes,
                       std::uint64_t base_seed = 0x5eed) {
  for (int s = 0; s < seeds; ++s) {
    std::uint64_t seed = base_seed + static_cast<std::uint64_t>(s) * 7919;
    // Derive pseudo-random crash steps from the seed.
    std::uint64_t rng = seed | 1;
    std::vector<std::uint64_t> crashes;
    for (int c = 0; c < max_crashes; ++c) {
      crashes.push_back(sim::next_rand(rng) % 120);
    }
    run_outcome out = run_scenario(cfg, seed, crashes);
    EXPECT_FALSE(out.report.hit_step_limit);
    EXPECT_TRUE(out.check.ok) << "seed " << seed << ":\n" << out.check.message;
    if (::testing::Test::HasFailure()) return;
  }
}

/// Scan the recorded history for the last recovery verdict of `pid`.
inline hist::recovery_verdict last_verdict(const std::vector<hist::event>& events,
                                           int pid,
                                           hist::value_t* value = nullptr) {
  hist::recovery_verdict verdict = hist::recovery_verdict::none;
  for (const auto& e : events) {
    if (e.kind == hist::event_kind::recover_result && e.pid == pid) {
      verdict = e.verdict;
      if (value != nullptr) *value = e.value;
    }
  }
  return verdict;
}

/// A counter whose read responses are off by one — the differential target:
/// crash-free single-process replays against the real counter must diverge.
struct lying_counter : core::detectable_object {
  api::created_object inner;

  explicit lying_counter(api::created_object in) : inner(std::move(in)) {}

  hist::value_t invoke(int pid, const hist::op_desc& op) override {
    hist::value_t v = inner.primary().invoke(pid, op);
    return op.code == hist::opcode::ctr_read ? v + 1 : v;
  }
  core::recovery_result recover(int pid, const hist::op_desc& op) override {
    return inner.primary().recover(pid, op);
  }
  bool wants_aux_reset() const override {
    return inner.primary().wants_aux_reset();
  }
};

/// Register lying_counter as the non-detectable counter-family kind
/// "test_lying_counter" (idempotent).
inline void register_lying_counter_once() {
  auto& reg = api::object_registry::global();
  if (reg.contains("test_lying_counter")) return;
  api::kind_info info;
  info.name = "test_lying_counter";
  info.family = api::op_family::counter;
  info.detectable = false;
  info.make = [](const api::object_env& e, const api::object_params& p) {
    api::created_object c;
    c.owned.push_back(std::make_unique<lying_counter>(
        api::object_registry::global().create("counter", e, p)));
    return c;
  };
  info.make_spec = [](const api::object_params& p) {
    return api::object_registry::global().make_spec("counter", p);
  };
  reg.add(std::move(info));
}

/// A counter that throws std::domain_error out of every add of 3: a bug
/// that surfaces as an exception from the library, not as a wrong answer.
struct throwing_counter : core::detectable_object {
  api::created_object inner;

  explicit throwing_counter(api::created_object in) : inner(std::move(in)) {}

  hist::value_t invoke(int pid, const hist::op_desc& op) override {
    if (op.code == hist::opcode::ctr_add && op.a == 3) {
      throw std::domain_error("test_throwing_counter: add(3)");
    }
    return inner.primary().invoke(pid, op);
  }
  core::recovery_result recover(int pid, const hist::op_desc& op) override {
    return inner.primary().recover(pid, op);
  }
  bool wants_aux_reset() const override {
    return inner.primary().wants_aux_reset();
  }
};

/// Register throwing_counter as the non-detectable counter-family kind
/// "test_throwing_counter" (idempotent).
inline void register_throwing_counter_once() {
  auto& reg = api::object_registry::global();
  if (reg.contains("test_throwing_counter")) return;
  api::kind_info info;
  info.name = "test_throwing_counter";
  info.family = api::op_family::counter;
  info.detectable = false;
  info.make = [](const api::object_env& e, const api::object_params& p) {
    api::created_object c;
    c.owned.push_back(std::make_unique<throwing_counter>(
        api::object_registry::global().create("counter", e, p)));
    return c;
  };
  info.make_spec = [](const api::object_params& p) {
    return api::object_registry::global().make_spec("counter", p);
  };
  reg.add(std::move(info));
}

}  // namespace detect::test
