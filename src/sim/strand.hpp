// Simulated-process execution engines.
//
// A `strand` is one crash-prone simulated process: it runs a task under the
// world's step token, parking at every emulated NVM access until the
// scheduler grants the next step, and unwinds via `nvm::crashed` when a
// system-wide crash is delivered. Two interchangeable engines implement the
// contract:
//
//   * `fiber`  — the fast path: the task runs on a stackful fiber. Inside
//     `world::run` a parked fiber asks the world's `step_relay` for the next
//     step itself and switches straight to the picked fiber (or keeps
//     running when the pick is itself): one context switch per step, no
//     driver round trip, no OS involvement (23 ns of loop cost per step,
//     down from 86 ns through the driver; see docs/performance.md).
//     Default.
//   * `thread` — the original engine: one OS worker thread per process,
//     parked on a mutex/condition-variable handshake (~10 µs per step, two
//     OS context switches). Kept as the reference implementation the
//     determinism pins compare the fiber engine against.
//
// Both engines present the same settled-state machine to the world:
// `start()` runs the task to its first yield (or completion), `step()`
// advances it one access (or, with a relay, a chain of steps across
// strands), `deliver_crash()` unwinds it; on return from any of these no
// strand is in flight. Schedules, event logs, and checker verdicts are
// engine-invariant by construction — `tests/engine_test.cpp` pins that
// across two 500-seed scenario corpora (sc, and sc/tso/pso with drains).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#include "nvm/hook.hpp"

namespace detect::sim {

enum class engine_kind : std::uint8_t { fiber, thread };

const char* engine_name(engine_kind e) noexcept;

/// The one engine switch: every world takes the engine named here when it is
/// built. Initially `fiber`. Scenario replays build their executors internally, so
/// flipping this is how A/B tests re-run an identical scenario on the other
/// engine (the engine is deliberately not part of the scenario format).
engine_kind default_engine() noexcept;
void set_default_engine(engine_kind e) noexcept;

class strand;

/// The world's side of direct handoff. A fiber whose step ends (parked at
/// its next access, or finished) calls `after_step()` on its own stack; the
/// world settles that step, takes the next run-loop decision and returns
/// the strand to run the next step — the caller itself to continue, another
/// strand to switch to directly — or nullptr to hand control back to the
/// driver (a due crash, a task or decision exception, the step limit, or an
/// empty ready set). Must not throw: errors wait for the driver.
class step_relay {
 public:
  virtual strand* after_step() noexcept = 0;

 protected:
  ~step_relay() = default;
};

/// One simulated process. Not thread-safe: the world serializes all calls.
class strand : public nvm::access_hook {
 public:
  enum class status : std::uint8_t {
    idle,      // no task
    at_yield,  // parked at an access, eligible for step()
    done,      // task returned or unwound; outcome not yet absorbed
  };

  ~strand() override = default;
  strand(const strand&) = delete;
  strand& operator=(const strand&) = delete;

  /// Run `task` until its first yield or completion. Valid only when idle.
  virtual void start(std::function<void()> task) = 0;

  /// Perform the pending access and run to the next yield or completion.
  /// Valid only when at_yield. With a `relay`, the fiber engine keeps
  /// stepping strands for as long as the relay hands it one, and returns
  /// once `after_step()` has answered nullptr; the thread engine ignores
  /// the relay and returns after the one step, leaving the driver to
  /// consult it.
  virtual void step(step_relay* relay) = 0;

  /// Deliver a crash at the current yield: the task unwinds via
  /// `nvm::crashed` (volatile local state is lost). Valid only when
  /// at_yield; returns once the strand is done.
  virtual void deliver_crash() = 0;

  status st() const noexcept { return status_; }
  nvm::access pending() const noexcept { return pending_kind_; }
  bool interrupted() const noexcept { return interrupted_; }

  /// Absorb a finished task: done → idle. Returns (and clears) any
  /// non-crash exception the task raised, for the world to rethrow.
  std::exception_ptr reset_done() noexcept {
    status_ = status::idle;
    return std::exchange(error_, nullptr);
  }

 protected:
  strand() = default;

  status status_ = status::idle;
  nvm::access pending_kind_ = nvm::access::control;
  bool interrupted_ = false;   // last task unwound by crash
  std::exception_ptr error_;   // non-crash exception from the task
};

std::unique_ptr<strand> make_strand(engine_kind engine);

}  // namespace detect::sim
