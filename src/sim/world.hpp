// The simulated world: N crash-prone processes over an isolated persistent
// memory domain, driven step by step (§2's asynchronous system with
// system-wide crash-failures).
//
// The world exposes two levels of control:
//   * low level — submit a task to a process, step a chosen process by one
//     shared-memory access, deliver a crash, inspect who is runnable. The
//     Theorem-2 harness uses this to realize proof schedules verbatim
//     ("run p until it is about to return", "crash immediately after the
//     invocation").
//   * run loop — drive all submitted tasks to completion under a pluggable
//     scheduling policy and crash plan, invoking a recovery callback after
//     every crash (the client runtime uses it to resume per Ann_p).
//
// Processes execute on pluggable strand engines (see sim/strand.hpp): the
// default `fiber` engine hands each step of a run straight from one fiber to
// the next (one in-thread context switch: 23 ns of loop cost per step, down
// from 86 ns through the driver, for 8 control-only processes on a 4-vCPU
// VM; docs/performance.md has the breakdown), the `thread`
// engine keeps the original one-OS-thread-per-process handshake as the
// reference the determinism pins compare against. Both take every run-loop
// decision in one place, `decide()`. The world itself is single-threaded
// either way: every public call returns with all strands settled, and the
// run loop maintains the sorted runnable set incrementally instead of
// re-scanning every process per step — strands finish outside a step only
// in submit() and crash(), and only those are followed by a scan.
#pragma once

#include <cassert>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nvm/pcell.hpp"
#include "nvm/pmem.hpp"
#include "sim/strand.hpp"
#include "wmm/visibility.hpp"

namespace detect::sim {

/// Scheduling policy: choose the next process to step among the runnable.
class scheduler {
 public:
  virtual ~scheduler() = default;
  /// `runnable` is non-empty and sorted by pid.
  virtual int pick(const std::vector<int>& runnable, std::uint64_t step_no) = 0;
  /// One-line self-description (strategy, seed, preemption budget) quoted by
  /// the step-limit diagnostic so a non-terminating schedule is reproducible
  /// from the failure message alone.
  virtual std::string describe() const { return "unnamed scheduler"; }
};

/// Crash policy: consulted before every step.
class crash_plan {
 public:
  virtual ~crash_plan() = default;
  virtual bool should_crash(std::uint64_t step_no) = 0;
};

struct world_config {
  /// Safety valve against non-terminating schedules (e.g. an unfair scheduler
  /// starving Algorithm 3's double collect).
  std::uint64_t max_steps = 1'000'000;
  /// Visibility order between live processes (see wmm/visibility.hpp).
  /// Under tso/pso each process gets a FIFO store buffer whose drain slots
  /// appear in the run loop's candidate set as pseudo-pids
  /// `nprocs*(1+slot)+pid`, schedulable like any real step. sc — the
  /// default — buffers nothing and leaves every historical replay
  /// byte-identical.
  wmm::visibility_model visibility = wmm::visibility_model::sc;
  /// Scenario-scripted full drains (tso/pso only): when the global step
  /// counter hits a listed value, every process's buffer drains completely
  /// as one step. Fires once per value; the shrinker's minimization drops
  /// them one at a time.
  std::vector<std::uint64_t> drain_points;
};

struct run_report {
  std::uint64_t steps = 0;
  std::uint64_t crashes = 0;
  bool hit_step_limit = false;
  /// Set with hit_step_limit: names the limit and the active scheduler
  /// (strategy, seed, preemption budget) so the schedule is reproducible.
  std::string limit_note;
  /// Buffered-persistency mode only: some crash actually discarded stores
  /// that strict mode would have persisted (a crash state the strict model
  /// can never produce).
  bool lost_persistence = false;
  /// Persistent-cell footprint of the world's NVM domain when the run
  /// finished: cells attached and their persisted-image bytes — the space
  /// quantity the paper's bounds count. Sharded executors sum the fields
  /// across shards.
  std::uint64_t nvm_cells = 0;
  std::uint64_t nvm_bytes = 0;
  /// Relaxed visibility only (always 0 under sc): store-buffer drains the
  /// run performed (scheduled pseudo-pid picks, explicit drain points, and
  /// end-of-run quiescence) and the deepest any process's buffer got.
  /// Sharded executors take max of the depth, sum of the drains.
  std::uint64_t drain_steps = 0;
  std::uint64_t max_pending_stores = 0;
};

class world final : private step_relay {
 public:
  /// The world runs on the strand engine `default_engine()` names when it
  /// is built. The engine is deliberately not a config field: engines are
  /// behavior-identical, and A/B tests flip the process-global default,
  /// which also reaches the worlds scenario replays build internally.
  explicit world(int nprocs, world_config cfg = {});
  ~world();  // unwinds tasks still parked (e.g. after a step limit)

  world(const world&) = delete;
  world& operator=(const world&) = delete;

  nvm::pmem_domain& domain() noexcept { return domain_; }
  int nprocs() const noexcept { return static_cast<int>(procs_.size()); }
  engine_kind engine() const noexcept { return engine_; }

  /// Hand `task` to process `pid`. The task body runs under the strand's
  /// access hook up to its first yield; it must not outlive the world.
  void submit(int pid, std::function<void()> task);

  /// Pids currently blocked at a yield (eligible for `step`), sorted.
  std::vector<int> runnable();

  /// True if any process still has an unfinished task.
  bool busy();

  /// Grant one step to `pid`; returns once it blocks at its next yield or
  /// finishes its task. Rethrows any non-crash exception the task raised.
  void step(int pid);

  /// Kind of access `pid` is currently blocked on (valid when runnable).
  nvm::access pending_access(int pid);

  /// Did the last completed task of `pid` unwind due to a crash?
  bool last_task_interrupted(int pid);

  /// Deliver a system-wide crash: every in-flight task unwinds, then the
  /// memory domain applies its crash semantics. Callable only from the
  /// driving thread, between steps.
  void crash();

  /// The epoch service of Golab & Hendler's RME model (paper §1): a
  /// non-volatile counter the *system* advances on every crash — the
  /// canonical "auxiliary state provided by the system" of Definition 1.
  /// Readable by recoverable operations via the returned cell.
  nvm::pcell<std::uint64_t>& epoch_cell() noexcept { return epoch_; }
  std::uint64_t epoch() const noexcept { return epoch_.peek(); }

  /// Drive everything to completion. `on_crash_done` (may be null) runs after
  /// each crash has fully unwound — typically to log the crash and resubmit
  /// recovery tasks.
  run_report run(scheduler& sched, crash_plan* crashes = nullptr,
                 const std::function<void()>& on_crash_done = nullptr);

  std::uint64_t steps_taken() const noexcept { return step_no_; }

  /// Active visibility model (world_config.visibility).
  wmm::visibility_model visibility() const noexcept { return cfg_.visibility; }

  /// One-line description of how this world is being scheduled: the active
  /// scheduler (while/after a run), the visibility model, and the current
  /// total pending-store-buffer depth — what differ step-limit diffs quote
  /// to attribute divergence to the memory model.
  std::string describe_schedule() const;

 private:
  // What the run loop does next. `step` names a real pid; drains are not
  // actions, decide() performs them itself since they run no strand.
  struct action {
    enum class kind : std::uint8_t { step, crash, limit, idle };
    kind k = kind::idle;
    int pid = -1;
  };

  // Absorb finished tasks (done → idle), rethrowing any task exception.
  void settle();
  // Grant one step to a pid known to be in ready_; updates ready_.
  void step_ready(int pid);
  // The one run-loop decision, taken by the driver and, under the fiber
  // engine, by the stepping fiber itself (after_step): step limit, drain
  // points, the crash plan, then the scheduler's pick among real pids and
  // drain pseudo-pids. Valid only inside run().
  action decide();
  // A step's two halves: count it and point the domain at the process's
  // store buffer; then clear the buffer and absorb the task if it finished,
  // rethrowing its exception.
  strand& begin_step(int pid);
  void finish_step();
  // step_relay: finish the running step, decide, begin the next step.
  strand* after_step() noexcept override;
  // Run steps from `pid` on until a decision other than `step`; returns it.
  action run_steps(int pid);
  // Relaxed visibility only: total stores currently buffered, and one
  // entry's drain as a counted step.
  std::size_t pending_stores() const noexcept;
  void drain_one(int pid, std::size_t slot);
  // Drain `pid`'s whole buffer as counted steps (fences via direct step()).
  void drain_fully(int pid);
  // True when `a` must not execute past a non-empty store buffer.
  static bool needs_drained_buffer(nvm::access a) noexcept;

  world_config cfg_;
  engine_kind engine_;
  // Confined counting: only the driver, or the strand it handed the step
  // to, touches the domain, and every handoff synchronizes.
  nvm::pmem_domain domain_{nvm::stats::sharing::confined};
  nvm::pcell<std::uint64_t> epoch_{1, domain_};

  std::vector<std::unique_ptr<strand>> procs_;
  /// The process whose step is in progress (begin_step .. finish_step).
  int running_ = -1;
  /// run()'s scheduler and crash plan, read by decide().
  scheduler* sched_ = nullptr;
  crash_plan* crashes_ = nullptr;
  /// How a handoff chain ended: the decision that was not a step, or the
  /// exception a task or a decision raised, both for the driver to act on.
  action chain_end_;
  std::exception_ptr chain_error_;
  /// Pids currently at a yield, kept sorted; maintained incrementally on
  /// submit/step/crash so the run loop never re-scans all processes.
  std::vector<int> ready_;
  std::uint64_t step_no_ = 0;
  bool lost_persistence_ = false;
  /// Per-process store buffers; sized nprocs iff visibility != sc (empty
  /// vector == the zero-overhead sc fast path throughout).
  std::vector<wmm::store_buffer> bufs_;
  /// Scratch candidate vector for the run loop (real pids + drain
  /// pseudo-pids), reused across steps.
  std::vector<int> cand_;
  /// cfg_.drain_points with fired entries tombstoned — like crash_at_steps,
  /// each point fires once over the world's whole lifetime (recovery rounds
  /// share one global step counter).
  std::vector<std::uint64_t> drains_left_;
  std::uint64_t drain_steps_ = 0;
  std::uint64_t max_pending_ = 0;
  /// describe() string of the in-progress (or most recent) run()'s
  /// scheduler, captured at run() start so describe_schedule() never holds a
  /// pointer to a scheduler that may have been destroyed after run() returned.
  std::string active_sched_desc_;
};

// ---------------------------------------------------------------------------
// Division-free remainders for the stock schedulers' picks.

/// `x % d` for a divisor fixed in advance, computed with multiplications
/// instead of a divide instruction (Lemire, Kaser & Kurz, "Faster Remainder
/// by Direct Computation", 2019): with the 128-bit reciprocal
/// m = floor((2^128 - 1) / d) + 1, the remainder is the top 64 bits of
/// (m * x mod 2^128) * d. Exact for every 64-bit x and d >= 1.
class divisor {
 public:
  divisor() = default;  // unset; d() == 0
  explicit divisor(std::uint64_t d) noexcept;

  std::uint64_t d() const noexcept { return d_; }

  std::uint64_t remainder(std::uint64_t x) const noexcept {
    const u128 low = m_ * x;  // the fraction x / d, mod 2^128
    const u128 lo_d = (low & ~std::uint64_t{0}) * d_;
    const u128 hi_d = (low >> 64) * d_;
    return static_cast<std::uint64_t>(((lo_d >> 64) + hi_d) >> 64);
  }

 private:
  __extension__ typedef unsigned __int128 u128;

  u128 m_ = 0;
  std::uint64_t d_ = 0;
};

/// Remainders by the small divisors a scheduler meets, the candidate-set
/// sizes: each size's reciprocal is computed on its first use and kept, so
/// no pick pays for a 128-bit division.
class remainder_cache {
 public:
  /// `x % n`; `n` must be positive (a scheduler never picks from nothing).
  std::size_t remainder(std::uint64_t x, std::size_t n) {
    assert(n > 0);
    if (n >= by_size_.size()) by_size_.resize(n + 1);
    divisor& dv = by_size_[n];
    if (dv.d() == 0) dv = divisor(n);
    return static_cast<std::size_t>(dv.remainder(x));
  }

 private:
  std::vector<divisor> by_size_;  // indexed by n; d() == 0 until first use
};

// ---------------------------------------------------------------------------
// Stock scheduling policies.

class round_robin_scheduler final : public scheduler {
 public:
  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override;
  std::string describe() const override { return "round_robin"; }

 private:
  std::size_t next_ = 0;
  remainder_cache mods_;
};

class random_scheduler final : public scheduler {
 public:
  explicit random_scheduler(std::uint64_t seed)
      : state_(seed | 1), seed_(seed) {}
  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override;
  std::string describe() const override {
    return "uniform_random(seed=" + std::to_string(seed_) + ")";
  }

 private:
  std::uint64_t state_;
  std::uint64_t seed_;
  remainder_cache mods_;
};

/// Follows a fixed pid script; falls back to lowest-pid when the scripted pid
/// is not runnable or the script is exhausted.
class scripted_scheduler final : public scheduler {
 public:
  explicit scripted_scheduler(std::vector<int> script)
      : script_(std::move(script)) {}
  int pick(const std::vector<int>& runnable, std::uint64_t step_no) override;

 private:
  std::vector<int> script_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Stock crash plans.

class no_crashes final : public crash_plan {
 public:
  bool should_crash(std::uint64_t) override { return false; }
};

/// Crash exactly when the global step counter hits each listed value.
class crash_at_steps final : public crash_plan {
 public:
  explicit crash_at_steps(std::vector<std::uint64_t> at) : at_(std::move(at)) {}
  bool should_crash(std::uint64_t step_no) override;

 private:
  std::vector<std::uint64_t> at_;
};

/// Crash with probability `rate` before each step, at most `max_crashes`.
class random_crashes final : public crash_plan {
 public:
  random_crashes(std::uint64_t seed, double rate, std::uint64_t max_crashes)
      : state_(seed | 1), rate_(rate), left_(max_crashes) {}
  bool should_crash(std::uint64_t step_no) override;

 private:
  std::uint64_t state_;
  double rate_;
  std::uint64_t left_;
};

/// xorshift64* — deterministic, seedable, good enough for schedule fuzzing.
inline std::uint64_t next_rand(std::uint64_t& s) noexcept {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

}  // namespace detect::sim
